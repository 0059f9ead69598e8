"""Command-line front end for the contest solvers.

Subcommands cover the baseline equilibrium, parameter sweeps, reference
table reproductions, the designer problems, the expert and rank-prize
extensions, heterogeneous abilities, large-field limits, and Monte Carlo
checks. Output is a JSON run record (full precision) or CSV rows (6
significant digits). Exit codes: 0 success, 1 reference mismatch, 2
validation error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from ._errors import ConvergenceError, InputError
from .distributions import CostDistribution, PiecewiseLinear, distribution_from_spec
from .equilibrium import ContestConfig, solve_threshold
from . import asymptotics as asym
from . import expert as exp_mod
from . import hetero as het_mod
from . import montecarlo as mc_mod
from . import multiprize as mp_mod
from . import principal as pr_mod

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

TABLE_TOL = 5e-4

# Reference reproduction targets: (distribution, q, V, rows of
# (n, threshold, success_prob)) quoted to the precision they were published
# at; reproductions must agree within TABLE_TOL.
REFERENCE_TABLES = {
    "table1a": {
        "dist": {"kind": "power", "alpha": 20.0},
        "q": 1.0,
        "V": 1.0,
        "rows": [
            (2, 0.9151, 0.3106),
            (3, 0.8951, 0.2924),
            (4, 0.8828, 0.2917),
            (5, 0.8739, 0.2948),
            (6, 0.8669, 0.2989),
        ],
    },
    "table1b": {
        "dist": {"kind": "uniform", "a": 0.0, "b": 1.0},
        "q": 1.0,
        "V": 1.999,
        "rows": [
            (2, 0.9998, 0.9999),
            (3, 0.8136, 0.9935),
            (4, 0.7042, 0.9923),
            (5, 0.6301, 0.9931),
            (6, 0.5755, 0.9941),
        ],
    },
    "table2a": {
        "dist": {"kind": "uniform", "a": 0.0, "b": 1.0},
        "q": 0.5,
        "V": 1.0,
        "rows": [
            (10, 0.2787, 0.7771),
            (100, 0.0997, 0.9939),
            (1000, 0.0316, 0.9999),
            (2000, 0.0224, 0.9999),
        ],
    },
    "table2b": {
        "dist": {"kind": "uniform", "a": 0.25, "b": 1.25},
        "q": 0.5,
        "V": 1.0,
        "rows": [
            (10, 0.3780, 0.4839),
            (100, 0.2767, 0.7395),
            (1000, 0.2531, 0.7904),
            (2000, 0.2516, 0.7936),
        ],
    },
}

TABLE_NAMES = tuple(REFERENCE_TABLES) + ("example3", "appendixC")


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt_csv(v) for v in value)
    return str(value)


def _emit(args, argv, config_echo, results, rows, started) -> None:
    if args.format == "csv":
        lines = []
        if rows:
            header = list(rows[0].keys())
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(_fmt_csv(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    else:
        record = {
            "command": ["searchcontest"] + list(argv),
            "config": _plain(config_echo),
            "results": _plain(results),
            "version": __version__,
            "wall_time_s": time.perf_counter() - started,
        }
        text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_dist(spec_text: str) -> CostDistribution:
    try:
        spec = json.loads(spec_text)
    except json.JSONDecodeError as e:
        raise InputError(f"--dist is not valid JSON: {e}") from None
    return distribution_from_spec(spec)


def _parse_json_list(text: str, flag: str) -> list:
    try:
        values = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{flag} is not valid JSON: {e}") from None
    if not isinstance(values, list) or not values:
        raise InputError(f"{flag} must be a nonempty JSON array")
    return values


def _config_echo(args) -> dict:
    skip = {"func", "out", "format"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if key == "dist":
            try:
                echo[key] = json.loads(value)
                continue
            except json.JSONDecodeError:
                pass
        echo[key] = value
    return echo


def _result_payload(res) -> dict:
    return {
        "threshold": res.threshold,
        "success_prob": res.success_prob,
        "expected_searchers": res.expected_searchers,
        "win_prob": res.win_prob,
        "interior": res.interior,
        "residual": res.residual,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_solve(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    cfg = ContestConfig(n=args.n, q=args.q, V=args.V)
    res = solve_threshold(d, cfg)
    payload = _result_payload(res)
    _emit(args, argv, _config_echo(args), payload, [payload], started)
    return EXIT_OK


def _cmd_sweep(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    values = _parse_json_list(args.values, "--values")
    rows = []
    for value in values:
        v = float(value)
        n, q, V = args.n, args.q, args.V
        if args.param == "n":
            n = v
        elif args.param == "q":
            q = v
        else:
            V = v
        res = solve_threshold(d, ContestConfig(n=n, q=q, V=V))
        rows.append({args.param: v, **_result_payload(res)})
    _emit(args, argv, _config_echo(args), {"sweep": rows}, rows, started)
    return EXIT_OK


def _reproduce_reference_table(name: str) -> tuple[list[dict], bool]:
    spec = REFERENCE_TABLES[name]
    d = distribution_from_spec(spec["dist"])
    rows = []
    all_ok = True
    for n, c_ref, p_ref in spec["rows"]:
        res = solve_threshold(d, ContestConfig(n=float(n), q=spec["q"], V=spec["V"]))
        ok = abs(res.threshold - c_ref) <= TABLE_TOL and abs(res.success_prob - p_ref) <= TABLE_TOL
        all_ok &= ok
        rows.append(
            {
                "n": n,
                "threshold": res.threshold,
                "threshold_ref": c_ref,
                "success_prob": res.success_prob,
                "success_prob_ref": p_ref,
                "ok": ok,
            }
        )
    return rows, all_ok


def _reproduce_example3() -> tuple[list[dict], bool]:
    d = distribution_from_spec({"kind": "uniform", "a": 0.0, "b": 1.0})
    q, n, W, V = 1.0, 2, 2.0, 1.0
    wta = mp_mod.PrizeStructure.winner_takes_all(V, n)
    v34 = mp_mod.PrizeStructure((0.75, 0.25))
    u_wta = mp_mod.principal_value_multi(d, q, n, W, wta)
    u_34 = mp_mod.principal_value_multi(d, q, n, W, v34)
    best = mp_mod.optimal_prize_structure(d, q, n, W, V)
    rows = [
        {"quantity": "value_winner_takes_all", "computed": u_wta, "reference": 8.0 / 9.0,
         "ok": abs(u_wta - 8.0 / 9.0) <= 1e-9},
        {"quantity": "value_top_three_quarters", "computed": u_34, "reference": 24.0 / 25.0,
         "ok": abs(u_34 - 24.0 / 25.0) <= 1e-9},
        {"quantity": "optimal_structure_value", "computed": best.value, "reference": 24.0 / 25.0,
         "ok": best.value >= 24.0 / 25.0 - 1e-9},
    ]
    return rows, all(r["ok"] for r in rows)


def _reproduce_appendix_c() -> tuple[list[dict], bool]:
    d = PiecewiseLinear(((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0)))
    scan = het_mod.best_response_scan_n2(d, 1.0, 5.0 / 7.0, 10001)
    if scan.pairs.shape[0] == 0:
        return [{"quantity": "pairs_found", "computed": 0.0, "reference": 1.0, "ok": False}], False
    c1 = scan.pairs[:, 0]
    left, right = float(c1.min()), float(c1.max())
    sym = bool(scan.has_symmetric)
    rows = [
        {"quantity": "segment_left_endpoint", "computed": left, "reference": 3.0 / 7.0,
         "ok": abs(left - 3.0 / 7.0) <= 2e-4},
        {"quantity": "segment_right_endpoint", "computed": right, "reference": 4.0 / 7.0,
         "ok": abs(right - 4.0 / 7.0) <= 2e-4},
        {"quantity": "symmetric_pair_included", "computed": float(sym), "reference": 1.0,
         "ok": sym},
    ]
    return rows, all(r["ok"] for r in rows)


def _cmd_tables(args, argv, started) -> int:
    name = args.name
    if name in REFERENCE_TABLES:
        rows, ok = _reproduce_reference_table(name)
    elif name == "example3":
        rows, ok = _reproduce_example3()
    else:
        rows, ok = _reproduce_appendix_c()
    payload = {"name": name, "rows": rows, "all_ok": ok}
    _emit(args, argv, _config_echo(args), payload, rows, started)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_principal(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    sol = pr_mod.optimal_prize(d, args.q, args.n, args.W)
    lo, hi = pr_mod.stakes_window(d, args.q, args.n)
    payload = {
        "threshold": sol.threshold,
        "prize": sol.prize,
        "regime": sol.regime,
        "objective_value": sol.objective_value,
        "certified": sol.certified,
        "stakes_window": [lo, hi],
    }
    _emit(args, argv, _config_echo(args), payload, [payload], started)
    return EXIT_OK


def _cmd_prize_structure(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    n = int(args.n)
    if n != args.n:
        raise InputError("prize structures need an integer field size n")
    sol = mp_mod.optimal_prize_structure(d, args.q, n, args.W, args.V)
    payload = {
        "threshold": sol.threshold,
        "prizes": list(sol.structure.values),
        "mix_weight": sol.mix_weight,
        "regime": sol.regime,
        "value": sol.value,
        "stakes_window": list(sol.stakes_window),
        "certified": sol.certified,
    }
    _emit(args, argv, _config_echo(args), payload, [payload], started)
    return EXIT_OK


def _cmd_expert(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    res = exp_mod.solve_threshold_expert(d, args.q, args.qe, args.n, args.V, args.mode)
    total = exp_mod.success_probability_with_expert(d, args.q, args.qe, args.n, args.V, args.mode)
    try:
        crit = exp_mod.critical_expertise(d, args.q, args.n, args.V)
    except InputError:
        crit = None
    payload = {
        "threshold": res.threshold,
        "crowd_success_prob": res.success_prob,
        "total_success_prob": total,
        "win_prob": res.win_prob,
        "interior": res.interior,
        "critical_expertise": crit,
        "mode": args.mode,
    }
    _emit(args, argv, _config_echo(args), payload, [payload], started)
    return EXIT_OK


def _cmd_hetero(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    q_vec = [float(v) for v in _parse_json_list(args.qvec, "--qvec")]
    contest = het_mod.HeteroContest(tuple(q_vec), args.V, d)
    tv = het_mod.solve_thresholds(contest)
    if not tv.converged:
        raise ConvergenceError("threshold sweep did not converge")
    thr_input_order = contest.to_input_order(tv.thresholds)
    payload = {
        "thresholds": list(thr_input_order),
        "success_prob": het_mod.success_probability(contest, tv.thresholds),
        "sweeps": tv.sweeps,
        "converged": tv.converged,
    }
    if args.W is not None:
        sol = het_mod.solve_principal_hetero(contest, args.W)
        payload["principal"] = {
            "thresholds": list(contest.to_input_order(sol.thresholds)),
            "prize": sol.prize,
            "implied_prize_spread": sol.spread,
        }
    rows = [
        {"agent": i, "q": q_vec[i], "threshold": float(thr_input_order[i])}
        for i in range(len(q_vec))
    ]
    _emit(args, argv, _config_echo(args), payload, rows, started)
    return EXIT_OK


def _cmd_asymptotics(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    c_lo, _ = d.support()
    limit = asym.limiting_behavior(c_lo, args.q, args.V)
    payload = {
        "support_floor": c_lo,
        "expected_searchers": limit.expected_searchers,
        "success_prob": limit.success_prob,
        "regime": limit.regime,
    }
    if args.W is not None:
        payload["limit_optimal_prize"] = asym.limit_optimal_prize(c_lo, args.q, args.W)
    if args.rate is not None:
        n_values = (
            [float(v) for v in _parse_json_list(args.n_values, "--n-values")]
            if args.n_values
            else [1e2, 1e3, 1e4, 1e5, 1e6]
        )
        fit = asym.estimate_rate(d, args.q, args.V, n_values, args.rate)
        payload["rate"] = {
            "quantity": fit.quantity,
            "slope": fit.slope,
            "r_squared": fit.r_squared,
        }
    _emit(args, argv, _config_echo(args), payload, [payload], started)
    return EXIT_OK


def _parse_thresholds(text: str):
    try:
        return float(text)
    except ValueError:
        pass
    values = _parse_json_list(text, "--threshold")
    return tuple(float(v) for v in values)


def _cmd_simulate(args, argv, started) -> int:
    d = _parse_dist(args.dist)
    cfg = ContestConfig(n=args.n, q=args.q, V=args.V)

    if args.qe is not None:
        variant = mc_mod.WithExpert(args.qe, args.mode)
    elif args.v is not None:
        prizes = tuple(float(x) for x in _parse_json_list(args.v, "--v"))
        variant = mc_mod.RankPrizes(mp_mod.PrizeStructure(prizes))
    elif args.qvec is not None:
        q_values = tuple(float(x) for x in _parse_json_list(args.qvec, "--qvec"))
        variant = mc_mod.PerAgentFind(q_values)
    else:
        variant = mc_mod.Baseline()

    if args.threshold is not None:
        thresholds = _parse_thresholds(args.threshold)
    else:
        thresholds = solve_threshold(d, cfg).threshold

    sim = mc_mod.SimConfig(
        replications=args.reps, seed=args.seed, thresholds=thresholds, variant=variant
    )
    est = mc_mod.simulate(d, cfg, sim)
    payload = {
        "success_rate": est.success_rate,
        "success_se": est.success_se,
        "searcher_win_rate": est.searcher_win_rate,
        "searcher_win_se": est.searcher_win_se,
        "win_rate_per_agent": list(est.win_rate_per_agent),
        "win_rate_per_agent_se": list(est.win_rate_per_agent_se),
        "mean_payoff_at_threshold": est.mean_payoff_at_threshold,
        "mean_payoff_se": est.mean_payoff_se,
        "replications": est.replications,
    }
    if est.searcher_rank_rates is not None:
        payload["searcher_rank_rates"] = list(est.searcher_rank_rates)
        payload["searcher_rank_se"] = list(est.searcher_rank_se)
    if args.deviate_at is not None:
        gain = mc_mod.deviation_gain(d, cfg, sim, args.deviate_at)
        payload["deviation_gain"] = {
            "at_cost": args.deviate_at,
            "value": gain.value,
            "std_error": gain.std_error,
        }
    row = {
        k: payload[k]
        for k in (
            "success_rate",
            "success_se",
            "searcher_win_rate",
            "searcher_win_se",
            "mean_payoff_at_threshold",
            "mean_payoff_se",
            "replications",
        )
    }
    _emit(args, argv, _config_echo(args), payload, [row], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--out", help="output path (default stdout)")


def _add_dist(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dist",
        required=True,
        help='cost distribution JSON, e.g. {"kind":"uniform","a":0,"b":1}',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searchcontest",
        description="Solvers and simulators for binary-action search contests.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="baseline symmetric equilibrium")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="equilibrium along a parameter grid")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--param", choices=("n", "q", "V"), default="n")
    p.add_argument("--values", required=True, help="JSON array of sweep values")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tables", help="reference table and example reproductions")
    p.add_argument("--name", choices=TABLE_NAMES, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("principal", help="designer's optimal single prize")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--W", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_principal)

    p = sub.add_parser("prize-structure", help="optimal rank-prize structure")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--W", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_prize_structure)

    p = sub.add_parser("expert", help="equilibrium with a non-strategic expert")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--qe", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--mode", choices=exp_mod.MODES, default="shared")
    _add_common(p)
    p.set_defaults(func=_cmd_expert)

    p = sub.add_parser("hetero", help="per-agent ability equilibrium")
    _add_dist(p)
    p.add_argument("--qvec", required=True, help="JSON array of find probabilities")
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--W", type=float, help="also solve the designer problem")
    _add_common(p)
    p.set_defaults(func=_cmd_hetero)

    p = sub.add_parser("asymptotics", help="large-field limits and rate fits")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--W", type=float, help="also compute the limiting optimal prize")
    p.add_argument("--rate", choices=asym.RATE_QUANTITIES, help="fit a convergence rate")
    p.add_argument("--n-values", help="JSON array of field sizes for the rate fit")
    _add_common(p)
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check")
    _add_dist(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", help="cutoff (scalar or JSON array); default: solve")
    p.add_argument("--qe", type=float, help="expert variant")
    p.add_argument("--mode", choices=exp_mod.MODES, default="shared")
    p.add_argument("--v", help="JSON array of rank prizes")
    p.add_argument("--qvec", help="JSON array of per-agent find probabilities")
    p.add_argument("--deviate-at", type=float, help="also estimate the deviation gain")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args, argv, started)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
