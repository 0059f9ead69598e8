"""Command-line front end for the contest solvers.

Subcommands cover the baseline equilibrium, parameter sweeps, reference
table reproductions, the designer problems, the expert and rank-prize
extensions, heterogeneous abilities, large-field limits, and Monte Carlo
checks. Output is a JSON run record (full precision) or CSV rows (6
significant digits). Exit codes: 0 success, 1 reference mismatch, 2
validation error, 3 solver non-convergence. Each handler returns the
record's results and its CSV rows, None meaning ``[results]``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from ._errors import ConvergenceError, InputError
from .distributions import CostDistribution, distribution_from_spec
from .equilibrium import ContestConfig, solve_threshold
from . import asymptotics as asym
from . import expert as exp_mod
from . import hetero as het_mod
from . import montecarlo as mc_mod
from . import multiprize as mp_mod
from . import principal as pr_mod
from . import tables

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt_csv(v) for v in value)
    return str(value)


def _emit(args, argv, results, rows, started) -> None:
    if args.format == "csv":
        header = list(rows[0]) if rows else []
        lines = [header] + [[_fmt_csv(row[k]) for k in header] for row in rows]
        text = "".join(",".join(line) + "\n" for line in lines)
    else:
        record = {
            "command": ["searchcontest"] + list(argv),
            "config": _config_echo(args),
            "results": results,
            "version": __version__,
            "wall_time_s": time.perf_counter() - started,
        }
        text = json.dumps(record, indent=2, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(text: str, flag: str):
    try:
        return json.loads(text, parse_int=float)  # an int too large for a float reads as inf
    except json.JSONDecodeError as e:
        raise InputError(f"{flag} is not valid JSON: {e}") from None


def _parse_dist(text: str) -> CostDistribution:
    return distribution_from_spec(_json(text, "--dist"))


def _floats(text: str, flag: str) -> tuple[float, ...]:
    values = _json(text, flag)
    if not isinstance(values, list) or not values or not all(isinstance(v, float) for v in values):
        raise InputError(f"{flag} must be a nonempty JSON array of numbers")
    return tuple(values)


def _config_echo(args) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items())
            if v is not None and k not in ("func", "out", "format")}
    if "dist" in echo:
        echo["dist"] = json.loads(echo["dist"])  # valid: the handler parsed it
    return echo


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_solve(args):
    d = _parse_dist(args.dist)
    return asdict(solve_threshold(d, ContestConfig(n=args.n, q=args.q, V=args.V))), None


def _cmd_sweep(args):
    d = _parse_dist(args.dist)
    rows = []
    for v in _floats(args.values, "--values"):
        cfg = ContestConfig(**{"n": args.n, "q": args.q, "V": args.V, args.param: v})
        rows.append({args.param: v, **asdict(solve_threshold(d, cfg))})
    return {"sweep": rows}, rows


def _cmd_tables(args):
    rows, ok = tables.reproduce(args.name)
    return {"name": args.name, "rows": rows, "all_ok": ok}, rows


def _cmd_principal(args):
    d = _parse_dist(args.dist)
    sol = pr_mod.optimal_prize(d, args.q, args.n, args.W)
    window = list(pr_mod.stakes_window(d, args.q, args.n))
    return {**asdict(sol), "stakes_window": window}, None


def _cmd_prize_structure(args):
    d = _parse_dist(args.dist)
    n = int(args.n)
    if n != args.n:
        raise InputError("prize structures need an integer field size n")
    sol = mp_mod.optimal_prize_structure(d, args.q, n, args.W, args.V)
    return {
        "threshold": sol.threshold,
        "prizes": list(sol.structure.values),
        "mix_weight": sol.mix_weight,
        "regime": sol.regime,
        "value": sol.value,
        "stakes_window": list(sol.stakes_window),
        "certified": sol.certified,
    }, None


def _cmd_expert(args):
    d = _parse_dist(args.dist)
    res = exp_mod.solve_threshold_expert(d, args.q, args.qe, args.n, args.V, args.mode)
    total = exp_mod.success_probability_with_expert(d, args.q, args.qe, args.n, args.V, args.mode)
    try:
        crit = exp_mod.critical_expertise(d, args.q, args.n, args.V)
    except InputError:
        crit = None
    return {
        "threshold": res.threshold,
        "crowd_success_prob": res.success_prob,
        "total_success_prob": total,
        "win_prob": res.win_prob,
        "interior": res.interior,
        "critical_expertise": crit,
        "mode": args.mode,
    }, None


def _hetero_thresholds(contest: het_mod.HeteroContest) -> het_mod.ThresholdVector:
    tv = het_mod.solve_thresholds(contest)
    if not tv.converged:
        raise ConvergenceError("threshold sweep did not converge")
    return tv


def _cmd_hetero(args):
    d = _parse_dist(args.dist)
    q_vec = _floats(args.qvec, "--qvec")
    contest = het_mod.HeteroContest(q_vec, args.V, d)
    tv = _hetero_thresholds(contest)
    thresholds = contest.to_input_order(tv.thresholds)
    payload = {
        "thresholds": thresholds,
        "success_prob": het_mod.success_probability(contest, tv.thresholds),
        "sweeps": tv.sweeps,
        "converged": tv.converged,
    }
    if args.W is not None:
        sol = het_mod.solve_principal_hetero(contest, args.W)
        payload["principal"] = {
            "thresholds": contest.to_input_order(sol.thresholds),
            "prize": sol.prize,
            "implied_prize_spread": sol.spread,
        }
    rows = [{"agent": i, "q": q, "threshold": float(c)}
            for i, (q, c) in enumerate(zip(q_vec, thresholds))]
    return payload, rows


def _cmd_asymptotics(args):
    d = _parse_dist(args.dist)
    c_lo, _ = d.support()
    payload = {"support_floor": c_lo, **asdict(asym.limiting_behavior(c_lo, args.q, args.V))}
    if args.W is not None:
        payload["limit_optimal_prize"] = asym.limit_optimal_prize(c_lo, args.q, args.W)
    if args.rate is not None:
        n_values = (_floats(args.n_values, "--n-values") if args.n_values
                    else [1e2, 1e3, 1e4, 1e5, 1e6])
        payload["rate"] = asdict(asym.estimate_rate(d, args.q, args.V, n_values, args.rate))
    return payload, None


def _parse_thresholds(text: str):
    try:
        return float(text)
    except ValueError:
        return _floats(text, "--threshold")


def _equilibrium_thresholds(d, cfg, variant):
    """The cutoff, or per-agent cutoffs, of the variant's own equilibrium."""
    if isinstance(variant, mc_mod.WithExpert):
        return exp_mod.solve_threshold_expert(
            d, cfg.q, variant.q_e, cfg.n, cfg.V, variant.mode).threshold
    if isinstance(variant, mc_mod.RankPrizes):
        return mp_mod.solve_threshold_multi(
            d, cfg.q, variant.structure.n, variant.structure).threshold
    if isinstance(variant, mc_mod.PerAgentFind):
        contest = het_mod.HeteroContest(variant.q_values, cfg.V, d)
        return tuple(contest.to_input_order(_hetero_thresholds(contest).thresholds))
    return solve_threshold(d, cfg).threshold


def _cmd_simulate(args):
    d = _parse_dist(args.dist)
    cfg = ContestConfig(n=args.n, q=args.q, V=args.V)
    if args.qe is not None:
        variant = mc_mod.WithExpert(args.qe, args.mode)
    elif args.v is not None:
        variant = mc_mod.RankPrizes(mp_mod.PrizeStructure(_floats(args.v, "--v")))
    elif args.qvec is not None:
        variant = mc_mod.PerAgentFind(_floats(args.qvec, "--qvec"))
    else:
        variant = mc_mod.Baseline()
    if args.threshold is None:
        thresholds = _equilibrium_thresholds(d, cfg, variant)
    else:
        thresholds = _parse_thresholds(args.threshold)
    sim = mc_mod.SimConfig(args.reps, args.seed, thresholds, variant)
    payload = asdict(mc_mod.simulate(d, cfg, sim))
    del payload["rank_win_rates"]
    if payload["searcher_rank_rates"] is None:
        del payload["searcher_rank_rates"], payload["searcher_rank_se"]
    # The CSV row holds the scalar estimates.
    row = {k: v for k, v in payload.items() if isinstance(v, (int, float))}
    if args.deviate_at is not None:
        gain = mc_mod.deviation_gain(d, cfg, sim, args.deviate_at)
        payload["deviation_gain"] = {
            "at_cost": args.deviate_at, "value": gain.value, "std_error": gain.std_error}
    return payload, [row]


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="searchcontest",
        description="Solvers and simulators for binary-action search contests.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, help, *flags, dist=True):
        # Flags in order: a bare name is a required float, a (name, options) pair anything else.
        p = sub.add_parser(name, help=help)
        if dist:
            p.add_argument("--dist", required=True,
                           help='cost distribution JSON, e.g. {"kind":"uniform","a":0,"b":1}')
        for flag in flags:
            if isinstance(flag, str):
                p.add_argument(flag, type=float, required=True)
            else:
                p.add_argument(flag[0], **flag[1])
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", help="output path (default stdout)")
        p.set_defaults(func=func)

    mode = ("--mode", dict(choices=exp_mod.MODES, default="shared"))
    add("solve", _cmd_solve, "baseline symmetric equilibrium", "--q", "--V", "--n")
    add("sweep", _cmd_sweep, "equilibrium along a parameter grid", "--q", "--V", "--n",
        ("--param", dict(choices=("n", "q", "V"), default="n")),
        ("--values", dict(required=True, help="JSON array of sweep values")))
    add("tables", _cmd_tables, "reference table and example reproductions",
        ("--name", dict(choices=tables.TABLE_NAMES, required=True)), dist=False)
    add("principal", _cmd_principal, "designer's optimal single prize", "--q", "--n", "--W")
    add("prize-structure", _cmd_prize_structure, "optimal rank-prize structure",
        "--q", "--n", "--W", "--V")
    add("expert", _cmd_expert, "equilibrium with a non-strategic expert",
        "--q", "--qe", "--n", "--V", mode)
    add("hetero", _cmd_hetero, "per-agent ability equilibrium",
        ("--qvec", dict(required=True, help="JSON array of find probabilities")), "--V",
        ("--W", dict(type=float, help="also solve the designer problem")))
    add("asymptotics", _cmd_asymptotics, "large-field limits and rate fits", "--q", "--V",
        ("--W", dict(type=float, help="also compute the limiting optimal prize")),
        ("--rate", dict(choices=asym.RATE_QUANTITIES, help="fit a convergence rate")),
        ("--n-values", dict(help="JSON array of field sizes for the rate fit")))
    add("simulate", _cmd_simulate, "Monte Carlo cross-check", "--q", "--V", "--n",
        ("--reps", dict(type=int, required=True)),
        ("--seed", dict(type=int, default=0)),
        ("--threshold", dict(help="cutoff (scalar or JSON array); default: solve")),
        ("--qe", dict(type=float, help="expert variant")),
        mode,
        ("--v", dict(help="JSON array of rank prizes")),
        ("--qvec", dict(help="JSON array of per-agent find probabilities")),
        ("--deviate-at", dict(type=float, help="also estimate the deviation gain")))
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        results, rows = args.func(args)
    except (InputError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(e, InputError) else EXIT_NONCONVERGENCE
    _emit(args, argv, results, [results] if rows is None else rows, started)
    return EXIT_MISMATCH if results.get("all_ok") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
