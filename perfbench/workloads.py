"""The three workloads: their seeded inputs, their jobs and their checks.

A job is one user-level request: one CLI invocation, one designer problem
solved and verified, one contest solved, or one configuration simulated
with its deviation gain. `build` turns a workload name and a seed into a
fixed list of jobs; the library sees only the inputs drawn here. Every job
reaches the library through module attributes at call time, so the tracer
can rebind them.

Each job has a check that compares its output with `reference` (the
benchmark's own formulas) or with a property the method must have. No
check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

UNIFORM01 = {"kind": "uniform", "a": 0.0, "b": 1.0}
LARGE_FIELD = ({"kind": "uniform", "a": 0.25, "b": 1.25}, 0.5, 1.0)
LARGE_FIELD_N = (1e4, 1e5, 1e6, 1e7, 1e8)
# Absolute bisection tolerance makes n*F(c_n) drift off its 1/n approach to
# kappa from n = 1e7 on (see CHANGES.md); these solves fail every time.
LARGE_FIELD_KNOWN_FAULTS = (1e7, 1e8)
# Replications per Monte Carlo job, as in the reference figures of the README:
# three full 16384-row chunks and a partial one, so the loop over chunks runs
# and the n = 2000 rows build the chunk that sets the process's peak memory.
REPLICATIONS = 50_000
# Runs per round of each mc-exchangeable job with n <= 100. The six jobs at
# n = 1000 and 2000 take about 16 s, so a run holds one or two rounds; the
# small jobs, the median job among them, get their repeats within the round.
MC_SMALL_N = 100
MC_SMALL_REPEATS = 6


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[str]]  # returns failed-check messages
    known_fault: bool = False
    canon: Callable[[object], object] = field(default=lambda out: out)
    repeats: int = 1  # runs per round


@dataclass(frozen=True)
class Raised:
    """Output of a job whose call raised; its check always fails."""

    text: str


def call(job: Job, state: dict):
    try:
        return job.run(state)
    except Exception:  # a job that raises is a failed operation, not a crash
        return Raised(traceback.format_exc(limit=3))


def check(job: Job, output, round_outputs: dict) -> list[str]:
    if isinstance(output, Raised):
        return [f"{job.name} raised: {output.text.strip().splitlines()[-1]}"]
    try:
        return job.check(output, round_outputs)
    except Exception:
        return [f"{job.name}: check raised: {traceback.format_exc(limit=3)}"]


def build(workload: str, seed: int, sc) -> list[Job]:
    rng = np.random.default_rng(seed)
    by_name = {"closed-form": _closed_form, "mc-exchangeable": _mc_exchangeable,
               "per-agent": _per_agent}
    return by_name[workload](rng, seed, sc)


def schedule(jobs: list[Job]) -> list[int]:
    """Job indices in the order one round runs them.

    A round makes as many passes as the largest `repeats`. A job with
    `repeats` r runs in the first r passes; the jobs that run once are dealt
    out over the passes in turn, so a repeated job's runs are spread over
    the round. With no repeats this is the job list in order.
    """
    passes = max(job.repeats for job in jobs)
    once = [j for j, job in enumerate(jobs) if job.repeats == 1]
    order = []
    for k in range(passes):
        order += [j for j, job in enumerate(jobs)
                  if (job.repeats > k if job.repeats > 1 else j in once[k::passes])]
    return order


def _fail(ok: bool, msg: str) -> list[str]:
    return [] if ok else [msg]


# ---------------------------------------------------------------------------
# CLI jobs


def _cli_job(name: str, argv: list[str], sc, check) -> Job:
    def run(state):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sc.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def canon(output):
        code, text, err = output
        record = json.loads(text) if text else None
        if record is not None:
            record.pop("wall_time_s", None)
        return code, record, err

    def checked(output, round_outputs):
        code, record, err = canon(output)
        if record is None:
            return [f"exit {code}, no record: {err.strip()}"]
        return _fail(code == 0, f"exit code {code}") + check(record["results"])

    return Job(name, "cli", run, checked, canon=canon)


def _interior_residual(spec, q, n, V, c, label) -> list[str]:
    """c = V*phi(c) at interior cutoffs; clamps only where search never or always pays."""
    lo, hi = ref.support(spec)
    F = float(ref.cdf(spec, c))
    if lo < c < hi:
        resid = abs(c - V * float(ref.win_prob(F, q, n)))
        return _fail(resid <= 1e-9, f"{label}: |c - V phi(c)| = {resid:.3e}")
    if c == lo:
        return _fail(q * V <= lo, f"{label}: clamped at the floor with qV > c_lo")
    return _fail(V * float(ref.win_prob(1.0, q, n)) >= hi, f"{label}: clamped at the top")


def _row_checks(spec, q, V, rows, label) -> list[str]:
    errs = []
    for row in rows:
        n = float(row["n"])
        c = row["threshold"]
        errs += _interior_residual(spec, q, n, V, c, f"{label} n={n:g}")
        p = float(ref.success(ref.cdf(spec, c), q, n))
        errs += _fail(abs(row["success_prob"] - p) <= 1e-12, f"{label} n={n:g}: success")
    return errs


def _table_check(name):
    spec, q, V, published = ref.PUBLISHED_TABLES[name]

    def check(results):
        rows = results["rows"]
        errs = _fail([r["n"] for r in rows] == [p[0] for p in published], f"{name}: rows")
        for row, (n, c_ref, p_ref) in zip(rows, published):
            errs += _fail(abs(row["threshold"] - c_ref) <= ref.TABLE_TOL
                          and abs(row["success_prob"] - p_ref) <= ref.TABLE_TOL,
                          f"{name} n={n}: off the published quote")
        return errs + _row_checks(spec, q, V, rows, name)

    return check


def _example3_check(results):
    got = {r["quantity"]: r["computed"] for r in results["rows"]}
    return (_fail(abs(got["value_winner_takes_all"] - 8.0 / 9.0) <= 1e-12, "example3: 8/9")
            + _fail(abs(got["value_top_three_quarters"] - 24.0 / 25.0) <= 1e-12,
                    "example3: 24/25")
            + _fail(got["optimal_structure_value"] >= 24.0 / 25.0 - 1e-12,
                    "example3: optimal structure below 24/25"))


def _appendix_c_check(results):
    got = {r["quantity"]: r["computed"] for r in results["rows"]}
    return (_fail(abs(got.get("segment_left_endpoint", -1.0) - 3.0 / 7.0) <= 2e-4,
                  "appendixC: left end")
            + _fail(abs(got.get("segment_right_endpoint", -1.0) - 4.0 / 7.0) <= 2e-4,
                    "appendixC: right end")
            + _fail(got.get("symmetric_pair_included") == 1.0, "appendixC: symmetric pair"))


def _scan_check(scan, round_outputs):
    spec = ref.APPENDIX_C_SPEC
    pairs = np.asarray(scan.pairs)
    if pairs.shape[0] == 0:
        return ["n=2 scan: no pairs"]
    c1, c2 = pairs[:, 0], pairs[:, 1]

    def br(c):
        return np.clip(5.0 / 7.0 * (1.0 - 0.5 * ref.cdf(spec, c)), 0.0, 1.0)

    return (_fail(float(np.max(np.abs(c2 - (1.0 - c1)))) <= 1e-9, "n=2 scan: c2 != 1 - c1")
            + _fail(float(np.max(np.abs(br(c1) - c2))) <= 1e-12, "n=2 scan: c2 != BR(c1)")
            + _fail(float(np.max(np.abs(br(c2) - c1))) <= 1e-9, "n=2 scan: not a fixed pair")
            + _fail(abs(c1.min() - 3.0 / 7.0) <= 2e-4 and abs(c1.max() - 4.0 / 7.0) <= 2e-4,
                    "n=2 scan: segment is not [3/7, 4/7]"))


# ---------------------------------------------------------------------------
# Designer problems


def _draw_designer(rng, sc, n_lo=2, n_hi=13, max_width=math.inf):
    """One designer problem by the acceptance suite's rule (criterion 10).

    max_width caps the stakes window, whose top grows like 1/(1-q)^(n-1).
    """
    while True:
        if rng.random() < 0.5:
            a = float(rng.uniform(0.0, 0.5))
            spec = {"kind": "uniform", "a": a, "b": a + float(rng.uniform(0.5, 1.5))}
        else:
            spec = {"kind": "power", "alpha": float(rng.uniform(1.0, 6.0))}
        q = float(rng.uniform(0.2, 0.95))
        n = float(rng.integers(n_lo, n_hi))
        d = sc.distributions.distribution_from_spec(spec)
        lo, hi = sc.principal.stakes_window(d, q, n)
        if not np.isfinite(hi):
            hi = lo + 20.0
        hi = min(hi, lo + max_width)
        if hi <= lo:
            continue
        W = lo + float(rng.uniform(0.05, 0.95)) * (hi - lo)
        return spec, d, q, n, W


def _implied_prize(spec, q, n, c):
    return c / float(ref.win_prob(ref.cdf(spec, c), q, n))


def _designer_checks(spec, q, n, W, c, prize, label) -> list[str]:
    lo, hi = ref.support(spec)
    grid = np.linspace(lo, hi, 200001)
    best = float(np.max(ref.objective(spec, q, n, W, grid)))
    at_c = float(ref.objective(spec, q, n, W, c))
    allowance = 1e-11 * (abs(best) + 1.0)
    c_own = ref.designer_cutoff(spec, q, n, W)
    return (_fail(at_c >= best - allowance, f"{label}: objective {at_c!r} below grid max {best!r}")
            + _fail(abs(c - c_own) <= 1e-9, f"{label}: cutoff {c!r} vs first-order root {c_own!r}")
            + _fail(abs(prize - _implied_prize(spec, q, n, c)) <= 1e-9 * max(prize, 1.0),
                    f"{label}: prize is not c/phi(c)"))


def _designer_job(i, rng, sc) -> Job:
    spec, d, q, n, W = _draw_designer(rng, sc)

    def run(state):
        sol = sc.principal.optimal_prize(d, q, n, W)
        grid = sc.principal.verify_against_grid(d, q, n, W)
        return sol, grid

    def check(output, round_outputs):
        sol, grid = output
        label = f"designer {i}"
        errs = _fail(sol.certified and sol.regime == "interior", f"{label}: {sol.regime}")
        errs += _fail(grid.ok, f"{label}: grid check failed")
        errs += _designer_checks(spec, q, n, W, sol.threshold, sol.prize, label)
        replay = sc.equilibrium.solve_threshold(
            d, sc.equilibrium.ContestConfig(n=n, q=q, V=sol.prize))
        errs += _fail(abs(replay.threshold - sol.threshold) <= 1e-8,
                      f"{label}: re-solve at the implied prize moved the cutoff")
        return errs

    return Job(f"designer-{i}", "designer", run, check)


def _cli_designer_job(rng, sc) -> Job:
    spec, _, q, n, W = _draw_designer(rng, sc)
    argv = ["principal", "--dist", json.dumps(spec), "--q", repr(q), "--n", repr(n),
            "--W", repr(W)]

    def check(res):
        return (_fail(res["regime"] == "interior" and res["certified"], "principal: regime")
                + _designer_checks(spec, q, n, W, res["threshold"], res["prize"], "principal")
                + _fail(abs(res["objective_value"]
                            - float(ref.objective(spec, q, n, W, res["threshold"]))) <= 1e-10,
                        "principal: objective value"))

    return _cli_job("cli-principal", argv, sc, check)


# ---------------------------------------------------------------------------
# Prize structures


def _mix_values(spec, q, n, V, W, lam):
    """Cutoff and designer value of each WTA/equal-split mix weight, by binomial sums."""
    lo, hi = ref.support(spec)
    lam = np.asarray(lam, dtype=float)

    def gap(c):
        # c minus the per-searcher expected prize lam*V*q*E[1/(T+1)] + (1-lam)*V*q/n.
        wta = V * q * ref.mean_inverse(n - 1, q * ref.cdf(spec, c))
        return c - (lam * wta + (1.0 - lam) * V * q / n)

    lo_arr, hi_arr = np.full(lam.shape, lo), np.full(lam.shape, hi)
    a, b = lo_arr, hi_arr
    for _ in range(64):
        mid = 0.5 * (a + b)
        below = gap(mid) <= 0.0
        a, b = np.where(below, mid, a), np.where(below, b, mid)
    c = np.where(gap(lo_arr) >= 0.0, lo, np.where(gap(hi_arr) <= 0.0, hi, 0.5 * (a + b)))
    pmf = ref.binom_pmf(n, q * ref.cdf(spec, c))
    p_found = 1.0 - pmf[:, 0]
    finders = pmf @ np.arange(n + 1)
    payout = lam * V * p_found + (1.0 - lam) * V / n * finders
    return c, W * p_found - payout


def _structure_job(i, rng, sc) -> Job:
    """Problem i has n in [2 + 8i, 10 + 8i); i mod 3 picks a purse below, inside or
    above the range where a WTA/equal-split mix is optimal, so every seed gets the
    same spread of sizes and regimes."""
    spec, _, q, n_f, W = _draw_designer(rng, sc, 2 + 8 * i, 10 + 8 * i, max_width=20.0)
    n = int(n_f)
    c_opt = ref.designer_cutoff(spec, q, n, W)
    prize = _implied_prize(spec, q, n, c_opt)
    split_prize = n * c_opt / q  # purse at which the equal split reaches c_opt
    if i % 3 == 0:
        V = prize * float(rng.uniform(0.6, 0.95))
    elif i % 3 == 1:
        V = prize + float(rng.uniform(0.1, 0.9)) * (split_prize - prize)
    else:
        V = split_prize * float(rng.uniform(1.05, 1.5))
    argv = ["prize-structure", "--dist", json.dumps(spec), "--q", repr(q), "--n", str(n),
            "--W", repr(W), "--V", repr(V)]

    def check(res):
        _, scan = _mix_values(spec, q, n, V, W, np.linspace(0.0, 1.0, 1001))
        c_own, v_own = _mix_values(spec, q, n, V, W, [res["mix_weight"]])
        label = f"prize-structure {i}"
        tol = 1e-9 * max(1.0, abs(res["value"]))
        return (_fail(res["value"] >= float(scan.max()) - tol,
                      f"{label}: value {res['value']!r} below mix scan {float(scan.max())!r}")
                + _fail(abs(res["value"] - float(v_own[0])) <= tol, f"{label}: value at weight")
                + _fail(abs(res["threshold"] - float(c_own[0])) <= 1e-9,
                        f"{label}: cutoff at weight"))

    return _cli_job(f"cli-prize-structure-{i}", argv, sc, check)


# ---------------------------------------------------------------------------
# closed-form


def _closed_form(rng, seed, sc) -> list[Job]:
    jobs = []
    for name in ("table1a", "table1b", "table2a", "table2b"):
        jobs.append(_cli_job(f"cli-tables-{name}", ["tables", "--name", name], sc,
                             _table_check(name)))
    jobs.append(_cli_job("cli-tables-example3", ["tables", "--name", "example3"], sc,
                         _example3_check))
    jobs.append(_cli_job("cli-tables-appendixC", ["tables", "--name", "appendixC"], sc,
                         _appendix_c_check))

    # sweep over n
    if rng.random() < 0.5:
        spec = UNIFORM01
    else:
        spec = {"kind": "power", "alpha": float(rng.uniform(1.0, 6.0))}
    q, V = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.5, 2.0))
    strata = np.linspace(math.log(2), math.log(1000), 9)
    n_values = sorted({int(v) for v in np.exp(rng.uniform(strata[:-1], strata[1:]))})
    jobs.append(_cli_job(
        "cli-sweep",
        ["sweep", "--dist", json.dumps(spec), "--q", repr(q), "--V", repr(V), "--n", "2",
         "--param", "n", "--values", json.dumps(n_values)],
        sc, lambda res, spec=spec, q=q, V=V: _row_checks(spec, q, V, res["sweep"], "sweep")))

    # expert in both modes
    q, qe = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.1, 0.9))
    n, V = int(rng.integers(2, 51)), float(rng.uniform(0.5, 1.5))
    for mode in ("shared", "expert_keeps"):
        jobs.append(_cli_job(
            f"cli-expert-{mode}",
            ["expert", "--dist", json.dumps(UNIFORM01), "--q", repr(q), "--qe", repr(qe),
             "--n", str(n), "--V", repr(V), "--mode", mode],
            sc, _expert_cli_check(q, qe, n, V, mode)))

    jobs.append(_cli_designer_job(rng, sc))

    # convergence-rate fits: c_n - c_lo falls as n^-1/2 with a zero floor, n^-1 above one
    for spec, slope, tol in ((UNIFORM01, -0.5, 0.03), (LARGE_FIELD[0], -1.0, 0.05)):
        jobs.append(_cli_job(
            f"cli-asymptotics-a{spec['a']}",
            ["asymptotics", "--dist", json.dumps(spec), "--q", "0.5", "--V", "1",
             "--rate", "gap"],
            sc, _asymptotics_check(spec, slope, tol)))

    for i in range(20):
        jobs.append(_designer_job(i, rng, sc))
    for i in range(6):
        jobs.append(_structure_job(i, rng, sc))
    jobs.extend(_large_field_jobs(sc))

    alpha = float(rng.uniform(1.0, 6.0))
    a = float(rng.uniform(0.0, 0.5))
    b = a + float(rng.uniform(0.5, 1.5))
    for label, spec, exact in (("power", {"kind": "power", "alpha": alpha}, 1.0 / (alpha + 1.0)),
                               ("uniform", {"kind": "uniform", "a": a, "b": b},
                                1.0 / (b / (b - a) + 1.0))):
        d = sc.distributions.distribution_from_spec(spec)
        jobs.append(Job(
            f"q-bound-{label}", "q-bound",
            lambda state, d=d: sc.equilibrium.q_bound_monotone_success(d),
            lambda out, ro, exact=exact, label=label: _fail(
                abs(out - exact) <= 1e-12 * exact, f"q bound {label}: {out!r} vs {exact!r}")))

    d_c = sc.distributions.distribution_from_spec(ref.APPENDIX_C_SPEC)
    jobs.append(Job("n2-scan", "n2-scan",
                    lambda state: sc.hetero.best_response_scan_n2(d_c, 1.0, 5.0 / 7.0, 10001),
                    _scan_check))
    return jobs


def _expert_win(q, qe, n, F, mode):
    """Crowd searcher's win chance with the expert: q E[1/(T+1+X)] (shared)."""
    if mode == "shared":
        return q * ref.mean_inverse(n - 1, q * F, qe)
    return (1.0 - qe) * q * ref.mean_inverse(n - 1, q * F)


def _expert_cli_check(q, qe, n, V, mode):
    def check(res):
        c = res["threshold"]
        F = float(ref.cdf(UNIFORM01, c))
        label = f"expert {mode}"
        errs = _fail(res["interior"], f"{label}: not interior")
        errs += _fail(abs(c - V * _expert_win(q, qe, n, F, mode)) <= 1e-9, f"{label}: residual")
        total = (1.0 - qe) * float(ref.success(F, q, n)) + qe
        errs += _fail(abs(res["total_success_prob"] - total) <= 1e-12, f"{label}: total success")
        c_next = ref.baseline_cutoff(UNIFORM01, q, n + 1, V)
        crit = q * float(ref.cdf(UNIFORM01, c_next))
        errs += _fail(res["critical_expertise"] is not None
                      and abs(res["critical_expertise"] - crit) <= 1e-9,
                      f"{label}: critical expertise")
        return errs

    return check


def _asymptotics_check(spec, slope, tol):
    def check(res):
        fit = res["rate"]
        c_lo = float(spec["a"])
        errs = _fail(abs(fit["slope"] - slope) <= tol and fit["r_squared"] >= 0.999,
                     f"rate fit a={c_lo}: slope {fit['slope']!r}")
        if c_lo > 0.0:
            k = ref.kappa(c_lo, 0.5, 1.0)
            errs += _fail(abs(res["expected_searchers"] - k) <= 1e-9, "kappa vs Lambert W")
            errs += _fail(abs(res["success_prob"] + math.expm1(-0.5 * k)) <= 1e-12,
                          "limit success")
        else:
            errs += _fail(res["expected_searchers"] == math.inf and res["success_prob"] == 1.0,
                          "zero floor limits")
        return errs

    return check


def _large_field_jobs(sc) -> list[Job]:
    """kappa - n F(c_n) is positive and falls tenfold per decade of n."""
    spec, q, V = LARGE_FIELD
    d = sc.distributions.distribution_from_spec(spec)
    k = ref.kappa(spec["a"], q, V)
    jobs = []
    for n in LARGE_FIELD_N:
        def check(res, round_outputs, n=n):
            gap = k - res.expected_searchers
            errs = _fail(res.interior and gap > 0.0, f"large field n={n:g}: gap {gap:.3e}")
            if n > LARGE_FIELD_N[0]:
                prev = round_outputs[f"large-field-{n / 10:g}"]
                ratio = 10.0 * gap / (k - prev.expected_searchers)
                errs += _fail(abs(ratio - 1.0) <= 0.03,
                              f"large field n={n:g}: gap ratio per decade {ratio / 10.0:.4f}")
            return errs

        jobs.append(Job(
            f"large-field-{n:g}", "large-field",
            lambda state, n=n: sc.equilibrium.solve_threshold(
                d, sc.equilibrium.ContestConfig(n=n, q=q, V=V)),
            check, known_fault=n in LARGE_FIELD_KNOWN_FAULTS))
    return jobs


# ---------------------------------------------------------------------------
# Monte Carlo checks


def _blocks(n: int) -> list[np.ndarray]:
    return [b for b in np.array_split(np.arange(n), min(n, 10)) if b.size]


def _agent_block_checks(win_rates, expected, N, label) -> list[str]:
    """Per-agent win rates, summed over blocks of agents (one winner per rep)."""
    errs = []
    for block in _blocks(len(win_rates)):
        got = float(np.sum(np.asarray(win_rates)[block]))
        want = float(np.sum(np.asarray(expected)[block]))
        errs += _fail(ref.proportion_ok(got, want, N),
                      f"{label}: agents {block[0]}-{block[-1]} win {got:.5f} vs {want:.5f}")
    return errs


def _gain_check(gain, mean_prize, mean_sq, spread, N, label) -> list[str]:
    var = max(mean_sq - mean_prize**2, 0.0)
    half = ref.bernstein_halfwidth(N, var, spread)
    return _fail(abs(gain.value) <= half,
                 f"{label}: deviation gain {gain.value:.5f} outside +-{half:.5f}")


def _mc_job(i, kind, spec, q, V, n, variant_args, sim_seed, sc) -> Job:
    d = sc.distributions.distribution_from_spec(spec)
    cfg = sc.equilibrium.ContestConfig(n=float(n), q=q, V=V)
    mc = sc.montecarlo

    def run(state):
        if kind == "baseline":
            res = sc.equilibrium.solve_threshold(d, cfg)
            variant = mc.Baseline()
        elif kind == "expert":
            qe, mode = variant_args
            res = sc.expert.solve_threshold_expert(d, q, qe, float(n), V, mode)
            variant = mc.WithExpert(qe, mode)
        else:
            structure = sc.multiprize.PrizeStructure(variant_args)
            res = sc.multiprize.solve_threshold_multi(d, q, n, structure)
            variant = mc.RankPrizes(structure)
        sim = mc.SimConfig(replications=REPLICATIONS, seed=sim_seed, thresholds=res.threshold,
                           variant=variant)
        est = mc.simulate(d, cfg, sim)
        gain = mc.deviation_gain(d, cfg, sim, res.threshold)
        return res.threshold, est, gain

    def check(output, round_outputs):
        c, est, gain = output
        label = f"{kind} n={n} job {i}"
        lo, hi = ref.support(spec)
        F = float(ref.cdf(spec, c))
        pmf_rival = ref.binom_pmf(n - 1, q * F)
        t = np.arange(n, dtype=float)
        s = np.arange(n + 1, dtype=float)
        miss = (1.0 - q) ** s  # P(no finder | s searchers)
        errs = _fail(lo < c < hi, f"{label}: cutoff not interior")
        if kind == "baseline":
            share = q * float(pmf_rival @ (1.0 / (t + 1.0)))
            p_success = float(ref.success(F, q, n))
            g = 1.0 - miss
            mean_prize, mean_sq, spread = V * share, V * V * share, V
            crowd_win = p_success
        elif kind == "expert":
            qe, mode = variant_args
            share = _expert_win(q, qe, n, F, mode)
            p_success = 1.0 - (1.0 - qe) * (1.0 - float(ref.success(F, q, n)))
            if mode == "shared":
                with np.errstate(divide="ignore", invalid="ignore"):
                    wins_vs_expert = 1.0 - (1.0 - (1.0 - q) ** (s + 1.0)) / ((s + 1.0) * q)
                g = (1.0 - qe) * (1.0 - miss) + qe * wins_vs_expert
            else:
                g = (1.0 - qe) * (1.0 - miss)
            mean_prize, mean_sq, spread = V * share, V * V * share, V
            crowd_win = n * F * share
        else:
            v = np.asarray(variant_args, dtype=float)
            top_mean = np.cumsum(v) / np.arange(1, n + 1)
            top_sq = np.cumsum(v * v) / np.arange(1, n + 1)
            p_success = float(ref.success(F, q, n))
            mean_prize, mean_sq, spread = (q * float(pmf_rival @ top_mean),
                                           q * float(pmf_rival @ top_sq), float(v.max()))
            crowd_win = p_success
        N = est.replications
        errs += _fail(abs(c - mean_prize) <= 1e-9 * max(V, 1.0), f"{label}: c != expected prize")
        errs += _fail(ref.proportion_ok(est.success_rate, p_success, N),
                      f"{label}: success {est.success_rate:.5f} vs {p_success:.5f}")
        errs += _agent_block_checks(est.win_rate_per_agent, np.full(n, crowd_win / n), N, label)
        if kind == "rank":
            # Searchers that find all get a rank: sum(finders)/sum(searchers) -> q.
            errs += _fail(ref.ratio_ok(est.searcher_win_rate, n, F, q * s,
                                       s * q * (1.0 - q) + (q * s) ** 2, N, q),
                          f"{label}: finders per searcher {est.searcher_win_rate:.5f}")
            pmf_all = ref.binom_pmf(n, q * F)
            for r in range(1, min(n, 3) + 1):
                g_r = np.array([float(ref.binom_pmf(int(k), q)[r:].sum()) for k in s])
                target = float(pmf_all[r:].sum()) / (n * F)
                errs += _fail(ref.ratio_ok(est.searcher_rank_rates[r - 1], n, F, g_r, g_r, N,
                                           target),
                              f"{label}: rank {r} rate {est.searcher_rank_rates[r - 1]:.5f}"
                              f" vs {target:.5f}")
        else:
            errs += _fail(ref.ratio_ok(est.searcher_win_rate, n, F, g, g, N, share),
                          f"{label}: searcher win {est.searcher_win_rate:.5f} vs {share:.5f}")
        errs += _gain_check(gain, mean_prize, mean_sq, spread, N, label)
        return errs

    return Job(f"mc-{kind}-{i}", f"mc-{kind}", run, check,
               repeats=MC_SMALL_REPEATS if n <= MC_SMALL_N else 1)


def _mc_exchangeable(rng, seed, sc) -> list[Job]:
    jobs = []
    for name, (spec, q, V, rows) in ref.PUBLISHED_TABLES.items():
        for n, _, _ in rows:
            jobs.append(_mc_job(len(jobs), "baseline", spec, q, V, n, None,
                                seed * 1009 + len(jobs), sc))
    for n in (10, 100, 1000):
        for mode in ("shared", "expert_keeps"):
            qe = float(rng.uniform(0.2, 0.8))
            jobs.append(_mc_job(len(jobs), "expert", UNIFORM01, 0.5, 1.0, n, (qe, mode),
                                seed * 1009 + len(jobs), sc))
    for n in (10, 50, 100):
        weight = float(rng.uniform(0.2, 0.8))
        base = (1.0 - weight) / n
        for prizes in ((1.0,) + (0.0,) * (n - 1), (1.0 / n,) * n,
                       (base + weight,) + (base,) * (n - 1)):
            jobs.append(_mc_job(len(jobs), "rank", UNIFORM01, 0.5, 1.0, n, prizes,
                                seed * 1009 + len(jobs), sc))
    return jobs


# ---------------------------------------------------------------------------
# per-agent


def _shares(q, c):
    """q_i E[1/(T_i+1)] for every agent, each by quadrature over its rivals."""
    pi = np.asarray(q) * ref.cdf(UNIFORM01, c)
    return np.array([q[i] * ref.tiebreak_share(np.delete(pi, i)) for i in range(len(q))])


def _gs_job(n, q_input, sc) -> Job:
    contest = sc.hetero.HeteroContest(tuple(q_input), 1.0,
                                      sc.distributions.distribution_from_spec(UNIFORM01))

    def run(state):
        tv = sc.hetero.solve_thresholds(contest)
        p = sc.hetero.success_probability(contest, tv.thresholds)
        state[f"gs-{n}"] = (contest, tv)
        return tv, p

    def check(output, round_outputs):
        tv, p = output
        q = np.asarray(contest.q_values)
        c = np.asarray(tv.thresholds)
        psi = _shares(q, c)
        F = ref.cdf(UNIFORM01, c)
        label = f"solve_thresholds n={n}"
        return (_fail(tv.converged, f"{label}: not converged")
                + _fail(float(np.max(np.abs(c - psi))) <= 1e-9,
                        f"{label}: c_i != V q_i E[1/(T_i+1)]")
                + _fail(abs(float(np.sum(F * psi)) - p) <= 1e-10, f"{label}: sum F_i psi_i != P")
                + _fail(abs(p + math.expm1(float(np.sum(np.log1p(-q * F))))) <= 1e-12,
                        f"{label}: success probability"))

    return Job(f"gs-{n}", "solve_thresholds", run, check)


def _principal_job(n, q_input, W, sc) -> Job:
    contest = sc.hetero.HeteroContest(tuple(q_input), 1.0,
                                      sc.distributions.distribution_from_spec(UNIFORM01))

    def check(tv, round_outputs):
        q = np.asarray(contest.q_values)
        c = np.asarray(tv.thresholds)
        log_miss = np.log1p(-q * c)
        rhs = W * q * np.exp(np.sum(log_miss) - log_miss)
        resid = float(np.max(np.abs(2.0 * c - rhs)))  # c + F/f = 2c on U[0, 1]
        return (_fail(tv.converged, f"designer system n={n}: not converged")
                + _fail(resid <= 1e-9, f"designer system n={n}: FOC residual {resid:.3e}"))

    return Job(f"principal-{n}", "solve_principal_thresholds",
               lambda state: sc.hetero.solve_principal_thresholds(contest, W), check)


def _principal_hetero_job(n, q_input, W, sc, equal: bool) -> Job:
    contest = sc.hetero.HeteroContest(tuple(q_input), 1.0,
                                      sc.distributions.distribution_from_spec(UNIFORM01))

    def run(state):
        try:
            return sc.hetero.solve_principal_hetero(contest, W)
        except sc.ConvergenceError as exc:
            return str(exc)

    def check(out, round_outputs):
        label = f"solve_principal_hetero n={n}"
        if not equal:
            return _fail(isinstance(out, str) and "implied prizes disagree" in out,
                         f"{label}: unequal q accepted")
        if isinstance(out, str):
            return [f"{label}: {out}"]
        q0 = float(q_input[0])
        c_own = ref.designer_cutoff(UNIFORM01, q0, n, W)
        prize = _implied_prize(UNIFORM01, q0, n, c_own)
        return (_fail(float(np.max(np.abs(out.thresholds - c_own))) <= 1e-9,
                      f"{label}: cutoffs off the baseline designer root")
                + _fail(abs(out.prize - prize) <= 1e-8 * prize, f"{label}: prize")
                + _fail(out.spread <= 1e-8, f"{label}: implied prizes spread"))

    tag = "equal" if equal else "unequal"
    return Job(f"principal-hetero-{tag}-{n}", "solve_principal_hetero", run, check)


def _peragent_mc_job(n, sim_seed, sc) -> Job:
    mc = sc.montecarlo

    def run(state):
        contest, tv = state[f"gs-{n}"]
        c = tuple(float(x) for x in tv.thresholds)
        cfg = sc.equilibrium.ContestConfig(n=float(n), q=float(np.mean(contest.q_values)), V=1.0)
        sim = mc.SimConfig(replications=REPLICATIONS, seed=sim_seed, thresholds=c,
                           variant=mc.PerAgentFind(tuple(contest.q_values)))
        est = mc.simulate(contest.dist, cfg, sim)
        gain = mc.deviation_gain(contest.dist, cfg, sim, c[0])
        return np.asarray(contest.q_values), np.asarray(c), est, gain

    def check(output, round_outputs):
        q, c, est, gain = output
        label = f"PerAgentFind n={n}"
        F = ref.cdf(UNIFORM01, c)
        psi = _shares(q, c)  # q_i E[1/(T_i+1)]
        N = est.replications
        p_success = -math.expm1(float(np.sum(np.log1p(-q * F))))
        return (_fail(ref.proportion_ok(est.success_rate, p_success, N), f"{label}: success")
                + _agent_block_checks(est.win_rate_per_agent, F * psi, N, label)
                + _gain_check(gain, psi[0], psi[0], 1.0, N, label))

    return Job(f"mc-peragent-{n}", "mc-peragent", run, check)


def _per_agent(rng, seed, sc) -> list[Job]:
    # Stratified draws from U[0.2, 0.9], in random order: the Gauss-Seidel work
    # depends on the spread of q, which then varies little from seed to seed.
    q = {n: rng.permutation(0.2 + 0.7 * (np.arange(n) + rng.random(n)) / n)
         for n in (10, 50, 200)}
    q_equal = float(rng.uniform(0.45, 0.55))
    W = 2.0
    return [
        _gs_job(10, q[10], sc),
        _gs_job(50, q[50], sc),
        _gs_job(200, q[200], sc),
        _principal_job(10, q[10], W, sc),
        _principal_job(50, q[50], W, sc),
        _principal_hetero_job(10, [q_equal] * 10, W, sc, equal=True),
        _principal_hetero_job(50, [q_equal] * 50, W, sc, equal=True),
        _principal_hetero_job(10, q[10], W, sc, equal=False),
        _peragent_mc_job(50, seed * 1009 + 50, sc),
        _peragent_mc_job(200, seed * 1009 + 200, sc),
    ]
