"""Spans and counters around calls into the library's modules.

`Tracer.install` wraps every public function of every `searchcontest`
module in a timing wrapper and rebinds it in each module namespace that
holds it (several modules import `solve_threshold` by name, for example).
Calls that are too small to time without the wrapper swamping them are
counted instead: the distribution methods `cdf`/`pdf`/`reverse_hazard` and
the scalar kernels of `_numerics`. The function passed into a bisection is
wrapped to count its evaluations. `uninstall` restores every binding.

Spans are kept in flat arrays (name id, start, end, parent) while the run
lasts and written out once at the end. A span's self time is its duration
minus the time covered by its child spans; calls run one at a time, so the
children of a span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "_numerics", "distributions", "equilibrium", "principal", "multiprize",
    "expert", "asymptotics", "hetero", "montecarlo", "cli",
)
COUNTED_KERNELS = ("compl_pow", "prob_any", "win_rate", "win_rate_deficit")
COUNTED_METHODS = ("cdf", "pdf", "reverse_hazard")
BISECTIONS = ("bisect_root", "bisect_root_decreasing")


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function)
        self._ids: dict[tuple[str, str], int] = {}
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.meta: dict[int, tuple] = {}
        self.counts = {name: [0] for name in (
            "distributions.scalar_calls", "numerics.kernel_calls",
            "numerics.root_solves", "numerics.root_evals")}
        self.bisect_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    # -- recording --------------------------------------------------------

    def _timed(self, nid: int, fn, meta_fn):
        sid, parent, start, end, stack = self.sid, self.parent, self.start, self.end, self.stack
        meta = self.meta
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(sid)
            sid.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if meta_fn is not None:
                meta[idx] = meta_fn(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _bisection(self, nid: int, fn):
        timed = self._timed(nid, fn, None)
        solves = self.counts["numerics.root_solves"]
        evals = self.counts["numerics.root_evals"]

        def wrapper(f, *args, **kwargs):
            if self.bisect_depth:
                return timed(f, *args, **kwargs)

            def counted(x):
                evals[0] += 1
                return f(x)

            solves[0] += 1
            self.bisect_depth += 1
            try:
                return timed(counted, *args, **kwargs)
            finally:
                self.bisect_depth -= 1

        return functools.wraps(fn)(wrapper)

    @staticmethod
    def _counted(cell, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[f"searchcontest.{name}"] for name in LAYERS}
        replacement: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                nid = self.name_id(layer.lstrip("_"), name)
                if layer == "_numerics" and name in COUNTED_KERNELS:
                    wrapped = self._counted(self.counts["numerics.kernel_calls"], obj)
                elif layer == "_numerics" and name in BISECTIONS:
                    wrapped = self._bisection(nid, obj)
                else:
                    wrapped = self._timed(nid, obj, META_FNS.get(name))
                replacement[id(obj)] = wrapped
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "searchcontest" or n.startswith("searchcontest.")) and m is not None]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replacement and inspect.isfunction(obj):
                    self._patch(ns, name, replacement[id(obj)])
        dist = modules["distributions"]
        cell = self.counts["distributions.scalar_calls"]
        for obj in list(vars(dist).values()):
            if inspect.isclass(obj) and issubclass(obj, dist.CostDistribution):
                for meth in COUNTED_METHODS:
                    if meth in vars(obj):
                        self._patch(obj, meth, self._counted(cell, vars(obj)[meth]))

    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        sid = np.array(self.sid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        child = np.zeros(len(sid))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"sid": sid, "parent": parent, "start": start, "end": end,
                "duration": dur, "self": dur - child}

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            layer=np.array([layer for layer, _ in self.names]),
            function=np.array([fn for _, fn in self.names]),
            name_id=a["sid"], parent=a["parent"], start=a["start"], end=a["end"],
        )


# ---------------------------------------------------------------------------
# Per-layer metrics

EXCHANGEABLE = ("Baseline", "WithExpert", "RankPrizes")


def _sim_meta(args, result):
    _, cfg, sim = args[:3]
    return int(cfg.n), int(sim.replications), type(sim.variant).__name__


def _sweeps_meta(args, result):
    return args[0].n, result.sweeps


META_FNS = {
    "simulate": _sim_meta,
    "deviation_gain": _sim_meta,
    "solve_thresholds": _sweeps_meta,
    "solve_principal_thresholds": _sweeps_meta,
}


def summarize(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round; medians are per call.

    A metric of a function the workload never calls reads 0.
    """
    a = tracer.arrays()
    keys = np.array([f"{layer}.{fn}" for layer, fn in tracer.names] or [""])
    span_key = keys[a["sid"]] if a["sid"].size else np.array([], dtype=str)
    span_layer = np.array([k.split(".")[0] for k in span_key])

    def spans(key):
        return np.flatnonzero(span_key == key)

    def median(key, scale):
        idx = spans(key)
        return float(np.median(a["duration"][idx])) * scale if idx.size else 0.0

    def per_round(key):
        return spans(key).size / rounds

    def self_s(layer):
        return float(a["self"][span_layer == layer].sum()) / rounds if span_layer.size else 0.0

    def meta(key):
        return [(i, tracer.meta[i]) for i in spans(key) if i in tracer.meta]

    def gs_median(n):
        d = [a["duration"][i] for i, m in meta("hetero.solve_thresholds") if m[0] == n]
        return float(np.median(d)) * 1e3 if d else 0.0

    def ns_per_agent_rep(kinds):
        work = time_s = 0.0
        for key in ("montecarlo.simulate", "montecarlo.deviation_gain"):
            for i, (n, reps, kind) in meta(key):
                if kind in kinds:
                    work += n * reps
                    time_s += a["duration"][i]
        return time_s / work * 1e9 if work else 0.0

    sweeps = sum(m[1] for key in ("hetero.solve_thresholds", "hetero.solve_principal_thresholds")
                 for _, m in meta(key)) / rounds
    counts = {k: v[0] / rounds for k, v in tracer.counts.items()}
    return {
        "numerics.root_solves": (counts["numerics.root_solves"], "count"),
        "numerics.root_evals": (counts["numerics.root_evals"], "count"),
        "numerics.kernel_calls": (counts["numerics.kernel_calls"], "count"),
        "numerics.self_s": (self_s("numerics"), "s"),
        "distributions.scalar_calls": (counts["distributions.scalar_calls"], "count"),
        "distributions.rh_check_ms": (
            median("distributions.check_reverse_hazard_monotone", 1e3), "ms"),
        "distributions.self_s": (self_s("distributions"), "s"),
        "equilibrium.solve_calls": (per_round("equilibrium.solve_threshold"), "count"),
        "equilibrium.solve_us": (median("equilibrium.solve_threshold", 1e6), "us"),
        "equilibrium.q_bound_ms": (median("equilibrium.q_bound_monotone_success", 1e3), "ms"),
        "equilibrium.self_s": (self_s("equilibrium"), "s"),
        "principal.optimal_prize_ms": (median("principal.optimal_prize", 1e3), "ms"),
        "principal.verify_grid_ms": (median("principal.verify_against_grid", 1e3), "ms"),
        "principal.self_s": (self_s("principal"), "s"),
        "multiprize.structure_ms": (median("multiprize.optimal_prize_structure", 1e3), "ms"),
        "multiprize.roots_ms": (median("multiprize.equilibrium_roots_multi", 1e3), "ms"),
        "multiprize.prize_map_calls": (per_round("multiprize.expected_prize_per_searcher"),
                                       "count"),
        "multiprize.self_s": (self_s("multiprize"), "s"),
        "expert.solve_us": (median("expert.solve_threshold_expert", 1e6), "us"),
        "expert.self_s": (self_s("expert"), "s"),
        "asymptotics.rate_fit_ms": (median("asymptotics.estimate_rate", 1e3), "ms"),
        "asymptotics.self_s": (self_s("asymptotics"), "s"),
        "hetero.gs_n10_ms": (gs_median(10), "ms"),
        "hetero.gs_n50_ms": (gs_median(50), "ms"),
        "hetero.gs_n200_ms": (gs_median(200), "ms"),
        "hetero.principal_ms": (median("hetero.solve_principal_thresholds", 1e3), "ms"),
        "hetero.sweeps": (sweeps, "count"),
        "hetero.tiebreak_calls": (per_round("hetero.expected_tiebreak_share"), "count"),
        "hetero.scan_n2_ms": (median("hetero.best_response_scan_n2", 1e3), "ms"),
        "hetero.self_s": (self_s("hetero"), "s"),
        "montecarlo.simulate_s": (
            float(a["duration"][spans("montecarlo.simulate")].sum()) / rounds, "s"),
        "montecarlo.deviation_gain_s": (
            float(a["duration"][spans("montecarlo.deviation_gain")].sum()) / rounds, "s"),
        "montecarlo.exch_ns_per_agent_rep": (ns_per_agent_rep(EXCHANGEABLE), "ns"),
        "montecarlo.peragent_ns_per_agent_rep": (ns_per_agent_rep(("PerAgentFind",)), "ns"),
        "montecarlo.self_s": (self_s("montecarlo"), "s"),
        "cli.main_ms": (median("cli.main", 1e3), "ms"),
        "cli.self_s": (self_s("cli"), "s"),
    }
