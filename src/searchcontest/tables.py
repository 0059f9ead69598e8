"""The paper's reference results and their reproduction.

Tables 1a/1b/2a/2b quote symmetric equilibrium cutoffs and success
probabilities to four decimals; a reproduction must agree within TABLE_TOL.
Example 3 compares prize structures for two agents on U[0, 1], and
Appendix C is the continuum of two-player equilibria on a kinked law.
"""

from __future__ import annotations

from ._errors import InputError
from .distributions import PiecewiseLinear, distribution_from_spec
from .equilibrium import ContestConfig, solve_threshold
from .hetero import best_response_scan_n2
from .multiprize import PrizeStructure, optimal_prize_structure, principal_value_multi

TABLE_TOL = 5e-4

# (distribution, q, V, rows of (n, threshold, success_prob)) as published.
REFERENCE_TABLES = {
    "table1a": {
        "dist": {"kind": "power", "alpha": 20.0},
        "q": 1.0, "V": 1.0,
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
        "q": 1.0, "V": 1.999,
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
        "q": 0.5, "V": 1.0,
        "rows": [
            (10, 0.2787, 0.7771),
            (100, 0.0997, 0.9939),
            (1000, 0.0316, 0.9999),
            (2000, 0.0224, 0.9999),
        ],
    },
    "table2b": {
        "dist": {"kind": "uniform", "a": 0.25, "b": 1.25},
        "q": 0.5, "V": 1.0,
        "rows": [
            (10, 0.3780, 0.4839),
            (100, 0.2767, 0.7395),
            (1000, 0.2531, 0.7904),
            (2000, 0.2516, 0.7936),
        ],
    },
}

TABLE_NAMES = tuple(REFERENCE_TABLES) + ("example3", "appendixC")


def _row(quantity: str, computed: float, reference: float, ok: bool) -> dict:
    return {"quantity": quantity, "computed": computed, "reference": reference, "ok": ok}


def _example3() -> list[dict]:
    d = distribution_from_spec({"kind": "uniform", "a": 0.0, "b": 1.0})
    q, n, W, V = 1.0, 2, 2.0, 1.0
    u_wta = principal_value_multi(d, q, n, W, PrizeStructure.winner_takes_all(V, n))
    u_34 = principal_value_multi(d, q, n, W, PrizeStructure((0.75, 0.25)))
    best = optimal_prize_structure(d, q, n, W, V).value
    return [
        _row("value_winner_takes_all", u_wta, 8.0 / 9.0, abs(u_wta - 8.0 / 9.0) <= 1e-9),
        _row("value_top_three_quarters", u_34, 24.0 / 25.0, abs(u_34 - 24.0 / 25.0) <= 1e-9),
        _row("optimal_structure_value", best, 24.0 / 25.0, best >= 24.0 / 25.0 - 1e-9),
    ]


def _appendix_c() -> list[dict]:
    d = PiecewiseLinear(((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0)))
    scan = best_response_scan_n2(d, 1.0, 5.0 / 7.0)
    if not scan.segments:
        return [_row("pairs_found", 0.0, 1.0, False)]
    left, right = scan.segments[0][0], scan.segments[-1][1]
    sym = scan.has_symmetric
    return [
        _row("segment_left_endpoint", left, 3.0 / 7.0, abs(left - 3.0 / 7.0) <= 2e-4),
        _row("segment_right_endpoint", right, 4.0 / 7.0, abs(right - 4.0 / 7.0) <= 2e-4),
        _row("symmetric_pair_included", float(sym), 1.0, sym),
    ]


def _reference_table(name: str) -> list[dict]:
    spec = REFERENCE_TABLES[name]
    d = distribution_from_spec(spec["dist"])
    rows = []
    for n, c_ref, p_ref in spec["rows"]:
        res = solve_threshold(d, ContestConfig(n=float(n), q=spec["q"], V=spec["V"]))
        c, p = res.threshold, res.success_prob
        ok = abs(c - c_ref) <= TABLE_TOL and abs(p - p_ref) <= TABLE_TOL
        rows.append({"n": n, "threshold": c, "threshold_ref": c_ref,
                     "success_prob": p, "success_prob_ref": p_ref, "ok": ok})
    return rows


def reproduce(name: str) -> tuple[list[dict], bool]:
    """Recompute the named reference result: its rows, each with an ``ok``
    flag, and whether every row agrees with the reference."""
    if name == "example3":
        rows = _example3()
    elif name == "appendixC":
        rows = _appendix_c()
    elif name in REFERENCE_TABLES:
        rows = _reference_table(name)
    else:
        raise InputError(f"unknown reference table {name!r}; choose from {TABLE_NAMES}")
    return rows, all(row["ok"] for row in rows)
