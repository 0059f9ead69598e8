import bisect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from searchcontest import InputError
from searchcontest.distributions import (
    PiecewiseLinear,
    PowerLaw,
    Uniform,
    distribution_from_spec,
)
from searchcontest.principal import _best_cutoff

# Kinked CDF with slopes 14/15, 2.8, 7/15: steep middle piece.
KINKED_KNOTS = ((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0))

# Zero-density stretch on [0.5, 0.7].
FLAT_KNOTS = ((0.0, 0.0), (0.5, 0.5), (0.7, 0.5), (1.0, 1.0))

# Density 2 on [0, 1/2], zero above.
FLAT_TOP_KNOTS = ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))

# No mass below c = 0.3, then two rising pieces.
FLOOR_KNOTS = ((0.0, 0.0), (0.3, 0.0), (0.6, 0.45), (1.0, 1.0))

# Slope rises by 0.1 % at c = 0.5, from 1 to 1.001.
SMALL_RISE_KNOTS = ((0.0, 0.0), (0.5, 0.5), (0.5999, 0.6), (1.0, 1.0))


# ----------------------------------------------------------------- Uniform


def test_uniform_cdf_clamps_and_interpolates():
    d = Uniform(0.25, 1.25)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(0.25) == 0.0
    assert d.cdf(0.75) == pytest.approx(0.5)
    assert d.cdf(1.25) == 1.0
    assert d.cdf(2.0) == 1.0


def test_uniform_pdf_constant_raises_outside():
    d = Uniform(0.25, 1.25)
    assert d.pdf(0.5) == 1.0
    with pytest.raises(InputError):
        d.pdf(0.1)
    with pytest.raises(InputError):
        d.pdf(1.3)


def test_uniform_reverse_hazard_is_offset():
    d = Uniform(0.25, 1.25)
    # F/f = (c - a) for a uniform.
    assert d.reverse_hazard(0.8) == pytest.approx(0.55, abs=1e-12)
    assert d.reverse_hazard(0.25) == 0.0


@pytest.mark.parametrize("a,b", [(-0.1, 1.0), (0.5, 0.5), (1.0, 0.2), (0.0, math.inf)])
def test_uniform_rejects_bad_support(a, b):
    with pytest.raises(InputError):
        Uniform(a, b)


# ---------------------------------------------------------------- PowerLaw


def test_power_law_cdf_and_quantile():
    d = PowerLaw(20.0)
    assert d.support() == (0.0, 1.0)
    assert d.cdf(0.9) == pytest.approx(0.9**20)
    assert d.cdf(-1.0) == 0.0
    assert d.cdf(1.5) == 1.0


def test_power_law_reverse_hazard():
    d = PowerLaw(4.0)
    # F/f = c^a / (a c^{a-1}) = c/a.
    assert d.reverse_hazard(0.8) == pytest.approx(0.2, abs=1e-13)
    assert d.reverse_hazard(0.0) == 0.0


def test_power_law_density_past_the_largest_double_is_inf():
    # At alpha = 1e-3 the density itself passes the largest double below
    # c ~ 3e-312; at 5e-321 it would be about 1e317.
    d = PowerLaw(1e-3)
    assert d.pdf(5e-321) == math.inf
    assert d.pdf(1e-300) == pytest.approx(1e-3 * 1e-300 ** (1e-3 - 1.0))


@pytest.mark.parametrize("c", [5e-311, 1e-309, 2.5e-310])
def test_power_law_density_stays_finite_where_only_the_power_overflows(c):
    # c^(alpha - 1) overflows below c ~ 1e-309, but alpha c^(alpha - 1) does not.
    exact = mpmath.mpf(1e-3) * mpmath.mpf(c) ** (mpmath.mpf(1e-3) - 1)
    assert PowerLaw(1e-3).pdf(c) == pytest.approx(float(exact), rel=1e-12)
    assert math.isfinite(PowerLaw(1e-3).pdf(c))


def test_power_law_density_is_unchanged_where_the_power_is_finite():
    d = PowerLaw(1e-3)
    for c in (1.1e-308, 1e-300, 1e-5, 0.5, 1.0):
        assert d.pdf(c) == 1e-3 * c ** (1e-3 - 1.0)


def test_power_law_density_at_zero():
    # The limit of alpha c^(alpha - 1) as c falls to 0.
    assert PowerLaw(0.5).pdf(0.0) == math.inf
    assert PowerLaw(1.0).pdf(0.0) == 1.0
    assert PowerLaw(3.0).pdf(0.0) == 0.0


@pytest.mark.parametrize("alpha", [0.0, -2.0, math.inf, math.nan])
def test_power_law_rejects_bad_alpha(alpha):
    with pytest.raises(InputError):
        PowerLaw(alpha)


# --------------------------------------------------------- PiecewiseLinear


def test_piecewise_cdf_hits_knots_and_midpoints():
    d = PiecewiseLinear(KINKED_KNOTS)
    assert d.support() == (0.0, 1.0)
    assert d.cdf(3.0 / 7.0) == pytest.approx(0.4, abs=1e-12)
    assert d.cdf(4.0 / 7.0) == pytest.approx(0.8, abs=1e-12)
    # Midpoint of the steep segment: slope 0.4 / (1/7) = 2.8.
    assert d.cdf(0.5) == pytest.approx(0.4 + 2.8 * (0.5 - 3.0 / 7.0), abs=1e-12)


def test_piecewise_pdf_is_segment_slope():
    d = PiecewiseLinear(KINKED_KNOTS)
    assert d.pdf(0.2) == pytest.approx(0.4 / (3.0 / 7.0), abs=1e-12)
    assert d.pdf(0.5) == pytest.approx(2.8, abs=1e-12)
    assert d.pdf(0.9) == pytest.approx(0.2 / (3.0 / 7.0), abs=1e-12)
    # Kink takes the right-limit slope, the endpoint the last slope.
    assert d.pdf(3.0 / 7.0) == pytest.approx(2.8, abs=1e-12)
    assert d.pdf(1.0) == pytest.approx(0.2 / (3.0 / 7.0), abs=1e-12)


def test_piecewise_flat_segment_behavior():
    d = PiecewiseLinear(FLAT_KNOTS)
    assert d.cdf(0.6) == pytest.approx(0.5, abs=1e-12)
    assert d.pdf(0.6) == 0.0
    # F > 0 with zero density: ratio undefined.
    with pytest.raises(InputError):
        d.reverse_hazard(0.6)


@st.composite
def piecewise_laws(draw):
    """Random knot lists with zero-density stretches and collinear runs:
    each segment's CDF rise is fresh, zero, or its predecessor's slope."""
    k = draw(st.integers(min_value=1, max_value=8))
    start = draw(st.floats(min_value=0.0, max_value=3.0))
    widths = draw(st.lists(st.floats(min_value=1e-3, max_value=2.0), min_size=k, max_size=k))
    kinds = draw(st.lists(st.sampled_from(["fresh", "flat", "collinear"]),
                          min_size=k, max_size=k))
    rises = []
    for i, kind in enumerate(kinds):
        if kind == "flat":
            rises.append(0.0)
        elif kind == "collinear" and i > 0:
            rises.append(rises[-1] * widths[i] / widths[i - 1])
        else:
            rises.append(draw(st.floats(min_value=1e-3, max_value=1.0)))
    if sum(rises) == 0.0:
        rises[-1] = 1.0
    total = sum(rises)
    c, F = [start], [0.0]
    for width, rise in zip(widths, rises):
        c.append(c[-1] + width)
        F.append(F[-1] + rise)
    F = [x / total for x in F]
    F[-1] = 1.0
    return c, F


@given(law=piecewise_laws(), points=st.lists(st.floats(min_value=-1.0, max_value=20.0),
                                             max_size=20))
def test_piecewise_cdf_is_numpy_interp_and_pdf_the_right_slope(law, points):
    c, F = law
    d = PiecewiseLinear(tuple(zip(c, F)))
    near_knots = [math.nextafter(x, edge) for x in c for edge in (-math.inf, math.inf)]
    for x in points + c + near_knots:
        got = d.cdf(x)
        assert type(got) is float
        assert got == float(np.interp(x, c, F))
        if c[0] <= x <= c[-1]:
            i = min(bisect.bisect_right(c, x), len(c) - 1) - 1
            assert d.pdf(x) == (F[i + 1] - F[i]) / (c[i + 1] - c[i])


@pytest.mark.parametrize(
    "knots",
    [
        (((0.0, 0.0),)),
        ((0.5, 0.0), (0.2, 1.0)),
        ((0.0, 0.1), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.9)),
        ((0.0, 0.0), (0.5, 0.8), (1.0, 0.3)),
        ((-0.5, 0.0), (1.0, 1.0)),
    ],
)
def test_piecewise_rejects_bad_knots(knots):
    with pytest.raises(InputError):
        PiecewiseLinear(tuple(knots))


@pytest.mark.parametrize(
    "knots",
    [
        ((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, math.nan), (1.0, 1.0)),
        ((0.0, 0.0), (0.5, 0.5), (math.inf, 1.0)),
    ],
)
def test_piecewise_rejects_non_finite_knots(knots):
    with pytest.raises(InputError, match="finite"):
        PiecewiseLinear(knots)


# --------------------------------------------------------------- spec form


@pytest.mark.parametrize(
    "spec,d",
    [
        ({"kind": "uniform", "a": 0.25, "b": 1.25}, Uniform(0.25, 1.25)),
        ({"kind": "power", "alpha": 3.5}, PowerLaw(3.5)),
        (
            {"kind": "piecewise_linear", "knots": [[0, 0], [3 / 7, 0.4], [4 / 7, 0.8], [1, 1]]},
            PiecewiseLinear(KINKED_KNOTS),
        ),
    ],
    ids=["uniform", "power", "piecewise_linear"],
)
def test_spec_builds_each_family(spec, d):
    assert distribution_from_spec(spec) == d


@pytest.mark.parametrize(
    "spec",
    [
        "not a dict",
        {},
        {"kind": "gaussian"},
        {"kind": "uniform", "a": 0.0},
        {"kind": "power"},
        {"kind": "uniform", "a": "x", "b": 1.0},
        {"kind": "piecewise_linear", "knots": [[0.0, 0.0], [1.0]]},
        {"kind": "piecewise_linear", "knots": 5},
        {"kind": "power", "alpha": 10**400},
    ],
)
def test_spec_rejects_malformed(spec):
    with pytest.raises(InputError):
        distribution_from_spec(spec)


# ------------------------------------------------------- shape of F/f


@pytest.mark.parametrize(
    "d,pieces",
    [
        (Uniform(0.25, 1.25), [(0.25, 1.25)]),
        (PowerLaw(0.5), [(0.0, 1.0)]),
        # Split where the slope rises from 14/15 to 2.8, not where it falls.
        (PiecewiseLinear(KINKED_KNOTS), [(0.0, 3.0 / 7.0), (3.0 / 7.0, 1.0)]),
        # Split at the zero-density stretch.
        (PiecewiseLinear(FLAT_KNOTS), [(0.0, 0.5), (0.7, 1.0)]),
        (PiecewiseLinear(((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))), [(0.0, 0.5)]),
        (PiecewiseLinear(((0.0, 0.0), (0.3, 0.0), (1.0, 1.0))), [(0.3, 1.0)]),
        (PiecewiseLinear(SMALL_RISE_KNOTS), [(0.0, 0.5), (0.5, 1.0)]),
        # Collinear knots whose slopes differ only by rounding: one piece.
        (PiecewiseLinear(tuple((0.25 + i * 0.1, i * 0.1) for i in range(11))), [(0.25, 1.25)]),
        # Slope jumps from 0.8 up to 5 at c = 0.5, so F/f drops there.
        (PiecewiseLinear(((0.0, 0.0), (0.5, 0.4), (0.6, 0.9), (1.0, 1.0))),
         [(0.0, 0.5), (0.5, 1.0)]),
        # A gentler slope after the stretch: F/f rises across it, but f = 0 between.
        (PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), (0.7, 0.5), (1.7, 1.0))),
         [(0.0, 0.5), (0.7, 1.7)]),
    ],
)
def test_rising_pieces(d, pieces):
    assert d.rising_pieces() == pieces


@pytest.mark.parametrize("d", [Uniform(0.0, 1.0), Uniform(0.25, 1.25), PowerLaw(20.0)])
def test_reverse_hazard_monotone_for_regular_families(d):
    # F/f is c - a or c / alpha: nondecreasing, so one piece spans the support.
    assert d.rising_pieces() == [d.support()]


def test_reverse_hazard_monotone_catches_a_drop_between_samples():
    # F/f drops from 0.5 to 0.4995 at c = 0.5, a drop that a 512-point
    # sample of F/f misses; the pieces split exactly there.
    d = PiecewiseLinear(SMALL_RISE_KNOTS)
    (_, top), (bottom, _) = d.rising_pieces()
    assert top == bottom == 0.5
    assert d.reverse_hazard(0.5) == pytest.approx(0.4995, abs=1e-4)
    assert d.reverse_hazard(0.5) < d.reverse_hazard(math.nextafter(0.5, 0.0))


def test_reverse_hazard_monotone_passes_collinear_knots():
    # Uniform on [0.25, 1.25] written as 11 knots; the slopes round to
    # values up to 2e-15 apart, rising at some knots, yet F/f is c - 0.25.
    d = PiecewiseLinear(tuple((0.25 + i * 0.1, i * 0.1) for i in range(11)))
    assert d.rising_pieces() == Uniform(0.25, 1.25).rising_pieces()
    c = np.linspace(0.3, 1.2, 10)
    assert [d.reverse_hazard(x) for x in c] == pytest.approx(c - 0.25, abs=1e-12)


# -------------------------------------------------------- stake cutoff

STAKE_LAWS = [
    Uniform(0.0, 1.0),
    Uniform(0.2, 1.3),
    PowerLaw(0.5),
    PowerLaw(3.0),
    PiecewiseLinear(KINKED_KNOTS),
    PiecewiseLinear(FLAT_KNOTS),
    PiecewiseLinear(FLAT_TOP_KNOTS),
    PiecewiseLinear(FLOOR_KNOTS),
]
STAKE_IDS = ["uniform", "uniform-offset", "power0.5", "power3", "kinked", "bumpy", "flat-top",
             "floor"]


def within_ulps(a: float, b: float, k: int) -> bool:
    return abs(a - b) <= k * math.ulp(max(abs(a), abs(b)))


def exact_stake_cutoff(knots, K: float) -> Fraction:
    """Lowest maximizer of (K - c) F(c) on a piecewise-linear law, in exact
    arithmetic on the float knots: each rising segment's clipped vertex,
    kept only if strictly better than the floor and the segments before."""
    K = Fraction(K)
    best, best_value = Fraction(knots[0][0]), Fraction(0)
    for (c0, F0), (c1, F1) in zip(knots, knots[1:]):
        c0, F0, c1, F1 = map(Fraction, (c0, F0, c1, F1))
        if F1 <= F0:
            continue
        s = (F1 - F0) / (c1 - c0)
        c = min(max((K + c0 - F0 / s) / 2, c0), c1)
        value = (K - c) * (F0 + s * (c - c0))
        if value > best_value:
            best, best_value = c, value
    return best


@pytest.mark.parametrize("d", STAKE_LAWS, ids=STAKE_IDS)
def test_stake_cutoff_matches_the_root_solve(d):
    lo, hi = d.support()
    for K in np.random.default_rng(24).uniform(0.0, 2.5 * hi, 500).tolist():
        assert within_ulps(d.stake_cutoff(K), _best_cutoff(d, 1.0, 1.0, K, lo, hi), 2), K


@pytest.mark.parametrize("d", STAKE_LAWS[4:], ids=STAKE_IDS[4:])
def test_stake_cutoff_is_the_exact_vertex_on_piecewise_laws(d):
    for K in np.random.default_rng(25).uniform(0.0, 2.0, 500).tolist():
        exact = float(exact_stake_cutoff(d.cdf_knots(), K))
        assert within_ulps(d.stake_cutoff(K), exact, 1), K


@pytest.mark.parametrize("d", STAKE_LAWS, ids=STAKE_IDS)
def test_stake_cutoff_is_the_floor_up_to_the_first_rising_knot(d):
    # Up to the knot, (K - c) F(c) <= 0 wherever F > 0: the floor, worth 0,
    # is the lowest of the maximizers. Past it the gain is positive, even
    # where it rounds to 0 one double above the knot.
    lo, _ = d.support()
    rise = d.rising_pieces()[0][0]
    for K in (0.0, 0.5 * rise, rise):
        assert d.stake_cutoff(K) == lo
    above = math.nextafter(rise, math.inf)
    assert rise <= d.stake_cutoff(above) <= above
    assert d.stake_cutoff(rise + 0.01) > rise


def test_stake_cutoff_breaks_a_tie_between_segments_low():
    # At K = 1 the first segment's vertex, c = 1/2 with F = 1/2, and the
    # second's, c = 3/4 with F = 1, both gain exactly 1/4.
    d = PiecewiseLinear(((0.0, 0.0), (0.5, 0.5), (0.625, 0.5), (0.75, 1.0)))
    assert d.stake_cutoff(1.0) == _best_cutoff(d, 1.0, 1.0, 1.0, 0.0, 0.75) == 0.5


@given(law=piecewise_laws(), share=st.floats(min_value=0.0, max_value=1.5))
def test_stake_cutoff_beats_a_grid(law, share):
    c, F = law
    d = PiecewiseLinear(tuple(zip(c, F)))
    K = share * c[-1]
    best = d.stake_cutoff(K)
    assert c[0] <= best <= c[-1]
    grid = np.linspace(c[0], c[-1], 2001)
    gains = (K - grid) * np.interp(grid, c, F)
    assert (K - best) * d.cdf(best) >= np.max(gains) - 1e-15


def test_stake_cutoff_keeps_a_gain_far_below_the_stake():
    # On PowerLaw(40) at K = 0.11 the interior optimum gains only about
    # 5e-42 over the floor. The root solve keeps it too, because
    # _best_cutoff compares gains over the floor.
    d, K = PowerLaw(40.0), 0.11
    c = d.stake_cutoff(K)
    assert c == 40.0 * K / 41.0
    assert (K - c) * d.cdf(c) == pytest.approx(4.52e-42, rel=1e-3)
    assert within_ulps(_best_cutoff(d, 1.0, 1.0, K, 0.0, 1.0), c, 2)
