import math

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

# Kinked CDF with slopes 14/15, 2.8, 7/15: steep middle piece.
KINKED_KNOTS = ((0.0, 0.0), (3.0 / 7.0, 0.4), (4.0 / 7.0, 0.8), (1.0, 1.0))

# Zero-density stretch on [0.5, 0.7].
FLAT_KNOTS = ((0.0, 0.0), (0.5, 0.5), (0.7, 0.5), (1.0, 1.0))

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


@given(
    a=st.floats(min_value=0.0, max_value=5.0),
    width=st.floats(min_value=0.1, max_value=5.0),
    u=st.floats(min_value=0.0, max_value=1.0),
)
def test_uniform_quantile_cdf_round_trip(a, width, u):
    d = Uniform(a, a + width)
    c = float(d.quantile(u))
    assert a <= c <= a + width
    assert d.cdf(c) == pytest.approx(u, abs=1e-9)


def test_uniform_quantile_vectorized():
    d = Uniform(0.0, 2.0)
    out = d.quantile(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(out, [0.0, 1.0, 2.0])


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
    assert float(d.quantile(0.5)) == pytest.approx(0.5 ** (1.0 / 20.0))


@given(
    alpha=st.floats(min_value=0.3, max_value=30.0),
    u=st.floats(min_value=1e-6, max_value=1.0),
)
def test_power_law_round_trip(alpha, u):
    d = PowerLaw(alpha)
    assert d.cdf(float(d.quantile(u))) == pytest.approx(u, rel=1e-9)


def test_power_law_reverse_hazard():
    d = PowerLaw(4.0)
    # F/f = c^a / (a c^{a-1}) = c/a.
    assert d.reverse_hazard(0.8) == pytest.approx(0.2, abs=1e-13)
    assert d.reverse_hazard(0.0) == 0.0


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


def test_piecewise_quantile_inverts_cdf():
    d = PiecewiseLinear(KINKED_KNOTS)
    for u in (0.0, 0.15, 0.4, 0.6, 0.8, 0.95, 1.0):
        c = float(d.quantile(u))
        assert d.cdf(c) == pytest.approx(u, abs=1e-12) or (u == 1.0 and c == 1.0)


def test_piecewise_flat_segment_behavior():
    d = PiecewiseLinear(FLAT_KNOTS)
    assert d.cdf(0.6) == pytest.approx(0.5, abs=1e-12)
    assert d.pdf(0.6) == 0.0
    # F > 0 with zero density: ratio undefined.
    with pytest.raises(InputError):
        d.reverse_hazard(0.6)
    # Quantile maps the flat level to the right edge of the stretch.
    assert float(d.quantile(0.5)) == pytest.approx(0.7, abs=1e-12)
    assert float(d.quantile(0.499999)) == pytest.approx(0.499999, abs=1e-9)


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


# ------------------------------------------------------------ spec round trip


@pytest.mark.parametrize(
    "d",
    [
        Uniform(0.25, 1.25),
        PowerLaw(3.5),
        PiecewiseLinear(KINKED_KNOTS),
    ],
)
def test_spec_round_trip(d):
    assert distribution_from_spec(d.to_spec()) == d


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

