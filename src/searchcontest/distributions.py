"""Cost distributions on a bounded support.

Three families cover everything the solvers need: uniform on [a, b], power
law c^alpha on [0, 1], and piecewise-linear CDFs given by knot lists. Each
exposes cdf, pdf, the reverse-hazard ratio F/f, and the support endpoints,
plus three shape facts in closed form: the pieces on which F/f rises, the
maximum of c*f(c), and the stake cutoff, the maximizer of (K - c) F(c)
that is the designer's best cutoff for one sure finder at stakes K.
Uniform and piecewise-linear laws also give the knots between which F is
linear. ``distribution_from_spec`` builds each from its
JSON-dict spec form, as the CLI's ``--dist`` gives it.

Every method takes and returns plain Python floats: the solvers evaluate
one point at a time, where numpy's per-call cost would outweigh the
arithmetic.

Conventions:

- ``cdf`` clamps outside the support (0 below, 1 above).
- ``pdf`` raises outside the support; at piecewise kinks it returns the
  right-limit slope (the final knot returns the last segment's slope).
- ``reverse_hazard`` returns 0 where F = 0 (the limit value) and raises
  where the density vanishes with F > 0.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from ._errors import InputError


@dataclass(frozen=True)
class CostDistribution:
    """Base interface; concrete families override the numeric methods."""

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, c: float) -> float:
        raise NotImplementedError

    def pdf(self, c: float) -> float:
        raise NotImplementedError

    def reverse_hazard(self, c: float) -> float:
        """F(c)/f(c); 0 at F = 0, error where the density is zero."""
        F = self.cdf(c)
        if F == 0.0:
            return 0.0
        f = self.pdf(c)
        if f <= 0.0:
            raise InputError(f"density is zero at c = {c}; F/f undefined")
        return F / f

    def rising_pieces(self) -> list[tuple[float, float]]:
        """Intervals of positive density on each of which F/f is
        nondecreasing, in order; the density is zero between them."""
        raise NotImplementedError

    def max_c_pdf(self) -> float:
        """Maximum of c*f(c) over the support."""
        raise NotImplementedError

    def stake_cutoff(self, K: float) -> float:
        """Lowest maximizer of (K - c) F(c) over the support: the
        designer's best cutoff for one sure finder at stakes K. It is
        affine in K on each piece, and the floor where K is at most the
        cost at which F starts to rise."""
        raise NotImplementedError

    def cdf_knots(self) -> tuple[tuple[float, float], ...] | None:
        """Knots (c_i, F_i) between which F is linear, or None where F is
        not piecewise linear."""
        return None

    def _check_in_support(self, c: float) -> None:
        lo, hi = self.support()
        if not (lo <= c <= hi):
            raise InputError(f"c = {c} outside support [{lo}, {hi}]")


@dataclass(frozen=True)
class Uniform(CostDistribution):
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b) or not math.isfinite(self.b):
            raise InputError(f"uniform needs 0 <= a < b, got [{self.a}, {self.b}]")

    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def cdf(self, c: float) -> float:
        if c <= self.a:
            return 0.0
        if c >= self.b:
            return 1.0
        return (c - self.a) / (self.b - self.a)

    def pdf(self, c: float) -> float:
        self._check_in_support(c)
        return 1.0 / (self.b - self.a)

    def rising_pieces(self) -> list[tuple[float, float]]:
        return [(self.a, self.b)]

    def max_c_pdf(self) -> float:
        return self.b / (self.b - self.a)

    def stake_cutoff(self, K: float) -> float:
        return min(max(0.5 * (K + self.a), self.a), self.b)

    def cdf_knots(self) -> tuple[tuple[float, float], ...]:
        return ((self.a, 0.0), (self.b, 1.0))


@dataclass(frozen=True)
class PowerLaw(CostDistribution):
    """F(c) = c^alpha on [0, 1]; alpha > 1 concentrates mass near 1."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise InputError(f"power law needs alpha > 0, got {self.alpha}")

    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def cdf(self, c: float) -> float:
        if c <= 0.0:
            return 0.0
        if c >= 1.0:
            return 1.0
        return c**self.alpha

    def pdf(self, c: float) -> float:
        self._check_in_support(c)
        try:
            return self.alpha * c ** (self.alpha - 1.0)
        except OverflowError:  # c^(alpha - 1) past the largest double; the density need not be
            return self.alpha * c**self.alpha / c
        except ZeroDivisionError:  # alpha < 1 diverges at 0
            return math.inf

    def reverse_hazard(self, c: float) -> float:
        if self.cdf(c) == 0.0:
            return 0.0
        return c / self.alpha

    def rising_pieces(self) -> list[tuple[float, float]]:
        return [(0.0, 1.0)]

    def max_c_pdf(self) -> float:
        return self.alpha  # c*f(c) = alpha * c^alpha, largest at c = 1

    def stake_cutoff(self, K: float) -> float:
        return min(max(self.alpha * K / (self.alpha + 1.0), 0.0), 1.0)


@dataclass(frozen=True)
class PiecewiseLinear(CostDistribution):
    """CDF interpolating (c_i, F_i) knots; density is piecewise constant."""

    knots: tuple[tuple[float, float], ...]
    _c: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _F: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _slopes: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple((float(c), float(F)) for c, F in self.knots)
        if len(pts) < 2:
            raise InputError("piecewise-linear CDF needs at least 2 knots")
        if not all(math.isfinite(c) and math.isfinite(F) for c, F in pts):
            raise InputError("knots must be finite")
        c = tuple(p[0] for p in pts)
        F = [p[1] for p in pts]
        if c[0] < 0.0 or any(b <= a for a, b in zip(c, c[1:])):
            raise InputError("knot abscissae must be nonnegative and strictly increasing")
        if abs(F[0]) > 1e-12 or abs(F[-1] - 1.0) > 1e-12:
            raise InputError("knot CDF values must run from 0 to 1")
        if any(b - a < -1e-15 for a, b in zip(F, F[1:])):
            raise InputError("knot CDF values must be nondecreasing")
        F[0], F[-1] = 0.0, 1.0
        F = tuple(accumulate(F, max))
        slopes = tuple((F[i + 1] - F[i]) / (c[i + 1] - c[i]) for i in range(len(c) - 1))
        object.__setattr__(self, "knots", pts)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_F", F)
        object.__setattr__(self, "_slopes", slopes)

    def support(self) -> tuple[float, float]:
        return (self._c[0], self._c[-1])

    def _segment(self, c: float) -> int:
        # Index i such that c falls in [c_i, c_{i+1}) for c >= c_0; the
        # final knot (and NaN) maps to the last segment, so pdf there is
        # the left slope.
        return min(bisect_right(self._c, c), len(self._slopes)) - 1

    def cdf(self, c: float) -> float:
        if c <= self._c[0]:
            return 0.0
        if c >= self._c[-1]:
            return 1.0
        i = self._segment(c)
        return self._F[i] + self._slopes[i] * (c - self._c[i])

    def pdf(self, c: float) -> float:
        self._check_in_support(c)
        return self._slopes[self._segment(c)]

    def rising_pieces(self) -> list[tuple[float, float]]:
        """Runs of positive-slope segments along which the slope never
        rises, so F/f is nondecreasing: it rises with slope 1 inside each
        segment and drops only where the slope rises. A rise of at most a
        relative 1e-9 counts as none, which absorbs the rounding of slopes
        along collinear knots."""
        pieces: list[tuple[float, float]] = []
        prev = None
        for i, slope in enumerate(self._slopes):
            if slope <= 0.0:
                prev = None
                continue
            start = self._c[i]
            if prev is not None and slope <= self._slopes[prev] * (1.0 + 1e-9):
                start = pieces.pop()[0]
            pieces.append((start, self._c[i + 1]))
            prev = i
        return pieces

    def max_c_pdf(self) -> float:
        # c*f(c) rises across each segment, so its maximum sits at a right end.
        return max(c * s for c, s in zip(self._c[1:], self._slopes))

    def stake_cutoff(self, K: float) -> float:
        # (K - c) F(c) is a concave quadratic on each rising segment, with
        # its vertex at (K + c_i - F_i / s_i) / 2; it falls across flat
        # ones and is at most 0 from K on. So the floor, worth 0, is the
        # maximizer if no segment rises below K, and is beaten otherwise,
        # even where the gain rounds to 0. A later segment's clipped vertex
        # replaces the best so far only if strictly better, so a tie keeps
        # the lower cutoff.
        best, best_value = self._c[0], -math.inf
        for c0, c1, F0, s in zip(self._c, self._c[1:], self._F, self._slopes):
            if c0 >= K:
                break
            if s <= 0.0:
                continue
            c = min(max(0.5 * (K + c0 - F0 / s), c0), c1)
            value = (K - c) * (F0 + s * (c - c0))
            if value > best_value:
                best, best_value = c, value
        return best

    def cdf_knots(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._c, self._F))


def distribution_from_spec(spec: dict) -> CostDistribution:
    """Build a distribution from its JSON-dict spec form."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("distribution spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    try:
        if kind == "uniform":
            return Uniform(float(spec["a"]), float(spec["b"]))
        if kind == "power":
            return PowerLaw(float(spec["alpha"]))
        if kind == "piecewise_linear":
            return PiecewiseLinear(tuple((float(c), float(F)) for c, F in spec["knots"]))
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"distribution spec missing field: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind!r} distribution spec: {exc}") from exc
    raise InputError(f"unknown distribution kind: {kind!r}")

