"""Cost distributions on a bounded support.

Three families cover everything the solvers need: uniform on [a, b], power
law c^alpha on [0, 1], and piecewise-linear CDFs given by knot lists. Each
exposes cdf, pdf, quantile, the reverse-hazard ratio F/f, and the support
endpoints, plus two shape facts in closed form: the pieces on which F/f
rises, and the maximum of c*f(c). A JSON-dict spec form round-trips through
``distribution_from_spec`` / ``to_spec`` for the CLI.

Conventions:

- ``cdf`` clamps outside the support (0 below, 1 above).
- ``pdf`` raises outside the support; at piecewise kinks it returns the
  right-limit slope (the final knot returns the last segment's slope).
- ``reverse_hazard`` returns 0 where F = 0 (the limit value) and raises
  where the density vanishes with F > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ._errors import InputError

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class CostDistribution:
    """Base interface; concrete families override the numeric methods."""

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def cdf(self, c: float) -> float:
        raise NotImplementedError

    def pdf(self, c: float) -> float:
        raise NotImplementedError

    def quantile(self, u: ArrayLike) -> ArrayLike:
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

    def to_spec(self) -> dict:
        raise NotImplementedError

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

    def quantile(self, u: ArrayLike) -> ArrayLike:
        return self.a + np.multiply(u, self.b - self.a)

    def rising_pieces(self) -> list[tuple[float, float]]:
        return [(self.a, self.b)]

    def max_c_pdf(self) -> float:
        return self.b / (self.b - self.a)

    def to_spec(self) -> dict:
        return {"kind": "uniform", "a": self.a, "b": self.b}


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
        # alpha < 1 diverges at 0; callers only evaluate interior points.
        return self.alpha * c ** (self.alpha - 1.0)

    def quantile(self, u: ArrayLike) -> ArrayLike:
        return np.power(u, 1.0 / self.alpha)

    def reverse_hazard(self, c: float) -> float:
        if self.cdf(c) == 0.0:
            return 0.0
        return c / self.alpha

    def rising_pieces(self) -> list[tuple[float, float]]:
        return [(0.0, 1.0)]

    def max_c_pdf(self) -> float:
        return self.alpha  # c*f(c) = alpha * c^alpha, largest at c = 1

    def to_spec(self) -> dict:
        return {"kind": "power", "alpha": self.alpha}


@dataclass(frozen=True)
class PiecewiseLinear(CostDistribution):
    """CDF interpolating (c_i, F_i) knots; density is piecewise constant."""

    knots: tuple[tuple[float, float], ...]
    _c: np.ndarray = field(init=False, repr=False, compare=False)
    _F: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = [(float(c), float(F)) for c, F in self.knots]
        if len(pts) < 2:
            raise InputError("piecewise-linear CDF needs at least 2 knots")
        c = np.array([p[0] for p in pts])
        F = np.array([p[1] for p in pts])
        if not np.all(np.isfinite(pts)):
            raise InputError("knots must be finite")
        if c[0] < 0.0 or np.any(np.diff(c) <= 0.0):
            raise InputError("knot abscissae must be nonnegative and strictly increasing")
        if abs(F[0]) > 1e-12 or abs(F[-1] - 1.0) > 1e-12:
            raise InputError("knot CDF values must run from 0 to 1")
        if np.any(np.diff(F) < -1e-15):
            raise InputError("knot CDF values must be nondecreasing")
        F[0], F[-1] = 0.0, 1.0
        F = np.maximum.accumulate(F)
        object.__setattr__(self, "knots", tuple(pts))
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_F", F)
        object.__setattr__(self, "_slopes", np.diff(F) / np.diff(c))

    def support(self) -> tuple[float, float]:
        return (float(self._c[0]), float(self._c[-1]))

    def _segment(self, c: float) -> int:
        # Index i such that c falls in [c_i, c_{i+1}); final knot maps to
        # the last segment so pdf there is the left slope.
        i = int(np.searchsorted(self._c, c, side="right")) - 1
        return min(max(i, 0), len(self._slopes) - 1)

    def cdf(self, c: float) -> float:
        if c <= self._c[0]:
            return 0.0
        if c >= self._c[-1]:
            return 1.0
        i = self._segment(c)
        return float(self._F[i] + self._slopes[i] * (c - self._c[i]))

    def pdf(self, c: float) -> float:
        self._check_in_support(c)
        return float(self._slopes[self._segment(c)])

    def quantile(self, u: ArrayLike) -> ArrayLike:
        u_arr = np.asarray(u, dtype=float)
        i = np.clip(np.searchsorted(self._F, u_arr, side="right") - 1, 0, len(self._slopes) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(self._slopes[i] > 0.0, (u_arr - self._F[i]) / self._slopes[i], 0.0)
        out = np.minimum(self._c[i] + step, self._c[-1])
        return out if isinstance(u, np.ndarray) else float(out)

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
            start = float(self._c[i])
            if prev is not None and slope <= self._slopes[prev] * (1.0 + 1e-9):
                start = pieces.pop()[0]
            pieces.append((start, float(self._c[i + 1])))
            prev = i
        return pieces

    def max_c_pdf(self) -> float:
        # c*f(c) rises across each segment, so its maximum sits at a right end.
        return float(np.max(self._c[1:] * self._slopes))

    def to_spec(self) -> dict:
        return {"kind": "piecewise_linear", "knots": [[c, F] for c, F in self.knots]}


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

