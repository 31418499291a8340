"""Scalar probability laws and their analytic transforms.

Each law knows its atoms and (for continuous parts) a smooth quadrature
parametrization, so a single adaptive integrator serves every variant.  Heavy
tails are tamed by substitution: a Cauchy density becomes a *uniform* density
in the angle t = location + scale*tan(theta), semicircle/arcsine densities
become trigonometric polynomials in t = edge*sin(theta).  Closed forms are
kept for the variants where they exist; they double as test oracles for the
quadrature path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as rngmod
from .errors import DimensionMismatch, NoConvergence, RealAxisPoint

_WEIGHT_TOL = 1e-12

# ---------------------------------------------------------------------------
# adaptive panel quadrature (shared by scalar and matrix-valued integrands)

_GL_LO = np.polynomial.legendre.leggauss(10)
_GL_HI = np.polynomial.legendre.leggauss(21)


def adaptive_integral(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                      tol: float = 1e-12, max_panels: int = 4000):
    """Integrate a vectorized (possibly array-valued) integrand over [lo, hi].

    ``fn`` maps an array of abscissae of shape (k,) to values of shape
    (k, ...).  Panels are bisected until the difference between a 10- and a
    21-point Gauss-Legendre rule drops below the locally apportioned share of
    ``tol``.  Returns ``(value, error_estimate)``; raises
    :class:`NoConvergence` when a panel is still unconverged once
    ``max_panels`` panels have been evaluated.
    """
    if hi <= lo:
        raise ValueError("empty integration interval")
    total_len = hi - lo

    def rules(a, b):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        v_lo = fn(mid + half * _GL_LO[0])
        v_hi = fn(mid + half * _GL_HI[0])
        low = half * np.tensordot(_GL_LO[1], v_lo, axes=(0, 0))
        high = half * np.tensordot(_GL_HI[1], v_hi, axes=(0, 0))
        return high, float(np.max(np.abs(high - low)))

    value = None
    err_acc = 0.0
    stack = [(lo, hi)]
    panels = 0
    while stack:
        a, b = stack.pop()
        high, err = rules(a, b)
        panels += 1
        if err <= tol * max((b - a) / total_len, 1e-6) or (b - a) < 1e-14 * total_len:
            value = high if value is None else value + high
            err_acc += err
        elif panels >= max_panels:
            raise NoConvergence(
                f"adaptive quadrature spent {max_panels} panels on [{lo:.6g}, {hi:.6g}] "
                f"with a panel error of {err:.3e} left unresolved")
        else:
            mid = (a + b) / 2.0
            stack.append((a, mid))
            stack.append((mid, b))
    return value, err_acc


@dataclass(frozen=True)
class Segment:
    """Continuous piece of a law in quadrature-ready form.

    ``t_of`` maps the angle variable to the support, ``weight`` is the density
    with respect to d(theta) on (theta_lo, theta_hi); both are vectorized.
    """

    theta_lo: float
    theta_hi: float
    t_of: Callable[[np.ndarray], np.ndarray]
    weight: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# law variants


class ScalarMeasure:
    """Base class: a probability law on the real line."""

    variant = "abstract"

    def atoms(self) -> tuple:
        """Discrete part as ((position, weight), ...)."""
        return ()

    def segments(self) -> tuple:
        """Continuous part as a tuple of :class:`Segment`."""
        return ()

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def atom_at(self, x: float) -> float:
        for p, w in self.atoms():
            if p == x:
                return w
        return 0.0

    def interval_mass(self, lo: float, hi: float) -> float:
        """Mass of the closed interval [lo, hi]."""
        if hi < lo:
            return 0.0
        return min(1.0, max(0.0, self.cdf(hi) - self.cdf(lo) + self.atom_at(lo)))

    def quantile(self, p: float) -> float:
        raise NotImplementedError

    def closed_form_g(self, z: complex):
        """Closed-form Cauchy transform, or None when quadrature is the path."""
        return None

    def closed_form_g_derivative(self, z: complex, order: int):
        return None

    def support_bound(self) -> float:
        """Radius of an interval containing the support (inf for heavy tails)."""
        return math.inf

    def to_json(self) -> dict:
        raise NotImplementedError

    def _discrete_quantile(self, p: float) -> float:
        """Left-continuous generalized inverse for purely atomic laws.

        Ties land on the smaller atom position.
        """
        atoms = sorted(self.atoms())
        acc = 0.0
        for pos, w in atoms:
            acc += w
            if acc >= p - _WEIGHT_TOL:
                return pos
        return atoms[-1][0]


def _require(cond: bool, message: str):
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class Cauchy(ScalarMeasure):
    location: float = 0.0
    scale: float = 1.0
    variant = "cauchy"

    def __post_init__(self):
        _require(self.scale > 0, "cauchy scale must be positive")

    def segments(self):
        s, g = self.location, self.scale
        return (Segment(-math.pi / 2, math.pi / 2,
                        lambda th: s + g * np.tan(th),
                        lambda th: np.full_like(th, 1.0 / math.pi)),)

    def cdf(self, x):
        return 0.5 + math.atan((x - self.location) / self.scale) / math.pi

    def quantile(self, p):
        return self.location + self.scale * math.tan(math.pi * (p - 0.5))

    def pole(self, sign: float) -> complex:
        """Virtual pole: g(z) = 1/(z - pole) on the half-plane sign(Im z) = sign."""
        return self.location - 1j * self.scale * sign

    def closed_form_g(self, z):
        # The density pole in the opposite half-plane is the only residue.
        shift = 1j * self.scale if z.imag > 0 else -1j * self.scale
        return 1.0 / (z - self.location + shift)

    def closed_form_g_derivative(self, z, order):
        shift = 1j * self.scale if z.imag > 0 else -1j * self.scale
        return (-1.0) ** order * math.factorial(order) * (z - self.location + shift) ** (-(order + 1))

    def to_json(self):
        return {"variant": "cauchy", "location": self.location, "scale": self.scale}


@dataclass(frozen=True)
class PointMass(ScalarMeasure):
    position: float = 0.0
    variant = "pointmass"

    def atoms(self):
        return ((self.position, 1.0),)

    def cdf(self, x):
        return 1.0 if x >= self.position else 0.0

    def quantile(self, p):
        return self.position

    def closed_form_g(self, z):
        return 1.0 / (z - self.position)

    def closed_form_g_derivative(self, z, order):
        return (-1.0) ** order * math.factorial(order) * (z - self.position) ** (-(order + 1))

    def support_bound(self):
        return abs(self.position)

    def to_json(self):
        return {"variant": "pointmass", "position": self.position}


@dataclass(frozen=True)
class Bernoulli(ScalarMeasure):
    """Two symmetric atoms of weight 1/2 at center +- radius."""

    radius: float = 1.0
    center: float = 0.0
    variant = "bernoulli"

    def __post_init__(self):
        _require(self.radius > 0, "bernoulli radius must be positive")

    def atoms(self):
        return ((self.center - self.radius, 0.5), (self.center + self.radius, 0.5))

    def cdf(self, x):
        return sum(w for p, w in self.atoms() if p <= x)

    def quantile(self, p):
        return self._discrete_quantile(p)

    def closed_form_g(self, z):
        u = z - self.center
        return u / (u * u - self.radius ** 2)

    def closed_form_g_derivative(self, z, order):
        k = math.factorial(order) * (-1.0) ** order
        return 0.5 * k * ((z - self.center + self.radius) ** (-(order + 1))
                          + (z - self.center - self.radius) ** (-(order + 1)))

    def support_bound(self):
        return abs(self.center) + self.radius

    def to_json(self):
        return {"variant": "bernoulli", "radius": self.radius, "center": self.center}


@dataclass(frozen=True)
class Atomic(ScalarMeasure):
    """Finitely many atoms; weights strictly positive and summing to one."""

    points: tuple = ()
    variant = "atomic"

    def __post_init__(self):
        merged: dict = {}
        for pos, w in self.points:
            _require(w > 0, "atom weights must be positive")
            merged[float(pos)] = merged.get(float(pos), 0.0) + float(w)
        pts = tuple(sorted(merged.items()))
        _require(len(pts) > 0, "atomic law needs at least one atom")
        _require(abs(sum(w for _, w in pts) - 1.0) <= _WEIGHT_TOL, "atom weights must sum to 1")
        object.__setattr__(self, "points", pts)

    def atoms(self):
        return self.points

    def cdf(self, x):
        return sum(w for p, w in self.points if p <= x)

    def quantile(self, p):
        return self._discrete_quantile(p)

    def closed_form_g(self, z):
        return sum(w / (z - p) for p, w in self.points)

    def closed_form_g_derivative(self, z, order):
        k = math.factorial(order) * (-1.0) ** order
        return k * sum(w * (z - p) ** (-(order + 1)) for p, w in self.points)

    def support_bound(self):
        return max(abs(p) for p, _ in self.points)

    def to_json(self):
        return {"variant": "atomic", "atoms": [[p, w] for p, w in self.points]}


@dataclass(frozen=True)
class Quadrature(ScalarMeasure):
    """Discrete law on an explicit sorted grid (a frozen quadrature rule)."""

    nodes: tuple = ()
    weights: tuple = ()
    variant = "quadrature"

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        weights = tuple(float(w) for w in self.weights)
        _require(len(nodes) == len(weights) and len(nodes) > 0, "nodes/weights mismatch")
        _require(all(b > a for a, b in zip(nodes, nodes[1:])), "nodes must be strictly sorted")
        _require(all(w > 0 for w in weights), "weights must be positive")
        _require(abs(sum(weights) - 1.0) <= _WEIGHT_TOL, "weights must sum to 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def atoms(self):
        return tuple(zip(self.nodes, self.weights))

    def cdf(self, x):
        return sum(w for p, w in self.atoms() if p <= x)

    def quantile(self, p):
        return self._discrete_quantile(p)

    def closed_form_g(self, z):
        return sum(w / (z - p) for p, w in self.atoms())

    def closed_form_g_derivative(self, z, order):
        k = math.factorial(order) * (-1.0) ** order
        return k * sum(w * (z - p) ** (-(order + 1)) for p, w in self.atoms())

    def support_bound(self):
        return max(abs(self.nodes[0]), abs(self.nodes[-1]))

    def to_json(self):
        return {"variant": "quadrature", "nodes": list(self.nodes), "weights": list(self.weights)}


@dataclass(frozen=True)
class Semicircle(ScalarMeasure):
    variance: float = 1.0
    variant = "semicircle"

    def __post_init__(self):
        _require(self.variance > 0, "semicircle variance must be positive")

    @property
    def edge(self) -> float:
        return 2.0 * math.sqrt(self.variance)

    def segments(self):
        e = self.edge
        return (Segment(-math.pi / 2, math.pi / 2,
                        lambda th: e * np.sin(th),
                        lambda th: (2.0 / math.pi) * np.cos(th) ** 2),)

    def cdf(self, x):
        e = self.edge
        if x <= -e:
            return 0.0
        if x >= e:
            return 1.0
        u = x / e
        return 0.5 + (u * math.sqrt(1 - u * u) + math.asin(u)) / math.pi

    def quantile(self, p):
        return _cdf_bisect(self.cdf, -self.edge, self.edge, p)

    def support_bound(self):
        return self.edge

    def to_json(self):
        return {"variant": "semicircle", "variance": self.variance}


@dataclass(frozen=True)
class Arcsine(ScalarMeasure):
    radius: float = 2.0
    variant = "arcsine"

    def __post_init__(self):
        _require(self.radius > 0, "arcsine radius must be positive")

    def segments(self):
        r = self.radius
        return (Segment(-math.pi / 2, math.pi / 2,
                        lambda th: r * np.sin(th),
                        lambda th: np.full_like(th, 1.0 / math.pi)),)

    def cdf(self, x):
        if x <= -self.radius:
            return 0.0
        if x >= self.radius:
            return 1.0
        return 0.5 + math.asin(x / self.radius) / math.pi

    def quantile(self, p):
        return self.radius * math.sin(math.pi * (p - 0.5))

    def support_bound(self):
        return self.radius

    def to_json(self):
        return {"variant": "arcsine", "radius": self.radius}


@dataclass(frozen=True)
class TruncatedMeasure(ScalarMeasure):
    """Restriction of a base law to [-cutoff, cutoff] plus the defect at zero.

    The mass the window loses reappears as an atom at the origin, keeping the
    total equal to one.
    """

    base: ScalarMeasure = None
    cutoff: float = 1.0
    variant = "truncated"

    def __post_init__(self):
        _require(self.cutoff > 0, "cutoff must be positive")
        _require(isinstance(self.base, ScalarMeasure), "base must be a scalar law")
        _require(not isinstance(self.base, TruncatedMeasure), "nested truncation must be collapsed")

    @property
    def defect(self) -> float:
        return max(0.0, 1.0 - self.base.interval_mass(-self.cutoff, self.cutoff))

    def atoms(self):
        kept = [(p, w) for p, w in self.base.atoms() if -self.cutoff <= p <= self.cutoff]
        d = self.defect
        if d > 0.0:
            at0 = [w for p, w in kept if p == 0.0]
            if at0:
                kept = [(p, w + d if p == 0.0 else w) for p, w in kept]
            else:
                kept.append((0.0, d))
        return tuple(sorted(kept))

    def segments(self):
        out = []
        k = self.cutoff
        for seg in self.base.segments():
            lo, hi = _clip_segment(seg, -k, k)
            if lo is not None and hi > lo:
                out.append(Segment(lo, hi, seg.t_of, seg.weight))
        return tuple(out)

    def cdf(self, x):
        k = self.cutoff
        if x < -k:
            return 0.0
        base_part = self.base.cdf(min(x, k)) - self.base.cdf(-k) + self.base.atom_at(-k)
        return base_part + (self.defect if x >= 0.0 else 0.0)

    def quantile(self, p):
        return _cdf_bisect(self.cdf, -self.cutoff, self.cutoff, p)

    def support_bound(self):
        return self.cutoff

    def to_json(self):
        return {"variant": "truncated", "base": self.base.to_json(), "cutoff": self.cutoff}


def _clip_segment(seg: Segment, lo_t: float, hi_t: float):
    """Intersect a monotone-parametrized segment with a support window."""
    grid = np.linspace(seg.theta_lo, seg.theta_hi, 513)
    tvals = seg.t_of(grid)
    inside = (tvals >= lo_t) & (tvals <= hi_t)
    if not inside.any():
        return None, None
    idx = np.nonzero(inside)[0]
    th_lo, th_hi = grid[idx[0]], grid[idx[-1]]
    # refine endpoints by bisection on the monotone map
    th_lo = _invert_monotone(seg.t_of, grid[max(idx[0] - 1, 0)], th_lo, lo_t) \
        if idx[0] > 0 else seg.theta_lo
    th_hi = _invert_monotone(seg.t_of, th_hi, grid[min(idx[-1] + 1, len(grid) - 1)], hi_t) \
        if idx[-1] < len(grid) - 1 else seg.theta_hi
    return float(th_lo), float(th_hi)


def _invert_monotone(fn, a, b, target, iters=200):
    fa = float(fn(np.array([a]))[0]) - target
    for _ in range(iters):
        mid = (a + b) / 2.0
        fm = float(fn(np.array([mid]))[0]) - target
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return (a + b) / 2.0


def _cdf_bisect(cdf, lo, hi, p, iters=200):
    """Generalized inverse by bisection: smallest x with cdf(x) >= p."""
    if cdf(lo) >= p:
        return lo
    a, b = lo, hi
    for _ in range(iters):
        mid = (a + b) / 2.0
        if cdf(mid) >= p:
            b = mid
        else:
            a = mid
    return b


# ---------------------------------------------------------------------------
# transforms


def g_scalar(measure: ScalarMeasure, z: complex, tol: float = 1e-12) -> complex:
    """Cauchy transform g(z) = integral of 1/(z - t) d(mu).

    Closed forms for cauchy/pointmass/bernoulli/atomic/quadrature variants,
    adaptive quadrature otherwise.  Undefined on the real axis.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise RealAxisPoint("cauchy transform evaluated on the real axis")
    cf = measure.closed_form_g(z)
    if cf is not None:
        return complex(cf)
    total = sum(w / (z - p) for p, w in measure.atoms())
    for seg in measure.segments():
        val, _ = adaptive_integral(
            lambda th: seg.weight(th) / (z - seg.t_of(th)),
            seg.theta_lo, seg.theta_hi, tol=tol)
        total += complex(val)
    return complex(total)


def f_scalar(measure: ScalarMeasure, z: complex, tol: float = 1e-12) -> complex:
    """Reciprocal Cauchy transform F = 1/g; maps each half-plane into itself."""
    g = g_scalar(measure, z, tol=tol)
    return 1.0 / g


def g_derivative(measure: ScalarMeasure, z: complex, order: int, tol: float = 1e-12) -> complex:
    """Derivative of the Cauchy transform: (-1)^m m! integral (z-t)^-(m+1) d(mu)."""
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return g_scalar(measure, z, tol=tol)
    z = complex(z)
    if z.imag == 0.0:
        raise RealAxisPoint("derivative evaluated on the real axis")
    cf = measure.closed_form_g_derivative(z, order)
    if cf is not None:
        return complex(cf)
    sign = (-1.0) ** order * math.factorial(order)
    total = sign * sum(w * (z - p) ** (-(order + 1)) for p, w in measure.atoms())
    for seg in measure.segments():
        val, _ = adaptive_integral(
            lambda th: seg.weight(th) * (z - seg.t_of(th)) ** (-(order + 1)),
            seg.theta_lo, seg.theta_hi, tol=tol)
        total += sign * complex(val)
    return complex(total)


# ---------------------------------------------------------------------------
# truncation and tightness


@dataclass(frozen=True)
class TruncationResult:
    truncated: ScalarMeasure
    retained_mass: float
    cutoff: float


def truncate(measure: ScalarMeasure, cutoff: float) -> TruncationResult:
    """Restrict to [-cutoff, cutoff]; the lost mass becomes an atom at zero.

    Idempotent: once the support fits inside the window the law is returned
    unchanged.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if isinstance(measure, TruncatedMeasure) and cutoff >= measure.cutoff:
        return TruncationResult(measure, 1.0, cutoff)
    base = measure.base if isinstance(measure, TruncatedMeasure) else measure
    retained = measure.interval_mass(-cutoff, cutoff)
    if retained >= 1.0:
        return TruncationResult(measure, 1.0, cutoff)
    if not base.segments():
        # purely atomic: truncation stays in the atomic family
        kept = [(p, w) for p, w in measure.atoms() if -cutoff <= p <= cutoff]
        defect = 1.0 - sum(w for _, w in kept)
        if defect > 0.0:
            kept.append((0.0, defect))
        return TruncationResult(Atomic(points=tuple(kept)), retained, cutoff)
    return TruncationResult(TruncatedMeasure(base=base, cutoff=cutoff), retained, cutoff)


def tightness_cutoff(measures, epsilon: float, n_max: int = 2 ** 20):
    """Smallest integer N <= n_max with mu([-N, N]) > 1 - epsilon for every law.

    The inequality is strict.  Returns None when no such N exists within the
    search bound (the family is not uniformly tight at this resolution).
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    measures = list(measures)
    if not measures:
        raise ValueError("empty family")

    def ok(n):
        return all(m.interval_mass(-n, n) > 1.0 - epsilon for m in measures)

    if ok(1):
        return 1
    hi = 1
    while hi < n_max and not ok(min(hi * 2, n_max)):
        hi *= 2
    hi = min(hi * 2, n_max)
    if not ok(hi):
        return None
    lo = max(1, hi // 2)  # ok(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def quantile_nodes(measure: ScalarMeasure, count: int) -> np.ndarray:
    """Deterministic spectral grid: quantiles at midpoints (j - 1/2)/count."""
    if count < 1:
        raise DimensionMismatch("need at least one node")
    return np.array([measure.quantile((j - 0.5) / count) for j in range(1, count + 1)])


def realization(law: ScalarMeasure, n: int, gen) -> np.ndarray:
    """Random n x n Hermitian matrix whose spectral law approximates ``law``.

    A scaled GUE for semicircles; otherwise the quantile grid rotated by a
    Haar unitary, which makes independent realizations asymptotically free.
    """
    if isinstance(law, Semicircle):
        return math.sqrt(law.variance) * rngmod.gue(n, gen)
    u = rngmod.haar_unitary(n, gen)
    return (u * quantile_nodes(law, n)) @ u.conj().T


# ---------------------------------------------------------------------------
# serialization

_VARIANTS = {
    "cauchy": lambda d: Cauchy(location=float(d["location"]), scale=float(d["scale"])),
    "pointmass": lambda d: PointMass(position=float(d["position"])),
    "bernoulli": lambda d: Bernoulli(radius=float(d["radius"]), center=float(d.get("center", 0.0))),
    "arcsine": lambda d: Arcsine(radius=float(d["radius"])),
    "semicircle": lambda d: Semicircle(variance=float(d["variance"])),
    "atomic": lambda d: Atomic(points=tuple((float(p), float(w)) for p, w in d["atoms"])),
    "quadrature": lambda d: Quadrature(nodes=tuple(d["nodes"]), weights=tuple(d["weights"])),
    "truncated": lambda d: TruncatedMeasure(base=measure_from_json(d["base"]),
                                            cutoff=float(d["cutoff"])),
}


def measure_from_json(obj: dict) -> ScalarMeasure:
    try:
        builder = _VARIANTS[obj["variant"]]
        return builder(obj)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unknown or malformed law object: {exc}") from exc
