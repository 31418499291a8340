"""Compositions of two-atom reciprocal transforms with prescribed critical points.

A two-atom law centered at s with atom distance r has reciprocal Cauchy
transform F(z) = (z - s) - r^2 / (z - s), a self-map of each half-plane.
Given targets z_1, ..., z_m in the upper half-plane, choosing the j-th
stage parameters from the running image w_j = (F_{j-1} o ... o F_1)(z_j)
as s_j = Re w_j, r_j = Im w_j makes F_j'(w_j) = 1 + r_j^2/(i r_j)^2 = 0,
so the full composition has vanishing derivative -- and hence no local
inverse -- at every target.  Each stage is a genuine transform of a
probability law, so the composition is one as well.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RealAxisPoint, UnsupportedPoint

__all__ = [
    "BernoulliStage", "build_killer", "eval_killer", "killer_jet",
    "killer_derivative", "Witness", "non_invertibility_witness",
]

_DEDUP_TOL = 1e-9        # build_killer merges targets closer than this
_WITNESS_RADIUS = 1e-3   # largest circle non_invertibility_witness searches
_WITNESS_GRID = 64       # antipodal pairs it tries on that circle


@dataclass(frozen=True)
class BernoulliStage:
    """One composition factor F(z) = (z - shift) - radius^2 / (z - shift)."""

    shift: float
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("stage radius must be positive")

    def value(self, z: complex) -> complex:
        u = z - self.shift
        return u - self.radius ** 2 / u

    def derivative(self, z: complex) -> complex:
        u = z - self.shift
        return 1.0 + self.radius ** 2 / (u * u)

    def second(self, z: complex) -> complex:
        u = z - self.shift
        return -2.0 * self.radius ** 2 / (u * u * u)


def build_killer(targets) -> tuple:
    """Stages whose composition has a critical point at every target.

    Targets closer than ``_DEDUP_TOL`` are treated as one.  All targets
    must lie in the open upper half-plane.
    """
    kept = []
    for t in targets:
        t = complex(t)
        if t.imag <= 0.0:
            raise UnsupportedPoint(
                "killer targets must lie in the open upper half-plane")
        if all(abs(t - k) > _DEDUP_TOL for k in kept):
            kept.append(t)
    if not kept:
        raise UnsupportedPoint("need at least one target")
    stages = []
    for t in kept:
        w = eval_killer(stages, t)
        stages.append(BernoulliStage(shift=w.real, radius=w.imag))
    return tuple(stages)


def eval_killer(stages, z: complex) -> complex:
    if complex(z).imag == 0.0:
        raise RealAxisPoint("composition evaluated on the real axis")
    v = complex(z)
    for stage in stages:
        v = stage.value(v)
    return v


def killer_jet(stages, z: complex):
    """(value, first, second derivative) of the composition at z."""
    if complex(z).imag == 0.0:
        raise RealAxisPoint("composition evaluated on the real axis")
    v, d1, d2 = complex(z), 1.0 + 0j, 0.0 + 0j
    for stage in stages:
        sd1 = stage.derivative(v)
        d2 = stage.second(v) * d1 * d1 + sd1 * d2
        d1 = sd1 * d1
        v = stage.value(v)
    return v, d1, d2


def killer_derivative(stages, z: complex) -> complex:
    return killer_jet(stages, z)[1]


@dataclass(frozen=True)
class Witness:
    """Two separated points with nearly identical images."""

    point_a: complex
    point_b: complex
    image_gap: float
    separation: float


def non_invertibility_witness(stages, z0: complex):
    """Search for two points near z0 that the composition cannot tell apart.

    Around a critical point the map is quadratic to leading order with
    contact constant |f''(z0)|/2, so antipodal points on a small circle
    share their image up to the cubic remainder.  Returns ``None`` when
    the derivative at z0 is large enough (above 0.1) for the map to be
    locally invertible at this scale, or when no pairing beats the
    acceptance gap of 0.01 times the circle's radius,
    min(``_WITNESS_RADIUS``, Im z0 / 2).
    """
    z0 = complex(z0)
    _, d1, _ = killer_jet(stages, z0)
    if abs(d1) > 0.1:
        return None
    delta = min(_WITNESS_RADIUS, 0.5 * z0.imag)
    best_gap, best_theta = np.inf, 0.0
    for theta in np.linspace(0.0, np.pi, _WITNESS_GRID, endpoint=False):
        offset = delta * np.exp(1j * theta)
        gap = abs(eval_killer(stages, z0 + offset)
                  - eval_killer(stages, z0 - offset))
        if gap < best_gap:
            best_gap, best_theta = gap, theta
    if best_gap > 1e-2 * delta:
        return None
    offset = delta * np.exp(1j * best_theta)
    return Witness(point_a=z0 + offset, point_b=z0 - offset,
                   image_gap=float(best_gap), separation=2.0 * delta)
