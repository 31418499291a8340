"""Certified local inversion of matrix Cauchy transforms.

The transform G is inverted near distinguished base points

    d(lam) = diag(+i lam, -i lam, +i lam, ...)    (2n blocks of size m)

whose alternating imaginary signs make direct sums of upper and lower
half-plane data reachable in one argument.  Rather than inverting G in the
b-variable, everything runs in the inverted chart w = b^{-1} through

    K(w) = G(w^{-1}),

because K is close to the identity map near w0 = d(lam)^{-1} whenever the
operator is small at scale lam; a quantitative inverse function theorem
(Bloch-type) then yields explicit radii: a domain ball in w on which K is
injective and an image ball around K(w0) that is entirely covered.  Both
radii come out proportional to lam for operators that are tight at that
scale.  All radii are in the Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, rng as rngmod
from .errors import (BNotDominant, DerivativeSingular, DimensionMismatch,
                     LeftCertifiedBall, MarginViolation, NoConvergence,
                     PerturbationTooLarge, UnsupportedPoint, WrongPattern)
from .measures import ScalarMeasure, adaptive_integral
from .ovdist import OVDistribution, ScalarEmbedded

_JACOBIAN_SAFETY = 0.9     # shrink on the measured smallest singular value
_VARIATION_SAFETY = 1.5    # inflate on the sampled sphere variation
_CHART_RADIUS_FACTOR = 0.5  # chart ball radius R = factor * lam
_NEWTON_RESIDUAL_TOL = 1e-11  # invert_G's residual, relative to max(1, ||target||)
_NEWTON_MAX_STEPS = 100


# ---------------------------------------------------------------------------
# the alternating-block domain


@dataclass(frozen=True)
class OmegaPoint:
    """A matrix argument certified to have the alternating block pattern.

    The matrix splits into 2 * n_pairs diagonal blocks of size base_dim whose
    imaginary parts are definite with alternating sign (+, -, +, ...).  The
    usable margin is the smallest block margin less the norm of whatever sits
    off the block diagonal.
    """

    matrix: np.ndarray
    n_pairs: int
    base_dim: int
    block_margins: tuple
    off_norm: float

    @property
    def margin(self) -> float:
        return min(self.block_margins) - self.off_norm

    def resolvent_envelope(self, operator_bound: float) -> float:
        """Certified bound on ||(b - T x 1)^{-1}|| for self-adjoint T.

        Valid for every T with ||T|| <= operator_bound: the block-diagonal
        part inverts with norm 1/margin blockwise, and the total perturbation
        (off-blocks plus T) is absorbed by a geometric series.
        """
        if operator_bound >= self.margin:
            raise MarginViolation(
                f"operator bound {operator_bound:.4g} reaches the point's "
                f"margin {self.margin:.4g}")
        return 1.0 / (self.margin - operator_bound)


def omega_membership(b, n_pairs: int, base_dim: int = 1) -> OmegaPoint:
    """Certify the alternating pattern of ``b`` or explain why it fails."""
    b = linalg.as_matrix(b)
    dim = 2 * n_pairs * base_dim
    if b.shape[0] != dim:
        raise DimensionMismatch(
            f"expected dim {dim} for {n_pairs} block pairs of size {base_dim}")
    margins = []
    block_diag = np.zeros_like(b)
    for j in range(2 * n_pairs):
        sl = slice(j * base_dim, (j + 1) * base_dim)
        block = b[sl, sl]
        block_diag[sl, sl] = block
        sign = 1.0 if j % 2 == 0 else -1.0
        margin = linalg.half_plane_margin(sign * block)
        if margin <= 0.0:
            raise WrongPattern(
                f"block {j} needs a {'positive' if sign > 0 else 'negative'} "
                f"definite imaginary part (margin {sign * margin:+.4g})")
        margins.append(float(margin))
    off_norm = linalg.operator_norm(b - block_diag)
    if off_norm >= min(margins):
        raise PerturbationTooLarge(
            f"off-block norm {off_norm:.4g} swallows the smallest block "
            f"margin {min(margins):.4g}")
    return OmegaPoint(b, n_pairs, base_dim, tuple(margins), off_norm)


def base_point(lam: float, n_pairs: int, base_dim: int = 1) -> np.ndarray:
    """The distinguished point d(lam) with alternating blocks +-i lam."""
    if lam <= 0:
        raise ValueError("the scale must be positive")
    signs = np.repeat([1.0 if j % 2 == 0 else -1.0 for j in range(2 * n_pairs)],
                      base_dim)
    return np.diag(1j * lam * signs)


# ---------------------------------------------------------------------------
# the inverted chart


def k_map(dist: OVDistribution, w) -> np.ndarray:
    """K(w) = G(w^{-1}), the transform in the inverted chart."""
    w = linalg.as_matrix(w)
    return dist.eval_G(linalg.inverse(w))


def _matrix_units(dim: int) -> np.ndarray:
    """The dim^2 matrix units as a (dim^2, dim, dim) stack, row-major in (u, v)."""
    return np.eye(dim * dim, dtype=complex).reshape(-1, dim, dim)


def k_jacobian(dist: OVDistribution, w) -> np.ndarray:
    """Complex Jacobian of the chart map on matrix units, (dim^2, dim^2).

    The column of the unit h is dK_w[h] = dG_{w^{-1}}[-w^{-1} h w^{-1}];
    ``dist.jacobian`` takes all dim^2 directions in one call, which a scalar
    law answers with one expectation.
    """
    winv = linalg.inverse(w)
    return dist.jacobian(winv, np.array([-winv @ h @ winv
                                         for h in _matrix_units(winv.shape[0])]))


def g_jacobian(dist: OVDistribution, b) -> np.ndarray:
    """Complex Jacobian of G itself on matrix units, (dim^2, dim^2).

    ``dist.jacobian`` takes the dim^2 units in one call, which a scalar law
    answers with one expectation.
    """
    b = linalg.as_matrix(b)
    return dist.jacobian(b, _matrix_units(b.shape[0]))


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifiedBall:
    """Quantified invertibility of the chart map around a base point.

    Within Frobenius distance ``domain_radius`` of ``center`` the map K is
    injective, and every target within ``image_radius`` of ``image_center``
    is attained from that domain ball.  ``jacobian`` is K's Jacobian at
    ``center``, kept so that :func:`invert_G` starts from it; it is not
    part of the JSON form.
    """

    lam: float
    n_pairs: int
    base_dim: int
    center: np.ndarray          # w0 = d(lam)^{-1}
    image_center: np.ndarray    # K(w0)
    chart_radius: float         # R, where the variation was measured
    jacobian_floor: float       # a, safety-margined smallest singular value
    variation: float            # M, safety-margined sup of ||K - K(w0)|| at radius R
    domain_radius: float        # r = R^2 a / (4 M)
    image_radius: float         # P = R^2 a^2 / (8 M)
    jacobian: np.ndarray = field(repr=False)  # k_jacobian(dist, w0)

    def to_json(self) -> dict:
        return {
            "lam": self.lam, "n_pairs": self.n_pairs, "base_dim": self.base_dim,
            "center": linalg.matrix_to_json(self.center),
            "image_center": linalg.matrix_to_json(self.image_center),
            "chart_radius": self.chart_radius,
            "jacobian_floor": self.jacobian_floor,
            "variation": self.variation,
            "domain_radius": self.domain_radius,
            "image_radius": self.image_radius,
        }


def bloch_certify(dist: OVDistribution, lam: float, n_pairs: int,
                  seed: int = 0) -> CertifiedBall:
    """Measure the chart map around d(lam) and certify inversion radii.

    The smallest singular value of the Jacobian on matrix units gives the
    local expansion floor ``a`` (taken with a safety haircut); the sup of
    ||K(w0+y) - K(w0)|| over the sphere of chart radius R, sampled along
    2 dim^2 random complex directions plus the extreme singular directions,
    gives the growth bound ``M`` (taken with a safety surcharge).  The
    quantitative inverse function theorem then certifies injectivity on the
    ball of radius R^2 a / (4M) and coverage of the image ball of radius
    R^2 a^2 / (8M).
    """
    d = base_point(lam, n_pairs, dist.base_dim)
    dim = d.shape[0]
    w0 = linalg.inverse(d)
    image_center = k_map(dist, w0)

    jac = k_jacobian(dist, w0)
    svals = np.linalg.svd(jac, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise DerivativeSingular("chart Jacobian is numerically singular "
                                 "at this base point")
    a = _JACOBIAN_SAFETY * float(svals[-1])

    radius = _CHART_RADIUS_FACTOR * lam
    gen = rngmod.stream(seed, 2 * n_pairs * dim)
    directions = []
    for _ in range(2 * dim * dim):
        y = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        directions.append(y / np.linalg.norm(y))
    _, _, vh = np.linalg.svd(jac)
    directions.append(vh[0].conj().reshape(dim, dim)
                      / np.linalg.norm(vh[0]))      # fastest-growing direction
    directions.append(vh[-1].conj().reshape(dim, dim)
                      / np.linalg.norm(vh[-1]))     # slowest direction
    variation = 0.0
    for y in directions:
        value = k_map(dist, w0 + radius * y)
        variation = max(variation, float(np.linalg.norm(value - image_center)))
    m = _VARIATION_SAFETY * variation
    if m <= 0.0:
        raise DerivativeSingular("chart map shows no variation at this scale")

    return CertifiedBall(
        lam=lam, n_pairs=n_pairs, base_dim=dist.base_dim,
        center=w0, image_center=image_center,
        chart_radius=radius, jacobian_floor=a, variation=m,
        domain_radius=radius ** 2 * a / (4.0 * m),
        image_radius=radius ** 2 * a ** 2 / (8.0 * m),
        jacobian=jac,
    )


# ---------------------------------------------------------------------------
# certified inversion


def invert_G(dist: OVDistribution, ball: CertifiedBall, target) -> np.ndarray:
    """Solve G(b) = target for the unique b with b^{-1} in the certified ball.

    Newton iteration on the chart map, started at the ball center from the
    value and Jacobian that :func:`bloch_certify` measured there.  The
    target must lie in the certified image ball; the returned argument
    meets ``_NEWTON_RESIDUAL_TOL`` in Frobenius norm within
    ``_NEWTON_MAX_STEPS`` steps, else :class:`NoConvergence` is raised.
    """
    target = linalg.as_matrix(target)
    if target.shape != ball.center.shape:
        raise DimensionMismatch("target dimension does not match the ball")
    dist_to_center = float(np.linalg.norm(target - ball.image_center))
    if dist_to_center > ball.image_radius:
        raise UnsupportedPoint(
            f"target is {dist_to_center:.3e} from the image center, outside "
            f"the certified radius {ball.image_radius:.3e}")
    dim = target.shape[0]
    w = ball.center.copy()
    value, jac = ball.image_center, ball.jacobian
    tol = _NEWTON_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(target)))
    for steps in range(_NEWTON_MAX_STEPS):
        residual = value - target
        last = float(np.linalg.norm(residual))
        if last <= tol:
            return linalg.inverse(w)
        if steps:
            jac = k_jacobian(dist, w)
        step = np.linalg.solve(jac, -residual.reshape(-1)).reshape(dim, dim)
        w = w + step
        if np.linalg.norm(w - ball.center) > 1.5 * ball.domain_radius:
            raise LeftCertifiedBall(
                "Newton iterate escaped the certified domain ball")
        value = k_map(dist, w)
    raise NoConvergence("chart Newton did not reach the residual tolerance: "
                        f"{_NEWTON_MAX_STEPS} steps, last residual {last:.1e} "
                        f"against {tol:.1e}")


def r_transform(dist: OVDistribution, ball: CertifiedBall, w) -> np.ndarray:
    """R(w) = G^{<-1>}(w) - w^{-1} on the certified image ball."""
    w = linalg.as_matrix(w)
    return invert_G(dist, ball, w) - linalg.inverse(w)


# ---------------------------------------------------------------------------
# the two-block resolvent identity


@dataclass(frozen=True)
class BlockIdentityReport:
    lhs: np.ndarray
    rhs: np.ndarray
    deviation: float


def block_resolvent_identity_check(law: ScalarMeasure, B) -> BlockIdentityReport:
    """Check E[(B - m(X))^{-1}] = B^{-1} - B^{-1} G(D + B^{-1}) B^{-1}.

    Here m(t) = diag((t-i)^{-1}, (t+i)^{-1}) per block pair (amplified to
    B's dimension), D is the matching diag(i, -i) amplification and G the
    embedded transform of the law.  The left side is integrated directly
    against the law; the identity routes it through a single transform
    evaluation.  ||m(X)|| <= 1 always, so B needs margin > 1.
    """
    B = linalg.as_matrix(B)
    if B.shape[0] % 2 != 0:
        raise DimensionMismatch("the block symbol needs an even dimension")
    k = B.shape[0] // 2
    d0 = np.kron(np.eye(k), np.diag([1j, -1j]))
    if max(linalg.half_plane_margin(B), linalg.half_plane_margin(-B)) <= 1.0:
        raise BNotDominant("need |margin(B)| > 1 = ||m(X)|| for the "
                           "left side to exist")

    binv = linalg.inverse(B)
    rhs = binv - binv @ ScalarEmbedded(law).eval_G(d0 + binv) @ binv

    dim = B.shape[0]
    eye = np.eye(dim)
    lhs = np.zeros((dim, dim), dtype=complex)
    for pos, weight in law.atoms():
        lhs += weight * np.linalg.inv(B - np.linalg.inv(pos * eye - d0))

    def integrand(seg):
        def fn(thetas):
            ts = seg.t_of(thetas)
            ws = seg.weight(thetas)
            symbols = np.linalg.inv(ts[:, None, None] * eye[None] - d0[None])
            return np.linalg.inv(B[None] - symbols) * ws[:, None, None]
        return fn

    for seg in law.segments():
        value, _ = adaptive_integral(integrand(seg), seg.theta_lo, seg.theta_hi)
        lhs += value
    return BlockIdentityReport(lhs, rhs, float(np.abs(lhs - rhs).max()))
