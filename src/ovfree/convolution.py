"""Additive free convolution through certified R-transforms.

Two distributions whose charts are certified at the same base point carry
R-transforms on their certified image balls.  Where those balls overlap
the transforms add, and the subordination equation

    R_X(w) + R_Y(w) + w^{-1} = b

can be solved for w = G_{X+Y}(b) by an outer Newton iteration whose inner
evaluations are themselves certified chart inversions.  The module also
provides the supporting a-priori estimates: truncation error sweeps for
scalar laws and a mass audit that catches pointwise G-limits which are not
transforms of probability laws.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from . import rng as rngmod
from .errors import (DimensionMismatch, LeftCertifiedBall, MarginViolation,
                     NoConvergence, UnsupportedPoint)
from .ovdist import MCEstimate, OVDistribution, ScalarEmbedded, mc_estimate_G
from .transforms import (CertifiedBall, bloch_certify, g_jacobian, invert_G,
                         omega_membership)

__all__ = [
    "image_overlap", "ConvolutionTask", "eval_G_of_sum", "sampled_G_of_sum",
    "AdditivityReport", "verify_additivity",
    "MCAdditivityReport", "verify_additivity_mc",
    "TruncationRow", "truncation_error_bound", "truncation_sweep",
    "ConvergenceReport", "convergence_check",
]

_TARGET_SHRINK = 0.9         # sample_targets' share of the overlap radius
_NEWTON_RESIDUAL_TOL = 1e-9  # eval_G_of_sum's residual, relative to max(1, ||b||)
_NEWTON_MAX_STEPS = 60
_ADDITIVITY_TOL = 1e-8       # verify_additivity's pass bound
_MC_SIGMA = 3.0              # verify_additivity_mc's pass bound, in standard errors
_PROBE_HEIGHT = 1e6          # convergence_check reads the limit's mass at i * this


def image_overlap(ball_x: CertifiedBall, ball_y: CertifiedBall):
    """Largest ball inscribed in the intersection of two certified images.

    Returns ``(center, radius)``.  Both charts must share the base point;
    if the image balls are disjoint the two R-transforms have no common
    certified evaluation point and ``UnsupportedPoint`` is raised.
    """
    if (ball_x.center.shape != ball_y.center.shape
            or not np.allclose(ball_x.center, ball_y.center)):
        raise DimensionMismatch("charts must be certified at the same base point")
    cx, cy = ball_x.image_center, ball_y.image_center
    px, py = ball_x.image_radius, ball_y.image_radius
    gap = float(np.linalg.norm(cy - cx))
    if gap >= px + py:
        raise UnsupportedPoint(
            f"certified image balls are {gap:.3e} apart with radii {px:.3e} "
            f"and {py:.3e}; no shared evaluation point")
    if gap + py <= px:
        return cy.copy(), py
    if gap + px <= py:
        return cx.copy(), px
    t = (px - py + gap) / (2.0 * gap)
    return cx + t * (cy - cx), (px + py - gap) / 2.0


@dataclass(frozen=True, eq=False)
class ConvolutionTask:
    """A pair of distributions certified at a shared base point.

    ``overlap_center``/``overlap_radius`` describe the ball on which both
    R-transforms are simultaneously defined.
    """

    x: OVDistribution
    y: OVDistribution
    ball_x: CertifiedBall
    ball_y: CertifiedBall
    overlap_center: np.ndarray
    overlap_radius: float

    @classmethod
    def certify(cls, x: OVDistribution, y: OVDistribution, lam: float,
                n_pairs: int, seed: int = 0) -> "ConvolutionTask":
        if x.base_dim != y.base_dim:
            raise DimensionMismatch(
                "summands must act over the same base algebra")
        ball_x = bloch_certify(x, lam, n_pairs, seed=seed)
        ball_y = bloch_certify(y, lam, n_pairs, seed=seed)
        center, radius = image_overlap(ball_x, ball_y)
        return cls(x, y, ball_x, ball_y, center, radius)

    def r_sum(self, w) -> np.ndarray:
        """R_X(w) + R_Y(w) for w in the shared image ball."""
        w = linalg.as_matrix(w)
        winv = linalg.inverse(w)
        bx = invert_G(self.x, self.ball_x, w)
        by = invert_G(self.y, self.ball_y, w)
        return bx + by - 2.0 * winv

    def sum_argument(self, w) -> np.ndarray:
        """b = R_X(w) + R_Y(w) + w^{-1}, the argument at which G_{X+Y}(b) = w.

        G_{X+Y}(b) = w holds only when b keeps the base point's alternating
        pattern, so a b outside Omega raises :class:`WrongPattern` or
        :class:`PerturbationTooLarge` (:func:`omega_membership`).
        """
        b = self.r_sum(w) + linalg.inverse(w)
        omega_membership(b, self.ball_x.n_pairs, self.ball_x.base_dim)
        return b

    def sample_targets(self, count: int, seed: int = 0) -> list:
        """Deterministic sample of points in the shared image ball."""
        dim = self.overlap_center.shape[0]
        gen = rngmod.stream(seed, 3 * dim + 1)
        points = []
        for _ in range(count):
            y = rngmod.complex_normal((dim, dim), gen)
            y /= np.linalg.norm(y)
            points.append(self.overlap_center
                          + _TARGET_SHRINK * self.overlap_radius * gen.random() * y)
        return points


def eval_G_of_sum(task: ConvolutionTask, b) -> np.ndarray:
    """G_{X+Y}(b) by Newton iteration on R_X(w) + R_Y(w) + w^{-1} = b.

    The iteration starts at the center of the shared image ball and must
    stay inside it (each inner R evaluation is only certified there), so
    only arguments b whose subordination solution lies in that ball are
    reachable; the step is halved when a full Newton step would exit, and
    ``LeftCertifiedBall`` is raised if no admissible step remains.
    """
    b = linalg.as_matrix(b)
    if b.shape != task.overlap_center.shape:
        raise DimensionMismatch("argument does not match the certified charts")
    dim = b.shape[0]
    w = task.overlap_center.copy()
    tol = _NEWTON_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(b)))
    for _ in range(_NEWTON_MAX_STEPS):
        winv = linalg.inverse(w)
        bx = invert_G(task.x, task.ball_x, w)
        by = invert_G(task.y, task.ball_y, w)
        residual = bx + by - winv - b
        last = float(np.linalg.norm(residual))
        if last <= tol:
            return w
        # d(b_x)/dw is the inverse Jacobian of G_X at b_x; the explicit
        # -w^{-1} h w^{-1} from the w^{-1} term closes the derivative.
        jac = (np.linalg.inv(g_jacobian(task.x, bx))
               + np.linalg.inv(g_jacobian(task.y, by))
               + np.kron(winv, winv.T))
        step = np.linalg.solve(jac, -residual.reshape(-1)).reshape(dim, dim)
        for _ in range(12):
            candidate = w + step
            if (np.linalg.norm(candidate - task.ball_x.image_center)
                    < task.ball_x.image_radius
                    and np.linalg.norm(candidate - task.ball_y.image_center)
                    < task.ball_y.image_radius):
                break
            step = 0.5 * step
        else:
            raise LeftCertifiedBall(
                "Newton iterate left the shared certified image ball")
        w = candidate
    raise NoConvergence("subordination Newton did not reach the tolerance: "
                        f"{_NEWTON_MAX_STEPS} steps, last residual {last:.1e} "
                        f"against {tol:.1e}")


# ---------------------------------------------------------------------------
# additivity checks


@dataclass(frozen=True)
class AdditivityReport:
    deviations: tuple
    tolerance: float

    @property
    def worst(self) -> float:
        return max(self.deviations)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def verify_additivity(task: ConvolutionTask, sum_dist: OVDistribution,
                      count: int = 20, seed: int = 0) -> AdditivityReport:
    """Check G_{X+Y}(R_X(w) + R_Y(w) + w^{-1}) = w on sampled points.

    ``sum_dist`` must be the distribution of X + Y obtained independently
    of the transform machinery (Cauchy scales add, semicircular
    covariances add, deterministic operators add), so the identity is a
    genuine cross-check rather than a tautology.
    """
    deviations = []
    for w in task.sample_targets(count, seed=seed):
        b_sum = task.sum_argument(w)
        value = sum_dist.eval_G(b_sum)
        deviations.append(float(np.linalg.norm(value - w)))
    return AdditivityReport(tuple(deviations), _ADDITIVITY_TOL)


def sampled_G_of_sum(task: ConvolutionTask, sum_model: OVDistribution, b,
                     big_dim: int, trials: int, seed: int) -> MCEstimate:
    """Monte Carlo estimate of G_{X+Y}(b) from a sampled model of X + Y.

    At an Omega point every block-amplified sampled resolvent is bounded by
    1/(m - e), with m the smallest diagonal-block margin of ``b`` and e its
    off-block norm, whatever the model; the norm gate does not keep the
    samples bounded.  It refuses models whose norm bound reaches m - e,
    those with no finite norm bound included, because their finite-N bias
    is not measured: ``MarginViolation`` is raised for them.
    """
    bound = sum_model.norm_bound()
    point = omega_membership(b, task.ball_x.n_pairs, task.ball_x.base_dim)
    if not bound < point.margin:
        raise MarginViolation(
            f"model norm bound {bound:.3e} reaches the argument margin "
            f"{point.margin:.3e}; the finite-N bias of such a model is not measured")
    return mc_estimate_G(sum_model, b, big_dim=big_dim, trials=trials, seed=seed)


@dataclass(frozen=True)
class MCAdditivityReport:
    deviations: tuple       # entrywise worst |mean - w| per point
    stderrs: tuple
    sigma: float

    @property
    def passed(self) -> bool:
        return all(d <= self.sigma * s
                   for d, s in zip(self.deviations, self.stderrs))


def verify_additivity_mc(task: ConvolutionTask, sum_model: OVDistribution,
                         count: int = 3, seed: int = 0, big_dim: int = 300,
                         trials: int = 12) -> MCAdditivityReport:
    """Monte Carlo additivity check against a sampled model of X + Y.

    Accepts when every sampled subordination point is reproduced by the
    model's estimated transform (:func:`sampled_G_of_sum`) within
    ``_MC_SIGMA`` standard errors.
    """
    deviations, stderrs = [], []
    for i, w in enumerate(task.sample_targets(count, seed=seed)):
        b_sum = task.sum_argument(w)
        est = sampled_G_of_sum(task, sum_model, b_sum, big_dim=big_dim,
                               trials=trials, seed=seed + 7 * i + 1)
        deviations.append(float(np.abs(est.mean - w).max()))
        stderrs.append(est.stderr)
    return MCAdditivityReport(tuple(deviations), tuple(stderrs), _MC_SIGMA)


# ---------------------------------------------------------------------------
# truncation control


@dataclass(frozen=True)
class TruncationRow:
    cutoff: float
    retained_mass: float
    error: float
    bound: float

    @property
    def within(self) -> bool:
        return self.error <= self.bound


def truncation_error_bound(b, retained_mass: float) -> float:
    """A priori bound on ||G_mu(b) - G_mu_k(b)|| after truncating mu.

    Requires an argument with a sign-definite imaginary part; then each
    scalar resolvent is bounded by the reciprocal margin, the relocated
    tail mass contributes twice that, and the bound is relaxed to the
    square root of the defect (monotone in the retained mass, convenient
    for sweeps).
    """
    b = linalg.as_matrix(b)
    margin = max(linalg.half_plane_margin(b), linalg.half_plane_margin(-b))
    if margin <= 0.0:
        raise MarginViolation(
            "truncation bound requires a sign-definite argument")
    defect = max(0.0, 1.0 - float(retained_mass))
    norm = linalg.operator_norm(b)
    return math.sqrt(defect) * (1.0 + norm / margin) / margin


def truncation_sweep(law: measures.ScalarMeasure, b,
                     cutoffs=(1, 2, 4, 8, 16, 32)) -> tuple:
    """Truncation error against its a-priori bound over a cutoff ladder."""
    b = linalg.as_matrix(b)
    full = ScalarEmbedded(law).eval_G(b)
    rows = []
    for cutoff in cutoffs:
        result = measures.truncate(law, float(cutoff))
        approx = ScalarEmbedded(result.truncated).eval_G(b)
        rows.append(TruncationRow(
            cutoff=float(cutoff),
            retained_mass=result.retained_mass,
            error=float(linalg.operator_norm(full - approx)),
            bound=truncation_error_bound(b, result.retained_mass),
        ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# convergence audit


@dataclass(frozen=True)
class ConvergenceReport:
    sup_errors: tuple       # per distribution, sup over the probe points
    limit_mass: float
    mass_tolerance: float
    mass_deficit: bool

    @property
    def final_error(self) -> float:
        return self.sup_errors[-1]


def convergence_check(dists, probes, limit,
                      mass_tol: float = 0.05) -> ConvergenceReport:
    """Pointwise G-convergence toward a limit, with a mass audit.

    ``limit`` may be a distribution or a bare matrix function of the
    argument.  A sequence can converge pointwise to a function that is not
    the transform of any probability law -- mass escaping to infinity
    shows up as lim z G(z) < 1 along the imaginary axis and is flagged as
    a deficit instead of being accepted as convergence.
    """
    probes = [linalg.as_matrix(p) for p in probes]
    if not probes:
        raise ValueError("need at least one probe point")
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    limit_fn = limit.eval_G if isinstance(limit, OVDistribution) else limit
    sup_errors = []
    for dist in dists:
        worst = 0.0
        for probe in probes:
            delta = dist.eval_G(probe) - limit_fn(probe)
            worst = max(worst, float(linalg.operator_norm(delta)))
        sup_errors.append(worst)
    dim = probes[0].shape[0]
    tall = 1j * _PROBE_HEIGHT * np.eye(dim)
    mass = float((1j * _PROBE_HEIGHT * np.trace(limit_fn(tall)) / dim).real)
    return ConvergenceReport(tuple(sup_errors), mass, mass_tol,
                             mass < 1.0 - mass_tol)
