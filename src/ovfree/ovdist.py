"""Operator-valued distributions over the base algebra of n x n matrices.

Each variant knows how to evaluate the matrix Cauchy transform

    G(b) = E[(b - a (x) 1)^{-1}]

at matrix arguments whose spectrum avoids the real axis.  Arguments may be
amplified: a distribution of base dimension n accepts any (n k) x (n k)
argument and treats the operator as 1_k (x) a, so direct sums of certified
points stay inside the calculus.  A scalar law's derivative is one
expectation over a whole stack of directions,

    dG_b[h] = -E[R h R],    R = (b - x)^{-1},

with one inverse per quadrature node shared by every direction, so its
``jacobian`` costs one quadrature.  The other variants read a derivative off
their own ``eval_G``, since G is a matricial function:

    G([[b, h], [0, b]]) = [[G(b), dG_b[h]], [0, G(b)]].

Either way a derivative at b needs edge(b) <= ``linalg.MAX_DIM // 2``.

Variants that admit a faithful random-matrix realization also expose
``sample``; :func:`mc_estimate_G` turns samples into a G estimate with a
standard error.  :class:`FreeSum` has no ``eval_G``: it is evaluated by
sampling only, as a check of the subordination solver for sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, measures, rng as rngmod
from .errors import (DimensionMismatch, NoConvergence, OutsideResolvent,
                     RealAxisPoint, SingularMatrix, UnsupportedPoint)

_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 20000


class OVDistribution:
    """Interface shared by all operator-valued distribution variants."""

    base_dim: int = 1

    def eval_G(self, b) -> np.ndarray:
        raise NotImplementedError

    def eval_dG(self, b, h) -> np.ndarray:
        """Directional derivative dG_b[h].

        Raises :class:`DimensionMismatch` when edge(b) > ``linalg.MAX_DIM // 2``.
        """
        raise NotImplementedError

    def jacobian(self, b, directions) -> np.ndarray:
        """(dim^2, k) matrix whose columns are dG_b along the k ``directions``.

        One :meth:`eval_dG` call per direction, each column flattened row-major.
        """
        return np.array([self.eval_dG(b, h).reshape(-1) for h in directions]).T

    def norm_bound(self) -> float:
        """Upper bound on the operator norm (math.inf when unbounded)."""
        return math.inf

    def sample(self, big_dim: int, gen) -> np.ndarray:
        raise UnsupportedPoint(f"{type(self).__name__} has no matrix model")

    def _check_arg(self, b) -> np.ndarray:
        b = linalg.as_matrix(b)
        if b.shape[0] % self.base_dim != 0:
            raise DimensionMismatch(
                f"argument dim {b.shape[0]} is not a multiple of base dim {self.base_dim}")
        return b


def _spectrum_off_axis(b: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(b)
    if np.any(np.abs(eigs.imag) <= 1e-14 * max(1.0, np.abs(eigs).max())):
        raise RealAxisPoint("argument has (numerically) real spectrum")
    return eigs


# ---------------------------------------------------------------------------
# scalar law embedded on the diagonal


@dataclass(frozen=True)
class ScalarEmbedded(OVDistribution):
    """A single scalar random variable viewed over matrix coefficients."""

    law: measures.ScalarMeasure
    base_dim: int = 1

    def norm_bound(self) -> float:
        return self.law.support_bound()

    def eval_G(self, b) -> np.ndarray:
        b = self._check_arg(b)
        res = _pole_resolvent(self.law, b)
        if res is not None:
            return res
        _spectrum_off_axis(b)
        return self._integrate(b)

    def eval_dG(self, b, h) -> np.ndarray:
        """dG_b[h] = -E[R h R], R = (b - x)^{-1}, for one direction or a (k, m, m) stack.

        One expectation serves the whole stack, with one m x m inverse per
        node; a law with a virtual pole, at b in an open half-plane, gives
        -G h G with G its closed-form resolvent.  Returns the shape of ``h``.
        """
        b = self._check_arg(b)
        h = np.asarray(h, dtype=np.complex128)
        if h.ndim not in (2, 3) or h.shape[-2:] != b.shape:
            raise DimensionMismatch("direction must match the argument's shape")
        if not np.isfinite(h).all():
            raise ValueError("direction entries must be finite")
        _check_derivative_dim(b.shape[0])
        res = _pole_resolvent(self.law, b)
        if res is not None:
            return -res @ h @ res
        _spectrum_off_axis(b)
        eye = np.eye(b.shape[0])

        def minus_rhr(ts):
            r = np.linalg.inv(b[None] - ts[:, None, None] * eye[None])
            if h.ndim == 3:
                r = r[:, None]
            return -(r @ h @ r)

        return measures.expect(self.law, minus_rhr)

    def jacobian(self, b, directions) -> np.ndarray:
        """One :meth:`eval_dG` call on the stacked directions."""
        stack = self.eval_dG(b, directions)
        return stack.reshape(len(stack), -1).T

    def sample(self, big_dim: int, gen) -> np.ndarray:
        return np.kron(np.eye(self.base_dim),
                       measures.realization(self.law, big_dim, gen))

    def _integrate(self, b):
        eye = np.eye(b.shape[0])
        return measures.expect(
            self.law, lambda ts: np.linalg.inv(b[None] - ts[:, None, None] * eye[None]))


def _pole_resolvent(law, b: np.ndarray):
    """(b - pole)^{-1} for a law with a virtual pole when b lies in an open half-plane.

    There G(b) is the resolvent at the virtual pole of that half-plane;
    returns None for laws without one and for arguments in neither half-plane.
    """
    for sign in (1.0, -1.0):
        pole = law.pole(sign)
        if pole is not None and linalg.half_plane_margin(sign * b) > 0:
            return linalg.inverse(b - pole * np.eye(b.shape[0]))
    return None


def _check_derivative_dim(m: int):
    if 2 * m > linalg.MAX_DIM:
        raise DimensionMismatch(f"eval_dG at dim {m} is past the supported "
                                f"edge {linalg.MAX_DIM // 2}")


def _corner_derivative(dist: OVDistribution, b, h) -> np.ndarray:
    """dG_b[h] as the top-right block of dist.eval_G([[b, s h], [0, b]]) / s.

    The corner is linear in h, so a power-of-two s changes no rounding.  When
    b lies in an open half-plane, s is the largest one with s ||h|| <= margin:
    the block keeps half of b's margin, so it stays in b's half-plane (closed
    forms still apply) and its corner obeys the 1/margin bound of G(b).
    """
    b = dist._check_arg(b)
    h = linalg.as_matrix(h)
    if h.shape != b.shape:
        raise DimensionMismatch("direction must match the argument's shape")
    m = b.shape[0]
    _check_derivative_dim(m)
    margin = max(linalg.half_plane_margin(b), linalg.half_plane_margin(-b))
    norm_h = np.linalg.norm(h)
    scale = 1.0
    if margin > 0 and norm_h > 0:
        scale = math.ldexp(1.0, math.frexp(margin / norm_h)[1] - 1)
    block = np.block([[b, scale * h], [np.zeros_like(b), b]])
    return dist.eval_G(block)[:m, m:] / scale


# ---------------------------------------------------------------------------
# deterministic operator


@dataclass(frozen=True, eq=False)
class DiracB(OVDistribution):
    """Point mass at a fixed self-adjoint matrix."""

    operator: np.ndarray

    def __post_init__(self):
        op = linalg.as_matrix(self.operator)
        if not linalg.is_hermitian(op):
            raise ValueError("a deterministic operator must be self-adjoint")
        object.__setattr__(self, "operator", op)

    @property
    def base_dim(self):  # type: ignore[override]
        return self.operator.shape[0]

    def norm_bound(self) -> float:
        return linalg.operator_norm(self.operator)

    def _amplified(self, m: int) -> np.ndarray:
        k = m // self.base_dim
        return np.kron(np.eye(k), self.operator)

    def eval_G(self, b) -> np.ndarray:
        b = self._check_arg(b)
        try:
            return linalg.inverse(b - self._amplified(b.shape[0]))
        except SingularMatrix as exc:
            raise OutsideResolvent("argument meets the operator's spectrum") from exc

    def eval_dG(self, b, h) -> np.ndarray:
        return _corner_derivative(self, b, h)

    def sample(self, big_dim: int, gen) -> np.ndarray:
        return np.kron(self.operator, np.eye(big_dim))


# ---------------------------------------------------------------------------
# operator-valued semicircular


@dataclass(frozen=True, eq=False)
class OVSemicircular(OVDistribution):
    """Semicircular family with covariance eta(w) = sum_j a_j w a_j*."""

    coefficients: tuple
    base_dim: int = field(init=False, default=1)

    def __post_init__(self):
        coeffs = tuple(linalg.as_matrix(a) for a in self.coefficients)
        if not coeffs:
            raise ValueError("need at least one covariance coefficient")
        dims = {a.shape[0] for a in coeffs}
        if len(dims) != 1:
            raise DimensionMismatch("covariance coefficients must share a dimension")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "base_dim", coeffs[0].shape[0])

    def norm_bound(self) -> float:
        eta_one = sum(a @ a.conj().T for a in self.coefficients)
        return 2.0 * math.sqrt(linalg.operator_norm(eta_one))

    def eval_G(self, b) -> np.ndarray:
        """G(b), the solution of G = (b - eta(G))^{-1}, in two phases from b^{-1}.

        Undamped phase: g <- (b - eta(g))^{-1}.  It continues while each
        step's max-abs size is below half the previous one, so every observed
        contraction rate q is < 1/2, and it returns once a step s is at most
        ``_FIXED_POINT_TOL``; the contraction estimate bounds the error left
        by q/(1-q) s < s.  A step that fails the rate test, or a singular
        b - eta(g), ends it.

        Damped fallback: after checking that b's spectrum is off the real
        axis (else :class:`RealAxisPoint`), restart from b^{-1} with
        g <- (g + (b - eta(g))^{-1}) / 2 until a step is at most the same
        tolerance.  Its rate is about 1/2 however weak eta is; it converges
        to the solution with Im G < 0 when Im b > 0 (Helton, Rashidi Far and
        Speicher, IMRN 2007).  :class:`NoConvergence` names the phase, the
        iterations used and the last step size.
        """
        b = self._check_arg(b)
        k = b.shape[0] // self.base_dim
        bigs = [np.kron(np.eye(k), a) for a in self.coefficients]
        amplified = [(big, big.conj().T) for big in bigs]

        def resolvent(g):
            eta = np.zeros_like(g)
            for big, big_adj in amplified:
                eta += big @ g @ big_adj
            return np.linalg.inv(b - eta)

        start = linalg.inverse(b)
        g, last = start, math.inf
        # every step halves at least, so this ends long before the budget
        for _ in range(_FIXED_POINT_MAX_ITER):
            try:
                nxt = resolvent(g)
            except np.linalg.LinAlgError:
                break
            step = np.abs(nxt - g).max()
            if not step < 0.5 * last:
                break
            if step <= _FIXED_POINT_TOL:
                return nxt
            g, last = nxt, step
        _spectrum_off_axis(b)
        g, last = start, math.inf
        for used in range(1, _FIXED_POINT_MAX_ITER + 1):
            try:
                nxt = resolvent(g)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(
                    "fixed point left the invertible set: damped phase, "
                    f"{used} iterations, last step {last:.1e}") from exc
            g_new = 0.5 * g + 0.5 * nxt
            last = np.abs(g_new - g).max()
            if last <= _FIXED_POINT_TOL:
                return g_new
            g = g_new
        raise NoConvergence(
            "subordination fixed point did not settle: damped phase, "
            f"{_FIXED_POINT_MAX_ITER} iterations, last step {last:.1e}")

    def eval_dG(self, b, h) -> np.ndarray:
        return _corner_derivative(self, b, h)

    def sample(self, big_dim: int, gen) -> np.ndarray:
        for a in self.coefficients:
            if not linalg.is_hermitian(a):
                raise UnsupportedPoint(
                    "sampling needs self-adjoint covariance coefficients")
        out = np.zeros((self.base_dim * big_dim,) * 2, dtype=complex)
        for a in self.coefficients:
            out += np.kron(a, rngmod.gue(big_dim, gen))
        return out


# ---------------------------------------------------------------------------
# sums of free summands


@dataclass(frozen=True, eq=False, init=False)
class FreeSum(OVDistribution):
    """X_1 + ... + X_k for free summands over one base algebra, by sampling only.

    Each sample adds independent samples of the summands; independent
    Haar-rotated or GUE realizations are asymptotically free (Voiculescu,
    Invent. Math. 104, 1991).
    """

    summands: tuple

    def __init__(self, *summands):
        if len({s.base_dim for s in summands}) != 1:
            raise DimensionMismatch("need one or more summands over one base algebra")
        object.__setattr__(self, "summands", summands)

    @property
    def base_dim(self):  # type: ignore[override]
        return self.summands[0].base_dim

    def norm_bound(self) -> float:
        return sum(s.norm_bound() for s in self.summands)

    def sample(self, big_dim: int, gen) -> np.ndarray:
        first, *rest = [s.sample(big_dim, gen) for s in self.summands]
        return sum(rest, first)


# ---------------------------------------------------------------------------
# Monte Carlo estimation


@dataclass(frozen=True)
class MCEstimate:
    mean: np.ndarray
    stderr: float
    trials: int


def mc_estimate_G(dist: OVDistribution, b, big_dim: int = 300,
                  trials: int = 12, seed: int = 0) -> MCEstimate:
    """Sampled matrix Cauchy transform with an entrywise standard error."""
    b = linalg.as_matrix(b)
    if b.shape[0] % dist.base_dim != 0:
        raise DimensionMismatch("argument dim incompatible with the distribution")
    k = b.shape[0] // dist.base_dim
    big_b = np.kron(b, np.eye(big_dim))
    values = []
    for trial in range(trials):
        gen = rngmod.stream(seed, trial)
        t = dist.sample(big_dim, gen)
        big_t = np.kron(np.eye(k), t)
        resolvent = np.linalg.inv(big_b - big_t)
        values.append(linalg.partial_trace(resolvent, b.shape[0], big_dim))
    stack = np.stack(values)
    mean = stack.mean(axis=0)
    if trials > 1:
        se_re = stack.real.std(axis=0, ddof=1) / math.sqrt(trials)
        se_im = stack.imag.std(axis=0, ddof=1) / math.sqrt(trials)
        stderr = float(max(se_re.max(), se_im.max()))
    else:
        stderr = math.inf
    return MCEstimate(mean, stderr, trials)
