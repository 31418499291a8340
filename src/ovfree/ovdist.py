"""Operator-valued distributions over the base algebra of n x n matrices.

Each variant knows how to evaluate the matrix Cauchy transform

    G(b) = E[(b - a (x) 1)^{-1}]

at matrix arguments whose spectrum avoids the real axis, together with its
directional derivative.  Arguments may be amplified: a distribution of base
dimension n accepts any (n k) x (n k) argument and treats the operator as
1_k (x) a, so direct sums of certified points stay inside the calculus.

Variants that admit a faithful random-matrix realization also expose
``sample``; :func:`mc_estimate_G` turns samples into a G estimate with a
standard error, which is the fallback when no deterministic evaluation
exists (polynomial mixers, non-Cauchy free families).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from . import linalg, measures, moments, rng as rngmod
from .errors import (DimensionMismatch, MixerSyntaxError, NoConvergence,
                     OutsideResolvent, RealAxisPoint, SingularMatrix,
                     UnsupportedPoint)

_NORMALITY_TOL = 1e-12
_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 20000


class OVDistribution:
    """Interface shared by all operator-valued distribution variants."""

    base_dim: int = 1

    def eval_G(self, b) -> np.ndarray:
        raise NotImplementedError

    def eval_dG(self, b, h) -> np.ndarray:
        raise NotImplementedError

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


def _schur_if_normal(b: np.ndarray):
    """Unitary diagonalization when b is normal, else None."""
    scale = np.linalg.norm(b) or 1.0
    if np.linalg.norm(b @ b.conj().T - b.conj().T @ b) > _NORMALITY_TOL * scale ** 2:
        return None
    t, v = scipy.linalg.schur(b, output="complex")
    off = t - np.diag(np.diagonal(t))
    if np.linalg.norm(off) > 1e-10 * scale:
        return None
    return np.diagonal(t).copy(), v


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
        res = _cauchy_resolvent(self.law, b)
        if res is not None:
            return res
        normal = _schur_if_normal(b)
        if normal is not None:
            eigs, v = normal
            gvals = np.array([measures.g_scalar(self.law, z) for z in eigs])
            return (v * gvals) @ v.conj().T
        _spectrum_off_axis(b)
        return self._integrate(b, lambda res: res)

    def eval_dG(self, b, h) -> np.ndarray:
        b = self._check_arg(b)
        h = linalg.as_matrix(h)
        if h.shape != b.shape:
            raise DimensionMismatch("direction must match the argument's shape")
        res = _cauchy_resolvent(self.law, b)
        if res is not None:
            return -res @ h @ res
        normal = _schur_if_normal(b)
        if normal is not None:
            eigs, v = normal
            dd = _g_divided_differences(self.law, eigs)
            mh = v.conj().T @ h @ v
            return v @ (-dd * mh) @ v.conj().T
        _spectrum_off_axis(b)
        return self._integrate(b, lambda res: -res @ h @ res)

    def sample(self, big_dim: int, gen) -> np.ndarray:
        return np.kron(np.eye(self.base_dim),
                       measures.realization(self.law, big_dim, gen))

    def _integrate(self, b, combine):
        m = b.shape[0]
        eye = np.eye(m)
        total = np.zeros((m, m), dtype=complex)
        for pos, weight in self.law.atoms():
            total += weight * combine(np.linalg.inv(b - pos * eye))

        def chunk(seg):
            def fn(thetas):
                ts = seg.t_of(thetas)
                ws = seg.weight(thetas)
                res = np.linalg.inv(b[None, :, :] - ts[:, None, None] * eye[None, :, :])
                vals = np.stack([combine(r) for r in res])
                return vals * ws[:, None, None]
            return fn

        for seg in self.law.segments():
            value, _ = measures.adaptive_integral(chunk(seg), seg.theta_lo, seg.theta_hi)
            total += value
        return total


def _cauchy_resolvent(law, b: np.ndarray):
    """(b - pole)^{-1} for a Cauchy law when b lies in an open half-plane.

    There G(b) is the resolvent at the virtual pole of that half-plane;
    returns None for other laws and for arguments in neither half-plane.
    """
    if not isinstance(law, measures.Cauchy):
        return None
    for sign in (1.0, -1.0):
        if linalg.half_plane_margin(sign * b) > 0:
            return linalg.inverse(b - law.pole(sign) * np.eye(b.shape[0]))
    return None


def _g_divided_differences(law, eigs: np.ndarray) -> np.ndarray:
    """Matrix of (g(x)-g(y))/(x-y), with -g'(x) on coincidences."""
    m = len(eigs)
    g = np.array([measures.g_scalar(law, z) for z in eigs])
    out = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            dz = eigs[i] - eigs[j]
            if abs(dz) < 1e-10 * max(1.0, abs(eigs[i])):
                out[i, j] = measures.g_derivative(law, eigs[i], 1)
            else:
                out[i, j] = (g[i] - g[j]) / dz
    # divided difference of g equals -integral of the product resolvent
    return -out


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
        res = self.eval_G(b)
        h = linalg.as_matrix(h)
        return -res @ h @ res

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

    def _eta(self, w: np.ndarray, k: int) -> np.ndarray:
        out = np.zeros_like(w)
        for a in self.coefficients:
            big = np.kron(np.eye(k), a)
            out += big @ w @ big.conj().T
        return out

    def eval_G(self, b) -> np.ndarray:
        b = self._check_arg(b)
        k = b.shape[0] // self.base_dim
        g = linalg.inverse(b)
        theta = 0.5
        for _ in range(_FIXED_POINT_MAX_ITER):
            try:
                nxt = np.linalg.inv(b - self._eta(g, k))
            except np.linalg.LinAlgError as exc:
                raise NoConvergence("fixed point left the invertible set") from exc
            g_new = (1 - theta) * g + theta * nxt
            if np.abs(g_new - g).max() <= _FIXED_POINT_TOL:
                return g_new
            g = g_new
        raise NoConvergence("subordination fixed point did not settle")

    def eval_dG(self, b, h) -> np.ndarray:
        b = self._check_arg(b)
        h = linalg.as_matrix(h)
        g = self.eval_G(b)
        k = b.shape[0] // self.base_dim
        # dG solves dG = -G (h - eta(dG)) G, a linear fixed point
        rhs = -g @ h @ g
        dg = rhs.copy()
        for _ in range(_FIXED_POINT_MAX_ITER):
            nxt = rhs + g @ self._eta(dg, k) @ g
            if np.abs(nxt - dg).max() <= _FIXED_POINT_TOL * max(1.0, np.abs(rhs).max()):
                return nxt
            dg = nxt
        return self._eval_dG_direct(g, rhs, k)

    def _eval_dG_direct(self, g, rhs, k):
        m = g.shape[0]
        if m > 32:
            raise NoConvergence("derivative fixed point stalled and the "
                                "direct solve would be too large")
        lhs = np.eye(m * m, dtype=complex)
        for a in self.coefficients:
            big = np.kron(np.eye(k), a)
            left = g @ big
            right = big.conj().T @ g
            lhs -= np.kron(right.T, left)
        vec = np.linalg.solve(lhs, rhs.reshape(-1, order="F"))
        return vec.reshape((m, m), order="F")

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
# independent scalar laws on the diagonal


@dataclass(frozen=True)
class DiagonalIndependent(OVDistribution):
    """diag(X_1, ..., X_n) with the X_i independent in the chosen mode."""

    laws: tuple
    mode: str = "free"
    tolerance: float = 1e-12
    base_dim: int = field(init=False, default=1)

    def __post_init__(self):
        if self.mode not in moments.MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        laws = tuple(self.laws)
        if not laws:
            raise ValueError("need at least one law")
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "base_dim", len(laws))

    def norm_bound(self) -> float:
        return max(law.support_bound() for law in self.laws)

    def _series_order(self, b) -> int:
        diag = np.diagonal(b)
        if np.any(diag.imag == 0.0):
            raise UnsupportedPoint("diagonal entries must leave the real axis")
        q = moments.dominance_ratio(b)
        if q >= 1.0:
            raise UnsupportedPoint(
                f"diagonal dominance ratio {q:.3f} >= 1; no convergent expansion here")
        if q == 0.0:
            return 0
        r = 1.0 / np.abs(diag.imag).min()
        p = math.log(self.tolerance * (1.0 - q) / r) / math.log(q) - 1.0
        return max(0, math.ceil(p))

    def eval_G(self, b) -> np.ndarray:
        b = self._check_arg(b)
        p_max = self._series_order(b)
        res = moments.matrix_G_via_neumann(b, self.laws, self.mode, p_max)
        return res.estimate

    def eval_dG(self, b, h) -> np.ndarray:
        # for Cauchy families the expansion sums to (b - C)^{-1} with C the
        # diagonal of virtual poles, so the limit's derivative is available
        # in closed form; it differs from the truncated series' derivative
        # by less than the certified tail
        b = self._check_arg(b)
        h = linalg.as_matrix(h)
        if not all(isinstance(law, measures.Cauchy) for law in self.laws):
            raise UnsupportedPoint("exact derivatives only for Cauchy-family laws")
        diag = np.diagonal(b)
        if not (np.all(diag.imag > 0) or np.all(diag.imag < 0)):
            raise UnsupportedPoint("derivative expansion needs a half-plane-"
                                   "consistent diagonal")
        self._series_order(b)  # dominance check
        sign = 1.0 if diag.imag[0] > 0 else -1.0
        n = len(self.laws)
        poles = np.array([self.laws[p % n].pole(sign) for p in range(len(diag))])
        res = linalg.inverse(b - np.diag(poles))
        return -res @ h @ res

    def sample(self, big_dim: int, gen) -> np.ndarray:
        n = len(self.laws)
        blocks = []
        if self.mode == "free":
            for law in self.laws:
                blocks.append(measures.realization(law, big_dim, gen))
        elif self.mode == "classical":
            for law in self.laws:
                blocks.append(np.diag(_iid_samples(law, big_dim, gen)).astype(complex))
        elif self.mode == "equal":
            shared = measures.realization(self.laws[0], big_dim, gen)
            if any(law != self.laws[0] for law in self.laws):
                raise UnsupportedPoint("equal mode requires identical laws")
            blocks = [shared] * n
        else:
            raise UnsupportedPoint("boolean independence has no matrix model here")
        return scipy.linalg.block_diag(*blocks)


def _iid_samples(law: measures.ScalarMeasure, count: int, gen) -> np.ndarray:
    return np.array([law.quantile(p) for p in gen.random(count)])


# ---------------------------------------------------------------------------
# polynomial mixers over constants and free scalar variables


def parse_mixer(text: str):
    """Parse '+ * ( )' expressions over X<i>, C<i> and numeric literals."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            node = ("+", node, rhs) if op == "+" else ("+", node, ("*", ("s", -1.0), rhs))
        return node

    def term():
        node = factor()
        while peek() == "*":
            take()
            node = ("*", node, factor())
        return node

    def factor():
        tok = take()
        if tok is None:
            raise MixerSyntaxError("unexpected end of mixer expression")
        if tok == "(":
            node = expr()
            if take() != ")":
                raise MixerSyntaxError("unbalanced parentheses in mixer")
            return node
        if tok == "-":
            return ("*", ("s", -1.0), factor())
        if isinstance(tok, tuple):
            return tok
        raise MixerSyntaxError(f"unexpected token {tok!r} in mixer")

    node = expr()
    if peek() is not None:
        raise MixerSyntaxError(f"trailing input after mixer expression: {peek()!r}")
    return node


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*()":
            tokens.append(ch)
            i += 1
        elif ch in "XC":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise MixerSyntaxError(f"{ch} needs a variable number at column {i}")
            num = int(text[i + 1:j])
            if num < 1:
                raise MixerSyntaxError(f"{ch}{num}: variables are numbered from 1")
            tokens.append(("x" if ch == "X" else "c", num - 1))
            i = j
        elif ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            try:
                tokens.append(("s", float(text[i:j])))
            except ValueError as exc:
                raise MixerSyntaxError(f"bad number {text[i:j]!r}") from exc
            i = j
        else:
            raise MixerSyntaxError(f"stray character {ch!r} at column {i}")
    return tokens


def _mixer_vars(node, kind: str) -> set:
    if node[0] == kind:
        return {node[1]}
    if node[0] in ("+", "*"):
        return _mixer_vars(node[1], kind) | _mixer_vars(node[2], kind)
    return set()


@dataclass(frozen=True, eq=False)
class MatrixModel(OVDistribution):
    """Self-adjoint polynomial in free scalar variables and constant matrices.

    The mixer grammar knows X1, X2, ... (scalar variables with the given
    laws), C1, C2, ... (constant matrices in the base algebra), numbers,
    +, -, * and parentheses.  Evaluation is by sampling only.
    """

    mixer: str
    laws: tuple
    constants: tuple = ()
    base_dim: int = 1

    def __post_init__(self):
        tree = parse_mixer(self.mixer)
        consts = tuple(linalg.as_matrix(c) for c in self.constants)
        for c in consts:
            if c.shape[0] != self.base_dim:
                raise DimensionMismatch("constants must live in the base algebra")
        xs = _mixer_vars(tree, "x")
        cs = _mixer_vars(tree, "c")
        if xs and max(xs) >= len(self.laws):
            raise MixerSyntaxError(f"mixer references X{max(xs) + 1} "
                                   f"but only {len(self.laws)} laws given")
        if cs and max(cs) >= len(consts):
            raise MixerSyntaxError(f"mixer references C{max(cs) + 1} "
                                   f"but only {len(consts)} constants given")
        object.__setattr__(self, "laws", tuple(self.laws))
        object.__setattr__(self, "constants", consts)
        object.__setattr__(self, "_tree", tree)

    def norm_bound(self) -> float:
        return self._bound(self._tree)

    def _bound(self, node) -> float:
        kind = node[0]
        if kind == "s":
            return abs(node[1])
        if kind == "x":
            return self.laws[node[1]].support_bound()
        if kind == "c":
            return linalg.operator_norm(self.constants[node[1]])
        a, b = self._bound(node[1]), self._bound(node[2])
        if kind == "+":
            return a + b
        return 0.0 if (a == 0.0 or b == 0.0) else a * b

    def sample(self, big_dim: int, gen) -> np.ndarray:
        m = self.base_dim * big_dim
        xs = {i: np.kron(np.eye(self.base_dim),
                         measures.realization(self.laws[i], big_dim, gen))
              for i in _mixer_vars(self._tree, "x")}
        cs = {i: np.kron(self.constants[i], np.eye(big_dim))
              for i in _mixer_vars(self._tree, "c")}

        def evaluate(node):
            kind = node[0]
            if kind == "s":
                return node[1] * np.eye(m, dtype=complex)
            if kind == "x":
                return xs[node[1]]
            if kind == "c":
                return cs[node[1]]
            left, right = evaluate(node[1]), evaluate(node[2])
            return left + right if kind == "+" else left @ right

        out = evaluate(self._tree)
        if not linalg.is_hermitian(out, tol=1e-9):
            raise UnsupportedPoint("mixer does not produce a self-adjoint model; "
                                   "symmetrize it before sampling")
        return (out + out.conj().T) / 2


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
