"""Operator-valued distributions over the base algebra of n x n matrices.

Each variant knows how to evaluate the matrix Cauchy transform

    G(b) = E[(b - a (x) 1)^{-1}]

at matrix arguments whose spectrum avoids the real axis.  Arguments may be
amplified: a distribution of base dimension n accepts any (n k) x (n k)
argument and treats the operator as 1_k (x) a, so direct sums of certified
points stay inside the calculus.  G is thus a matricial function, and every
variant's ``eval_dG`` reads the derivative off its own ``eval_G``:

    G([[b, h], [0, b]]) = [[G(b), dG_b[h]], [0, G(b)]],

so a derivative at b needs edge(b) <= ``linalg.MAX_DIM // 2``.

Variants that admit a faithful random-matrix realization also expose
``sample``; :func:`mc_estimate_G` turns samples into a G estimate with a
standard error, which is the fallback when no deterministic evaluation
exists (polynomial mixers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, measures, rng as rngmod
from .errors import (DimensionMismatch, MixerSyntaxError, NoConvergence,
                     OutsideResolvent, RealAxisPoint, SingularMatrix,
                     UnsupportedPoint)

_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 20000


class OVDistribution:
    """Interface shared by all operator-valued distribution variants."""

    base_dim: int = 1

    def eval_G(self, b) -> np.ndarray:
        raise NotImplementedError

    def eval_dG(self, b, h) -> np.ndarray:
        """Directional derivative dG_b[h], the corner of G([[b, h], [0, b]]).

        Raises :class:`DimensionMismatch` when edge(b) > ``linalg.MAX_DIM // 2``.
        """
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
        _spectrum_off_axis(b)
        return self._integrate(b)

    def eval_dG(self, b, h) -> np.ndarray:
        return _corner_derivative(self, b, h)

    def sample(self, big_dim: int, gen) -> np.ndarray:
        return np.kron(np.eye(self.base_dim),
                       measures.realization(self.law, big_dim, gen))

    def _integrate(self, b):
        eye = np.eye(b.shape[0])
        return measures.expect(
            self.law, lambda ts: np.linalg.inv(b[None] - ts[:, None, None] * eye[None]))


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
    if 2 * m > linalg.MAX_DIM:
        raise DimensionMismatch(f"eval_dG at dim {m} needs a {2 * m}-dim block argument; "
                                f"dims up to {linalg.MAX_DIM // 2} are supported")
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
