"""Mixed moments of resolvent words under four independence disciplines.

A word is a product (z_1 - X_{i_1})^{-1} ... (z_k - X_{i_k})^{-1} evaluated in
the trace state.  Everything reduces to one-variable moments through partial
fractions; the independence mode only decides *how* letters regroup:

* ``equal``     - all letters are the same operator, one big group;
* ``classical`` - commuting variables, group letters by index;
* ``boolean``   - split at every index change, multiply the runs;
* ``free``      - center each run and use that alternating centered products
                  vanish, merging adjacent same-index runs as they appear.

For Cauchy-family laws all four answers collapse to the same product over
letters, which is what makes the diagonally-dominant matrix expansion at the
bottom of this module tractable at high order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg, measures, rng as rngmod
from .errors import (DimensionMismatch, FreeModeUnsupportedLaw, NotDominant,
                     RealAxisPoint, UnsupportedPoint)

MODES = ("equal", "classical", "free", "boolean")

_POLE_CLUSTER_TOL = 1e-12


# ---------------------------------------------------------------------------
# partial fractions


@dataclass(frozen=True)
class PartialFraction:
    """Expansion of prod_j (z_j - t)^{-1} into sum_p sum_q c_{p,q} (pole_p - t)^{-q}.

    ``terms`` maps each distinct pole to the coefficient tuple
    (c_{p,1}, ..., c_{p,m_p}).
    """

    poles: tuple
    coefficients: tuple  # tuple of tuples, aligned with poles

    def resum(self, t: complex) -> complex:
        total = 0.0 + 0.0j
        for pole, coeffs in zip(self.poles, self.coefficients):
            base = 1.0 / (pole - t)
            power = base
            for c in coeffs:
                total += c * power
                power *= base
        return total


def partial_fractions(z_values: Sequence[complex]) -> PartialFraction:
    """Expand the resolvent product; repeated points produce derivative terms."""
    zs = [complex(z) for z in z_values]
    if not zs:
        raise ValueError("empty resolvent product")
    scale = max(abs(z) for z in zs) or 1.0
    clusters: list[list[complex]] = []
    for z in zs:
        for cl in clusters:
            if abs(z - cl[0]) <= _POLE_CLUSTER_TOL * scale:
                cl.append(z)
                break
        else:
            clusters.append([z])
    poles, coeff_rows = [], []
    for cl in clusters:
        pole = cl[0]
        mult = len(cl)
        others = [z for other in clusters if other is not cl for z in other]
        derivs = _cofactor_derivatives(others, pole, mult - 1)
        # coefficient of (pole - t)^{-q}: (-1)^(m-q) g^{(m-q)}(pole) / (m-q)!
        coeffs = tuple(
            (-1.0) ** (mult - q) * derivs[mult - q] / math.factorial(mult - q)
            for q in range(1, mult + 1)
        )
        poles.append(pole)
        coeff_rows.append(coeffs)
    return PartialFraction(tuple(poles), tuple(coeff_rows))


def _cofactor_derivatives(others: list[complex], at: complex, up_to: int) -> list[complex]:
    """Derivatives 0..up_to of prod (z_l - t)^{-1} over the other poles, at t = at.

    Uses g' = g * S_1 with power sums S_r = sum (z_l - t)^{-r}, whose own
    derivatives are S_1^{(r)} = r! S_{r+1}.
    """
    g0 = 1.0 + 0.0j
    for z in others:
        g0 *= 1.0 / (z - at)
    if up_to == 0:
        return [g0]
    power_sums = [sum((z - at) ** (-(r + 1)) for z in others) for r in range(up_to + 1)]
    derivs = [g0]
    for s in range(up_to):
        nxt = sum(
            math.comb(s, j) * derivs[j] * math.factorial(s - j) * power_sums[s - j]
            for j in range(s + 1)
        )
        derivs.append(nxt)
    return derivs


def single_var_moment(law: measures.ScalarMeasure, z_values: Sequence[complex]) -> complex:
    """Trace of a one-variable resolvent product, via partial fractions.

    Repeated arguments are routed through derivatives of the Cauchy transform:
    the moment of (z - X)^{-q} is (-1)^(q-1) g^{(q-1)}(z) / (q-1)!.
    """
    zs = tuple(sorted((complex(z) for z in z_values), key=lambda w: (w.real, w.imag)))
    return _single_var_cached(law, zs)


@lru_cache(maxsize=1 << 16)
def _single_var_cached(law, zs) -> complex:
    for z in zs:
        if z.imag == 0.0:
            raise RealAxisPoint("resolvent argument on the real axis")
    pf = partial_fractions(zs)
    total = 0.0 + 0.0j
    for pole, coeffs in zip(pf.poles, pf.coefficients):
        for q, c in enumerate(coeffs, start=1):
            kernel = (-1.0) ** (q - 1) / math.factorial(q - 1) \
                * measures.g_derivative(law, pole, q - 1)
            total += c * kernel
    return total


# ---------------------------------------------------------------------------
# words and mixed moments


@dataclass(frozen=True)
class MCDelegation:
    """Monte Carlo fallback parameters for free-mode words with general laws."""

    matrix_dim: int = 400
    trials: int = 16
    seed: int = 0


@dataclass(frozen=True)
class ResolventWord:
    letters: tuple  # ((z, var_index), ...)
    laws: tuple     # one law per variable, indexed from 0
    mode: str = "free"
    mc: MCDelegation | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if not self.letters:
            raise ValueError("empty word")
        for _, idx in self.letters:
            if not 0 <= idx < len(self.laws):
                raise DimensionMismatch(f"letter references variable {idx} "
                                        f"but only {len(self.laws)} laws given")


def _runs(letters) -> list[tuple[int, tuple]]:
    """Maximal runs of consecutive letters with the same variable index."""
    out: list[tuple[int, list]] = []
    for z, idx in letters:
        if out and out[-1][0] == idx:
            out[-1][1].append(complex(z))
        else:
            out.append((idx, [complex(z)]))
    return [(idx, tuple(zs)) for idx, zs in out]


def mixed_moment(word: ResolventWord) -> complex:
    """Evaluate the word in the trace state under its independence mode."""
    letters = word.letters
    laws = word.laws
    if word.mode == "equal":
        used = {idx for _, idx in letters}
        base = laws[next(iter(used))]
        if any(laws[i] != base for i in used):
            raise ValueError("equal mode treats all variables as one operator; "
                             "their laws must coincide")
        return single_var_moment(base, [z for z, _ in letters])
    if word.mode == "classical":
        groups: dict[int, list] = {}
        for z, idx in letters:
            groups.setdefault(idx, []).append(z)
        out = 1.0 + 0.0j
        for idx, zs in groups.items():
            out *= single_var_moment(laws[idx], zs)
        return out
    if word.mode == "boolean":
        out = 1.0 + 0.0j
        for idx, zs in _runs(letters):
            out *= single_var_moment(laws[idx], zs)
        return out
    # free mode
    cauchy_ok = all(isinstance(laws[idx], measures.Cauchy) for _, idx in letters)
    if not cauchy_ok:
        if word.mc is None:
            raise FreeModeUnsupportedLaw(
                "free-mode words need Cauchy-family laws; pass an MCDelegation "
                "to sample the moment from a random matrix model instead")
        return _mc_free_moment(word)
    if any(complex(z).imag <= 0 for z, _ in letters):
        raise FreeModeUnsupportedLaw(
            "free-mode reduction needs all arguments in the open upper half-plane")
    return _free_moment(_runs(letters), laws)


_FREE_MEMO: dict = {}
_FREE_MEMO_CAP = 1 << 18


def _free_moment(blocks: list[tuple[int, tuple]], laws) -> complex:
    """Centering expansion over runs, then the vanishing/merging recursion."""
    if len(_FREE_MEMO) > _FREE_MEMO_CAP:
        _FREE_MEMO.clear()
    memo = _FREE_MEMO.setdefault(laws, {})

    def phi(idx, zs) -> complex:
        return single_var_moment(laws[idx], zs)

    def centered(blocks_key) -> complex:
        # moment of the product of centered blocks
        if len(blocks_key) == 0:
            return 1.0 + 0.0j
        if len(blocks_key) == 1:
            return 0.0 + 0.0j
        if blocks_key in memo:
            return memo[blocks_key]
        merge_at = next((j for j in range(len(blocks_key) - 1)
                         if blocks_key[j][0] == blocks_key[j + 1][0]), None)
        if merge_at is None:
            # adjacent indices all differ: alternating centered product vanishes
            memo[blocks_key] = 0.0 + 0.0j
            return memo[blocks_key]
        j = merge_at
        left, right = blocks_key[j], blocks_key[j + 1]
        merged = (left[0], _sorted_zs(left[1] + right[1]))
        val = centered(blocks_key[:j] + (merged,) + blocks_key[j + 2:]) \
            - phi(*left) * centered(blocks_key[:j] + blocks_key[j + 1:]) \
            - phi(*right) * centered(blocks_key[:j + 1] + blocks_key[j + 2:])
        memo[blocks_key] = val
        return val

    key = tuple((idx, _sorted_zs(zs)) for idx, zs in blocks)
    total = 0.0 + 0.0j
    for mask in range(1 << len(key)):
        scalar = 1.0 + 0.0j
        kept = []
        for b, blk in enumerate(key):
            if mask >> b & 1:
                kept.append(blk)
            else:
                scalar *= phi(*blk)
        total += scalar * centered(tuple(kept))
    return total


def _sorted_zs(zs):
    return tuple(sorted(zs, key=lambda w: (w.real, w.imag)))


def _mc_free_moment(word: ResolventWord) -> complex:
    """Haar-rotated matrix model estimate of a free-mode word."""
    mc = word.mc
    n = mc.matrix_dim
    used = sorted({idx for _, idx in word.letters})
    acc = 0.0 + 0.0j
    for trial in range(mc.trials):
        gen = rngmod.stream(mc.seed, trial)
        real = {idx: measures.realization(word.laws[idx], n, gen) for idx in used}
        prod = np.eye(n, dtype=complex)
        eye = np.eye(n)
        for z, idx in word.letters:
            prod = prod @ np.linalg.inv(complex(z) * eye - real[idx])
        acc += np.trace(prod) / n
    return acc / mc.trials


# ---------------------------------------------------------------------------
# four-mode agreement report


@dataclass(frozen=True)
class AgreementReport:
    values: dict
    reference: complex
    max_deviation: float


def fbcs_check(z_values: Sequence[complex], indices: Sequence[int],
               law: measures.Cauchy = measures.Cauchy(0.0, 1.0)) -> AgreementReport:
    """Free/boolean/classical/single-operator moments of one word, plus the
    letterwise product reference they should all equal for Cauchy laws."""
    if not isinstance(law, measures.Cauchy):
        raise FreeModeUnsupportedLaw("the agreement statement is about Cauchy laws")
    zs = [complex(z) for z in z_values]
    idx = [int(i) for i in indices]
    if len(zs) != len(idx):
        raise DimensionMismatch("need one variable index per argument")
    n_vars = max(idx) + 1
    laws = tuple(law for _ in range(n_vars))
    letters = tuple(zip(zs, idx))
    values = {mode: mixed_moment(ResolventWord(letters, laws, mode)) for mode in MODES}
    reference = 1.0 + 0.0j
    for z in zs:
        reference *= 1.0 / (z - law.pole(1 if z.imag > 0 else -1))
    dev = max(abs(v - reference) for v in values.values())
    return AgreementReport(values, reference, dev)


# ---------------------------------------------------------------------------
# diagonally dominant matrix arguments


@dataclass(frozen=True)
class NeumannResult:
    estimate: np.ndarray
    tail_bound: float
    dominance: float  # the contraction ratio q
    enumerated_orders: int  # orders evaluated letter-by-letter through moments


def dominance_ratio(b: np.ndarray) -> float:
    """Contraction ratio q = || |b - D| |Im D|^{-1} ||_2 with D the diagonal of b.

    The resolvent expansion around D converges when q < 1.  Every diagonal
    entry must have a nonzero imaginary part.
    """
    diag = np.diagonal(b)
    off = b - np.diag(diag)
    return float(np.linalg.norm(np.abs(off) * (1.0 / np.abs(diag.imag))[None, :], 2))


def matrix_G_via_neumann(B, laws: Sequence[measures.ScalarMeasure], mode: str,
                         p_max: int, path_budget: int = 1024) -> NeumannResult:
    """Expectation of the matrix resolvent (B - X)^{-1} for a diagonal family.

    X places the variable ``p mod n_vars`` on diagonal slot p.  The estimate is
    the alternating expansion around the diagonal part D of B,

        sum_{p <= p_max} (-1)^p  E[(D-X)^{-1} (B' (D-X)^{-1})^p],

    convergent when the off-diagonal dominance ratio q < 1.  Low orders are
    expanded path-by-path into :func:`mixed_moment` calls; once the path count
    passes ``path_budget`` the letterwise Cauchy product (valid for every mode
    handled here) continues the series, so the tail bound can actually be
    driven below stringent tolerances.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    b = linalg.as_matrix(B)
    m = b.shape[0]
    laws = tuple(laws)
    if m % len(laws) != 0:
        raise DimensionMismatch(f"matrix dim {m} not a multiple of {len(laws)} variables")
    diag = np.diagonal(b).copy()
    if np.any(diag.imag == 0.0):
        raise NotDominant("every diagonal entry needs a nonzero imaginary part")
    q = dominance_ratio(b)
    if q >= 1.0:
        raise NotDominant(f"off-diagonal dominance ratio {q:.3f} >= 1")
    off = b - np.diag(diag)
    resolvent_bound = float(1.0 / np.abs(diag.imag).min())
    tail = resolvent_bound * q ** (p_max + 1) / (1.0 - q) if q > 0 else 0.0

    var_of = [p % len(laws) for p in range(m)]
    succ = [np.nonzero(off[u])[0] for u in range(m)]

    all_cauchy = all(isinstance(law, measures.Cauchy) for law in laws)
    uniform_halfplane = np.all(diag.imag > 0) or np.all(diag.imag < 0)

    adjacency = (off != 0).astype(float)
    path_tally = np.ones(m)  # adjacency^order @ 1, updated as we go
    # free-mode words cost exponentially in their length, so cap it separately
    max_letters = 12 if mode == "free" else 64

    total = np.zeros((m, m), dtype=complex)
    enumerated = 0
    paths_so_far = 0
    for order in range(p_max + 1):
        count_this_order = int(path_tally.sum())
        path_tally = adjacency @ path_tally
        if paths_so_far + count_this_order <= path_budget and order + 1 <= max_letters:
            total += (-1.0) ** order * _term_by_paths(diag, off, succ, var_of, laws, mode, order)
            paths_so_far += count_this_order
            enumerated = order + 1
        else:
            if not (all_cauchy and uniform_halfplane):
                raise UnsupportedPoint(
                    "path budget exhausted and no letterwise product applies: "
                    "either raise path_budget or use Cauchy laws with a "
                    "half-plane-consistent diagonal")
            total += (-1.0) ** order * _term_by_product(diag, off, var_of, laws, order)
    return NeumannResult(total, tail, q, enumerated)


def _term_by_paths(diag, off, succ, var_of, laws, mode, order) -> np.ndarray:
    m = len(diag)
    term = np.zeros((m, m), dtype=complex)

    def walk(path, coeff):
        if len(path) == order + 1:
            letters = tuple((diag[p], var_of[p]) for p in path)
            word = ResolventWord(letters, laws, mode)
            term[path[0], path[-1]] += coeff * mixed_moment(word)
            return
        u = path[-1]
        for v in succ[u]:
            walk(path + (int(v),), coeff * off[u, v])

    for start in range(m):
        walk((start,), 1.0 + 0.0j)
    return term


def _term_by_product(diag, off, var_of, laws, order) -> np.ndarray:
    sign = 1.0 if diag.imag[0] > 0 else -1.0
    poles = np.array([laws[v].pole(sign) for v in var_of])
    r = np.diag(1.0 / (diag - poles))
    out = r.copy()
    step = off @ r
    for _ in range(order):
        out = out @ step
    return out
