"""Mixed moments of resolvent words under four independence disciplines.

A word is a product (z_1 - X_{i_1})^{-1} ... (z_k - X_{i_k})^{-1} evaluated in
the trace state.  Everything reduces to one-variable moments, divided
differences of the Cauchy transform that :func:`single_var_moment` evaluates
with no cancellation: a repeated point through a derivative of the Cauchy
transform, a Cauchy law with all points in one half-plane through the
letterwise product, and any other product through one expectation.  The
independence mode only decides *how* letters regroup:

* ``equal``     - all letters are the same operator, one big group;
* ``classical`` - commuting variables, group letters by index;
* ``boolean``   - split at every index change, multiply the runs;
* ``free``      - center the runs left to right and use that alternating
                  centered products vanish.  N(C; R) = phi(C_1°...C_j° R_1...R_l),
                  a centered prefix C before uncentered runs R, follows from
                  R_1 = R_1° + phi(R_1) and, where C_j and R_2 share a
                  variable, C_j° R_2 = C_j R_2 - phi(C_j) R_2; the word is
                  N((); runs).  This holds for every law and for letters in
                  either half-plane.  A word has at most 16 alternating
                  runs, since the states double with each run.  A single
                  word's value is cached; its states are memoized only
                  while it is evaluated, and one :func:`matrix_G_via_neumann`
                  call shares one state memo over all its words.

For Cauchy-family laws with all letters in one half-plane the four answers
collapse to the same product over letters, which is what makes the
diagonally-dominant matrix expansion at the bottom of this module tractable
at high order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg, measures
from .errors import (DimensionMismatch, FreeModeUnsupportedLaw, NotDominant,
                     RealAxisPoint, UnsupportedPoint)

MODES = ("equal", "classical", "free", "boolean")

# A free word of n alternating runs visits up to 2^n - 1 states: 16 runs take
# a fraction of a second and tens of MB, and every two more runs cost four
# times that.
_MAX_FREE_RUNS = 16


# ---------------------------------------------------------------------------
# one-variable moments


def single_var_moment(law: measures.ScalarMeasure, z_values: Sequence[complex]) -> complex:
    """Trace of a one-variable resolvent product prod_j (z_j - X)^{-1}.

    * one distinct point z repeated q times: (-1)^(q-1) g^{(q-1)}(z) / (q-1)!;
    * a Cauchy law with every point in one half-plane: the letterwise
      product of :func:`letterwise_cauchy_product`, exact for every spacing;
    * otherwise one expectation of the product over the law.

    None of these subtracts nearly equal terms, so close points lose no
    accuracy.
    """
    zs = tuple(sorted((complex(z) for z in z_values), key=lambda w: (w.real, w.imag)))
    return _single_var_cached(law, zs)


@lru_cache(maxsize=1 << 16)
def _single_var_cached(law, zs) -> complex:
    if not zs:
        raise ValueError("empty resolvent product")
    for z in zs:
        if z.imag == 0.0:
            raise RealAxisPoint("resolvent argument on the real axis")
    if len(set(zs)) == 1:
        q = len(zs)
        return (-1.0) ** (q - 1) / math.factorial(q - 1) \
            * measures.g_derivative(law, zs[0], q - 1)
    product = letterwise_cauchy_product(tuple((z, 0) for z in zs), (law,))
    if product is not None:
        return product
    points = np.array(zs)
    return complex(measures.expect(
        law, lambda ts: np.prod(1.0 / (points[None, :] - ts[:, None]), axis=1)))


# ---------------------------------------------------------------------------
# words and mixed moments


@dataclass(frozen=True)
class ResolventWord:
    letters: tuple  # ((z, var_index), ...)
    laws: tuple     # one law per variable, indexed from 0
    mode: str = "free"

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
    """Evaluate the word in the trace state under its independence mode.

    A free word of more than ``_MAX_FREE_RUNS`` alternating runs raises
    :class:`UnsupportedPoint` before any state is built.
    """
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
    runs = _runs(letters)
    if len(runs) > _MAX_FREE_RUNS:
        raise UnsupportedPoint(f"a free word of {len(runs)} alternating runs is past "
                               f"the cap of {_MAX_FREE_RUNS} runs")
    return _free_word_cached(laws, tuple((idx, _sorted_zs(zs)) for idx, zs in runs))


@lru_cache(maxsize=1 << 16)
def _free_word_cached(laws, blocks) -> complex:
    # a lone word's states are rarely shared with other words, so its state
    # memo lives only as long as this evaluation
    words = _FreeWords(laws)
    return words.moment(tuple(words.intern(blk) for blk in blocks))


class _FreeWords:
    """Free-mode moments of words over one law tuple, sharing one state memo.

    A state N(C; R) = phi(C_1° ... C_j° R_1 ... R_l) is a centered prefix C
    followed by uncentered runs R, with C_j and R_1 of different variables.
    Blocks are interned as ints, so a state is a flat int tuple: the ids of C,
    then -1, then the ids of R.  The memo lives as long as the object.
    """

    def __init__(self, laws):
        self.laws = laws
        self.ids: dict = {}                 # (var, sorted zs) -> block id
        self.blocks: list = []              # block id -> (var, sorted zs)
        self.phis: list = []                # block id -> phi, or None until needed
        self.memo: dict = {}                # state -> N(C; R)

    def moment(self, ids) -> complex:
        """phi of the word whose runs are the interned blocks ``ids``."""
        return self._n((), ids)

    def intern(self, blk) -> int:
        """Id of the block ``blk``, a (var, sorted zs) pair."""
        bid = self.ids.get(blk)
        if bid is None:
            bid = self.ids[blk] = len(self.blocks)
            self.blocks.append(blk)
            self.phis.append(None)
        return bid

    def _phi(self, bid) -> complex:
        val = self.phis[bid]
        if val is None:
            var, zs = self.blocks[bid]
            val = self.phis[bid] = _single_var_cached(self.laws[var], zs)
        return val

    def _merge(self, a, b) -> int:
        (var, za), (_, zb) = self.blocks[a], self.blocks[b]
        return self.intern((var, _sorted_zs(za + zb)))

    def _n(self, c, r) -> complex:
        # R empty: the empty word, or an alternating centered product, which vanishes
        if not r:
            return 0j if c else 1.0 + 0j
        key = c + (-1,) + r
        val = self.memo.get(key)
        if val is not None:
            return val
        # R_1 = R_1° + phi(R_1): N(C; R) = N(C + (R_1); R_2...) + phi(R_1) S
        r1, rest = r[0], r[1:]
        val = self._n(c + (r1,), rest)
        if not c:
            val += self._phi(r1) * self._n((), rest)
        elif rest:
            cj, r2 = c[-1], rest[0]
            if self.blocks[cj][0] != self.blocks[r2][0]:
                s = self._n(c, rest)
            else:
                # C_j° R_2 = C_j R_2 - phi(C_j) R_2
                s = self._n(c[:-1], (self._merge(cj, r2),) + rest[1:]) \
                    - self._phi(cj) * self._n(c[:-1], rest)
            val += self._phi(r1) * s
        self.memo[key] = val
        return val


def _sorted_zs(zs):
    return tuple(sorted(zs, key=lambda w: (w.real, w.imag)))


# ---------------------------------------------------------------------------
# four-mode agreement report


def letterwise_cauchy_product(letters, laws) -> complex | None:
    """prod_j 1/(z_j - pole_j) over the letters (z_j, var_j) of a Cauchy word.

    Each pole is the law's pole in the letter's half-plane.  The product is
    the word's moment in every mode only when all letters lie in one
    half-plane, so ``None`` is returned otherwise, and for non-Cauchy laws.
    """
    if not all(isinstance(laws[idx], measures.Cauchy) for _, idx in letters):
        return None
    if not (all(z.imag > 0 for z, _ in letters) or all(z.imag < 0 for z, _ in letters)):
        return None
    product = 1.0 + 0.0j
    for z, idx in letters:
        product /= z - laws[idx].pole(1 if z.imag > 0 else -1)
    return product


@dataclass(frozen=True)
class AgreementReport:
    values: dict
    reference: complex
    max_deviation: float


def fbcs_check(z_values: Sequence[complex], indices: Sequence[int],
               law: measures.Cauchy = measures.Cauchy(0.0, 1.0)) -> AgreementReport:
    """Free/boolean/classical/single-operator moments of one word, plus the
    letterwise product reference they should all equal for Cauchy laws.

    The reference exists only when all letters lie in one half-plane;
    ``UnsupportedPoint`` is raised for a word that spans both.
    """
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
    reference = letterwise_cauchy_product(letters, laws)
    if reference is None:
        raise UnsupportedPoint("the letters span both half-planes, where the "
                               "letterwise product is not the moment")
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
    # a free word of n alternating runs visits 2^n - 1 states (4,095 for 12
    # letters, with up to 126 distinct blocks), so cap free words separately
    max_letters = 12 if mode == "free" else 64

    # every free word of this call shares one state memo, dropped on return
    free_words = _FreeWords(laws) if mode == "free" else None
    total = np.zeros((m, m), dtype=complex)
    enumerated = 0
    paths_so_far = 0
    for order in range(p_max + 1):
        count_this_order = int(path_tally.sum())
        path_tally = adjacency @ path_tally
        if paths_so_far + count_this_order <= path_budget and order + 1 <= max_letters:
            total += (-1.0) ** order * _term_by_paths(diag, off, succ, var_of, laws,
                                                      mode, order, free_words)
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


def _term_by_paths(diag, off, succ, var_of, laws, mode, order,
                   free_words) -> np.ndarray:
    m = len(diag)
    term = np.zeros((m, m), dtype=complex)
    run_ids: dict = {}  # free mode: a run of slots -> its interned block

    def run_id(run) -> int:
        bid = run_ids.get(run)
        if bid is None:
            zs = _sorted_zs([complex(diag[p]) for p in run])
            bid = run_ids[run] = free_words.intern((var_of[run[0]], zs))
        return bid

    def walk(runs, last, coeff, length):
        # runs: the path so far, split into maximal same-variable runs of slots
        if length == order + 1:
            if free_words is None:
                letters = tuple((diag[p], var_of[p]) for run in runs for p in run)
                value = mixed_moment(ResolventWord(letters, laws, mode))
            else:
                value = free_words.moment(tuple(run_id(run) for run in runs))
            term[runs[0][0], last] += coeff * value
            return
        for v in succ[last]:
            v = int(v)
            if var_of[v] == var_of[last]:
                grown = runs[:-1] + (runs[-1] + (v,),)
            else:
                grown = runs + ((v,),)
            walk(grown, v, coeff * off[last, v], length + 1)

    for start in range(m):
        walk(((start,),), start, 1.0 + 0.0j, 1)
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
