import itertools
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate

from conftest import haar_free_moment, inclusion_exclusion_free_moment, stream
from ovfree import measures as ms
from ovfree import moments as mo
from ovfree import ovdist as ov
from ovfree.errors import NotDominant, UnsupportedPoint


def _random_points(gen, count, lo_imag=0.3):
    pts = gen.normal(size=(count, 2))
    return [complex(x, abs(y) + lo_imag) for x, y in pts]


def _close_points(delta):
    return [0.2 + 1j + delta * j for j in range(4)]


# ---------------------------------------------------------------------------
# one-variable moments


def test_single_var_rejects_empty_product():
    with pytest.raises(ValueError):
        mo.single_var_moment(ms.Cauchy(0.0, 1.0), [])


def test_single_var_cauchy_pair():
    val = mo.single_var_moment(ms.Cauchy(0.0, 1.0), [2j, 3j])
    assert val == pytest.approx(-1.0 / 12.0, abs=1e-14)


def test_single_var_cauchy_with_repeat():
    val = mo.single_var_moment(ms.Cauchy(0.0, 1.0), [2j, 3j, 2j])
    assert val == pytest.approx(1j / 36.0, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_single_var_repeated_point_is_derivative(k):
    # moment of (z - X)^{-k} equals (-1)^(k-1) g^{(k-1)}(z) / (k-1)!
    law = ms.Semicircle(1.0)
    z = 0.4 + 1.7j
    val = mo.single_var_moment(law, [z] * k)
    expected = (-1.0) ** (k - 1) / math.factorial(k - 1) * ms.g_derivative(law, z, k - 1)
    assert val == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("law", [
    ms.Semicircle(1.0),
    ms.Arcsine(2.0),
    ms.truncate(ms.Cauchy(0.0, 1.0), 4.0).truncated,
])
def test_single_var_against_direct_quadrature(law):
    gen = np.random.default_rng(5)
    point_sets = [_random_points(gen, int(gen.integers(2, 5))) for _ in range(4)]
    point_sets += [_close_points(1e-5), _close_points(1e-9),
                   [0.3 + 1.2j, -0.5 - 1.5j, -0.2 - 1j, 0.4 + 1.3j]]
    for zs in point_sets:

        def product(t):
            return np.prod([1.0 / (z - t) for z in zs])

        direct = 0j
        for seg in law.segments():
            re, _ = scipy.integrate.quad(
                lambda th: (product(seg.t_of(np.array([th]))[0])
                            * seg.weight(np.array([th]))[0]).real,
                seg.theta_lo, seg.theta_hi, limit=400)
            im, _ = scipy.integrate.quad(
                lambda th: (product(seg.t_of(np.array([th]))[0])
                            * seg.weight(np.array([th]))[0]).imag,
                seg.theta_lo, seg.theta_hi, limit=400)
            direct += re + 1j * im
        for pos, weight in law.atoms():
            direct += weight * product(pos)
        assert mo.single_var_moment(law, zs) == pytest.approx(direct, abs=5e-9)


# ---------------------------------------------------------------------------
# mixed moments and mode agreement


def test_fbcs_frozen_word():
    rep = mo.fbcs_check([2j, 3j, 2j], [0, 1, 0])
    assert rep.reference == pytest.approx(1j / 36.0)
    for mode in mo.MODES:
        assert rep.values[mode] == pytest.approx(1j / 36.0, abs=1e-13)
    assert rep.max_deviation <= 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_fbcs_random_words(seed):
    gen = np.random.default_rng(100 + seed)
    for _ in range(5):
        k = int(gen.integers(1, 8))
        zs = _random_points(gen, k)
        idx = list(gen.integers(0, int(gen.integers(1, 4)) , size=k))
        idx = [int(i) for i in idx]
        rep = mo.fbcs_check(zs, idx)
        assert rep.max_deviation <= 1e-9 * max(1.0, abs(rep.reference))


def test_fbcs_general_cauchy_law():
    rep = mo.fbcs_check([1 + 2j, 0.5j, -1 + 1j], [0, 1, 0], law=ms.Cauchy(0.4, 0.7))
    assert rep.max_deviation <= 1e-12


def test_fbcs_lower_half_plane_word():
    rep = mo.fbcs_check([-2j, -3j, -2j], [0, 1, 0])
    assert rep.reference == pytest.approx(-1j / 36.0)
    assert rep.max_deviation <= 1e-12


def test_fbcs_mixed_half_plane_word_has_no_reference():
    with pytest.raises(UnsupportedPoint):
        mo.fbcs_check([2j, -3j, 2j], [0, 1, 0])


def _letterwise_reference(law, zs):
    """Exact product for Cauchy, exact atom sum for an atomic law, and the
    corner of G at the Jordan-like matrix diag(z) + superdiagonal ones
    (Opitz 1964) otherwise: (-1)^(k-1) G(J)[0, -1] is the word's moment."""
    if isinstance(law, ms.Cauchy):
        return np.prod([1.0 / (z - law.pole(1)) for z in zs])
    if isinstance(law, ms.Atomic):
        return sum(w * np.prod([1.0 / (z - p) for z in zs]) for p, w in law.atoms())
    jordan = np.diag(zs) + np.eye(len(zs), k=1)
    return (-1.0) ** (len(zs) - 1) * ov.ScalarEmbedded(law).eval_G(jordan)[0, -1]


@pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("law", [ms.Cauchy(0.3, 0.7), ms.Semicircle(1.0),
                                 ms.Arcsine(2.0), ms.bernoulli(1.5)],
                         ids=["cauchy", "semicircle", "arcsine", "bernoulli"])
def test_single_var_close_points_match_letterwise_product(law, delta):
    zs = _close_points(delta)
    expected = _letterwise_reference(law, zs)
    assert abs(mo.single_var_moment(law, zs) - expected) <= 1e-13 * abs(expected)


def test_free_mode_matches_matrix_model():
    # independent source of freeness: Haar-conjugated deterministic grids
    words = [
        # Cauchy laws, upper half-plane
        (((2j, 0), (1 + 1.5j, 1), (2j, 0), (-0.4 + 1j, 1), (1 + 1.5j, 1)),
         (ms.Cauchy(0.3, 0.8), ms.Cauchy(-0.5, 1.2))),
        # semicircle and arcsine, letters in both half-planes
        (((0.3 + 1.2j, 0), (-0.5 - 1.5j, 1), (-0.2 - 1j, 0), (0.4 + 1.3j, 1)),
         (ms.Semicircle(1.0), ms.Arcsine(1.0))),
    ]
    for letters, laws in words:
        exact = mo.mixed_moment(mo.ResolventWord(letters, laws, "free"))
        sampled = haar_free_moment(letters, laws, matrix_dim=500, trials=4, seed=3)
        assert abs(exact - sampled) <= 5e-3


def test_equal_mode_requires_matching_laws():
    word = mo.ResolventWord(((2j, 0), (3j, 1)),
                            (ms.Cauchy(0, 1), ms.Cauchy(0, 2)), "equal")
    with pytest.raises(ValueError):
        mo.mixed_moment(word)


FREE_LAWS = {"semicircle": ms.Semicircle(1.0), "arcsine": ms.Arcsine(1.5),
             "bernoulli": ms.bernoulli(1.2, 0.1), "cauchy": ms.Cauchy(0.3, 0.7)}
# x letters z1, z2 and y letters w1, w2
HALF_PLANES = {
    "upper": ((0.3 + 1.2j, -0.4 + 0.8j), (0.5 + 1.5j, -0.2 + 0.9j)),
    "lower": ((0.3 - 1.2j, -0.4 - 0.8j), (0.5 - 1.5j, -0.2 - 0.9j)),
    "mixed": ((0.3 + 1.2j, -0.4 - 0.8j), (0.5 - 1.5j, -0.2 + 0.9j)),
}
FREE_GRID = [pytest.param(FREE_LAWS[a], FREE_LAWS[b], HALF_PLANES[h], id=f"{a}-{b}-{h}")
             for a in FREE_LAWS for b in FREE_LAWS for h in HALF_PLANES]


@pytest.mark.parametrize("law_x, law_y, points", FREE_GRID)
def test_free_mode_matches_the_definition_of_freeness(law_x, law_y, points):
    # phi(a1 b a2) = phi(a1 a2) phi(b), and
    # phi(a1 b1 a2 b2) = phi(a1 a2) phi(b1) phi(b2) + phi(a1) phi(a2) phi(b1 b2)
    #                    - phi(a1) phi(a2) phi(b1) phi(b2)
    (z1, z2), (w1, w2) = points
    laws = (law_x, law_y)
    a1, a2 = mo.single_var_moment(law_x, [z1]), mo.single_var_moment(law_x, [z2])
    b1, b2 = mo.single_var_moment(law_y, [w1]), mo.single_var_moment(law_y, [w2])
    a12 = mo.single_var_moment(law_x, [z1, z2])
    b12 = mo.single_var_moment(law_y, [w1, w2])
    xyx = mo.mixed_moment(mo.ResolventWord(((z1, 0), (w1, 1), (z2, 0)), laws, "free"))
    assert abs(xyx - a12 * b1) <= 1e-12 * abs(a12 * b1)
    xyxy = mo.mixed_moment(
        mo.ResolventWord(((z1, 0), (w1, 1), (z2, 0), (w2, 1)), laws, "free"))
    expected = a12 * b1 * b2 + a1 * a2 * b12 - a1 * a2 * b1 * b2
    assert abs(xyxy - expected) <= 1e-12 * abs(expected)


def test_free_mode_evaluates_each_block_once(monkeypatch):
    # a first evaluation takes phi of each distinct block, merged blocks
    # included, at most once; a repeated word takes none
    c1, c2 = ms.Cauchy(0.3, 0.8), ms.Cauchy(-0.5, 1.2)
    word = mo.ResolventWord(((2j, 0), (1 + 1.5j, 1), (1.5j, 0), (0.5 + 2j, 1),
                             (-1 + 1j, 0), (-0.3 + 1j, 1)), (c1, c2), "free")
    mo._free_word_cached.cache_clear()
    single_var = mo._single_var_cached
    calls = []

    def counting(law, zs):
        calls.append((law, zs))
        return single_var(law, zs)

    monkeypatch.setattr(mo, "_single_var_cached", counting)
    first = mo.mixed_moment(word)
    assert len(calls) == len(set(calls))
    assert any(len(zs) > 1 for _, zs in calls)  # a merged block was evaluated
    calls.clear()
    assert mo.mixed_moment(word) == first
    assert calls == []


def _alternating_word(runs):
    letters = tuple((complex(0.1 * j, 1.0 + 0.05 * j), j % 2) for j in range(runs))
    return mo.ResolventWord(letters, (ms.Cauchy(0.3, 0.8), ms.Cauchy(-0.5, 1.2)), "free")


def test_free_word_past_the_run_cap_is_refused_at_once():
    word = _alternating_word(17)
    start = time.perf_counter()
    with pytest.raises(UnsupportedPoint, match="17 alternating runs .* cap of 16 runs"):
        mo.mixed_moment(word)
    assert time.perf_counter() - start <= 0.1


def test_free_word_at_the_run_cap_evaluates():
    # the same letters in one half-plane make every mode the letterwise product
    word = _alternating_word(16)
    expected = mo.letterwise_cauchy_product(word.letters, word.laws)
    got = mo.mixed_moment(word)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def _module_sizes():
    sizes = {}
    for name, obj in vars(mo).items():
        if isinstance(obj, (dict, list, set)):
            sizes[name] = len(obj)
        elif hasattr(obj, "cache_info"):
            sizes[name] = obj.cache_info().currsize
    return sizes


def test_free_memo_is_bounded_by_entries():
    # every cache of the module is bounded, and a Neumann call keeps no state
    # memo once it returns; only the bounded one-variable cache may grow
    caches = [obj for obj in vars(mo).values() if hasattr(obj, "cache_info")]
    assert mo._free_word_cached in caches
    assert all(cache.cache_info().maxsize is not None for cache in caches)
    c1, c2 = ms.Cauchy(0.3, 0.8), ms.Arcsine(1.3)
    B = np.array([[2j, 0.1, 0.05, 0.1], [0.1, 2.5j, 0.08, 0.02],
                  [0.05, 0.08, -3j, 0.1], [0.03, 0.1, 0.02, 1.7j]])
    before = _module_sizes()
    mo.matrix_G_via_neumann(B, [c1, c2], "free", 5, path_budget=10 ** 4)
    after = _module_sizes()
    assert after.keys() == before.keys()
    grown = {name for name in before if after[name] > before[name]}
    assert grown <= {"_single_var_cached"}


FREE_ORACLE_LAWS = (ms.Cauchy(0.3, 0.7), ms.Semicircle(1.0), ms.Arcsine(1.5),
                    ms.bernoulli(1.2, 0.1))
FREE_ORACLE_GRID = [pytest.param(n_vars, length, rotation,
                                 id=f"{n_vars}vars-{length}letters-{rotation}")
                    for n_vars in (2, 3) for length in range(2, 11)
                    for rotation in range(len(FREE_ORACLE_LAWS))]


def _assert_matches_oracle(letters, laws):
    value = mo.mixed_moment(mo.ResolventWord(letters, laws, "free"))
    expected = inclusion_exclusion_free_moment(letters, laws)
    assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n_vars, length, rotation", FREE_ORACLE_GRID)
def test_free_mode_matches_inclusion_exclusion(n_vars, length, rotation):
    # letters in both half-planes, repeated variables allowed, so runs merge
    gen = stream(1000 + 10 * n_vars + length)
    laws = tuple(FREE_ORACLE_LAWS[(rotation + k) % len(FREE_ORACLE_LAWS)]
                 for k in range(n_vars))
    letters = tuple((complex(gen.uniform(-1, 1), gen.choice([-1, 1]) * gen.uniform(0.6, 1.6)),
                     int(gen.integers(0, n_vars))) for _ in range(length))
    _assert_matches_oracle(letters, laws)


def test_free_mode_three_distinct_neighbours_match_inclusion_exclusion():
    # x y z x y: R_2 after the centered x-then-y prefix is z, a third
    # variable, which no two-variable word reaches
    x, y, z = ms.Semicircle(1.0), ms.Cauchy(0.2, 0.6), ms.bernoulli(0.9, 0.0)
    letters = ((0.3 + 1.2j, 0), (-0.5 - 0.9j, 1), (0.1 + 0.7j, 2),
               (0.6 - 1.1j, 0), (-0.2 + 1.4j, 1))
    _assert_matches_oracle(letters, (x, y, z))
    _assert_matches_oracle(letters[:3], (x, y, z))


def test_free_caches_give_bitwise_equal_values_across_threads():
    gen = stream(77)
    laws = (ms.Cauchy(0.3, 0.7), ms.bernoulli(1.2, 0.1), ms.Cauchy(-0.2, 1.1))
    words = []
    for _ in range(50):
        length = int(gen.integers(2, 9))
        letters = tuple((complex(gen.uniform(-1, 1), gen.uniform(0.6, 1.6)),
                         int(gen.integers(0, 3))) for _ in range(length))
        words.append(mo.ResolventWord(letters, laws, "free"))

    def bits(value):
        return value.real.hex(), value.imag.hex()

    B = np.array([[2j, 0.1, 0.05, 0.1], [0.1, 2.5j, 0.08, 0.02],
                  [0.05, 0.08, 3j, 0.1], [0.03, 0.1, 0.02, 1.7j]])
    pairs = [(ms.Cauchy(0.3, 0.8), ms.Cauchy(-0.5, 1.2)),
             (ms.Semicircle(1.0), ms.bernoulli(1.2, 0.1))]

    def neumann(law_pair):
        return mo.matrix_G_via_neumann(B, law_pair, "free", 4, path_budget=10 ** 4).estimate

    mo._free_word_cached.cache_clear()
    serial = [bits(mo.mixed_moment(word)) for word in words]
    expected = [neumann(pair) for pair in pairs]
    mo._free_word_cached.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the recursion
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [bits(v) for v in pool.map(mo.mixed_moment, words, timeout=120)]
            estimates = list(pool.map(neumann, pairs * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    for k, estimate in enumerate(estimates):
        assert estimate.tobytes() == expected[k % 2].tobytes()


def test_neumann_free_paths_match_word_by_word_moments():
    # the call-scoped memo gives the value mixed_moment gives each path word
    laws = (ms.Semicircle(1.0), ms.Arcsine(1.3))
    B = np.array([[2j, 0.1, 0.05, 0.1], [0.1, -2.5j, 0.08, 0.02],
                  [0.05, 0.08, 3j, 0.1], [0.03, 0.1, 0.02, 1.7j]])
    order = 3
    res = mo.matrix_G_via_neumann(B, laws, "free", order, path_budget=10 ** 4)
    diag = np.diagonal(B)
    off = B - np.diag(diag)
    expected = np.zeros((4, 4), dtype=complex)
    for p in range(order + 1):
        for path in itertools.product(range(4), repeat=p + 1):
            if any(u == v for u, v in zip(path, path[1:])):
                continue
            coeff = np.prod([off[u, v] for u, v in zip(path, path[1:])])
            letters = tuple((diag[s], s % 2) for s in path)
            expected[path[0], path[-1]] += \
                (-1) ** p * coeff * mo.mixed_moment(mo.ResolventWord(letters, laws, "free"))
    np.testing.assert_allclose(res.estimate, expected, rtol=1e-13, atol=1e-15)


def test_boolean_splits_at_index_changes():
    c = ms.Cauchy(0, 1)
    letters = ((2j, 0), (2j, 0), (3j, 1), (2j, 0))
    val = mo.mixed_moment(mo.ResolventWord(letters, (c, c), "boolean"))
    runs = (mo.single_var_moment(c, [2j, 2j]) * mo.single_var_moment(c, [3j])
            * mo.single_var_moment(c, [2j]))
    assert val == pytest.approx(runs, rel=1e-14)


def test_classical_groups_by_variable():
    a, b = ms.Semicircle(1.0), ms.Arcsine(1.5)
    letters = ((2j, 0), (3j, 1), (1 + 2j, 0))
    val = mo.mixed_moment(mo.ResolventWord(letters, (a, b), "classical"))
    expected = (mo.single_var_moment(a, [2j, 1 + 2j])
                * mo.single_var_moment(b, [3j]))
    assert val == pytest.approx(expected, rel=1e-12)


def test_word_index_out_of_range():
    with pytest.raises(Exception):
        mo.ResolventWord(((2j, 2),), (ms.Cauchy(0, 1),), "free")


# ---------------------------------------------------------------------------
# matrix arguments via the alternating diagonal expansion


def test_neumann_diagonal_matrix_is_exact_at_order_zero():
    c = ms.Cauchy(0.0, 1.0)
    res = mo.matrix_G_via_neumann(np.diag([2j, 3j]), [c, c], "free", 0)
    expected = np.diag([1.0 / 3j, 1.0 / 4j])
    np.testing.assert_allclose(res.estimate, expected, atol=1e-15)
    assert res.tail_bound == 0.0


def test_neumann_matches_closed_form_for_free_cauchy():
    c = ms.Cauchy(0.0, 1.0)
    B = np.array([[2j, 0.1], [0.1, 3j]])
    truth = np.linalg.inv(B + 1j * np.eye(2))
    res = mo.matrix_G_via_neumann(B, [c, c], "free", 12)
    assert np.abs(res.estimate - truth).max() <= max(res.tail_bound, 1e-12)
    assert res.tail_bound <= 1e-8


@pytest.mark.parametrize("mode", ["free", "boolean", "classical", "equal"])
def test_neumann_mode_agreement_for_cauchy(mode):
    c = ms.Cauchy(0.0, 1.0)
    B = np.array([[2j, 0.1, 0.05], [0.1, 2.5j, 0.08], [0.05, 0.08, 3j]])
    truth = np.linalg.inv(B + 1j * np.eye(3))
    res = mo.matrix_G_via_neumann(B, [c, c, c], mode, 14)
    assert np.abs(res.estimate - truth).max() <= max(res.tail_bound, 1e-11)


def test_neumann_fast_path_matches_path_enumeration():
    c1, c2 = ms.Cauchy(0.2, 0.9), ms.Cauchy(-0.1, 1.1)
    gen = np.random.default_rng(42)
    off = 0.08 * (gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))
    np.fill_diagonal(off, 0)
    B = np.diag([2j, 2.5j, 3j, 1.8j]) + off
    slow = mo.matrix_G_via_neumann(B, [c1, c2], "free", 5, path_budget=10 ** 6)
    fast = mo.matrix_G_via_neumann(B, [c1, c2], "free", 5, path_budget=4)
    assert fast.enumerated_orders < slow.enumerated_orders
    np.testing.assert_allclose(fast.estimate, slow.estimate, atol=1e-12)


def test_neumann_tail_bound_is_honest():
    # the letterwise product continues the series cheaply; the bound must
    # still dominate the actual truncation error at every order
    c = ms.Cauchy(0.0, 1.0)
    gen = np.random.default_rng(9)
    for _ in range(20):
        m = int(gen.integers(2, 5))
        off = 0.1 * (gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m)))
        np.fill_diagonal(off, 0)
        B = np.diag(1j * (1.5 + gen.random(m))) + off
        truth = np.linalg.inv(B + 1j * np.eye(m))
        for p_max in (2, 5, 9):
            res = mo.matrix_G_via_neumann(B, [c] * m, "free", p_max, path_budget=m)
            assert np.linalg.norm(res.estimate - truth, 2) <= res.tail_bound + 1e-13


def test_neumann_rejects_weak_diagonal():
    c = ms.Cauchy(0.0, 1.0)
    with pytest.raises(NotDominant):
        mo.matrix_G_via_neumann(np.array([[1j, 5.0], [5.0, 1j]]), [c, c], "free", 3)
    with pytest.raises(NotDominant):
        mo.matrix_G_via_neumann(np.array([[1.0, 0.1], [0.1, 1j]]), [c, c], "free", 3)


def test_neumann_budget_overflow_needs_cauchy():
    s = ms.Semicircle(1.0)
    B = np.array([[2j, 0.1], [0.1, 3j]])
    with pytest.raises(UnsupportedPoint):
        mo.matrix_G_via_neumann(B, [s, s], "boolean", 12, path_budget=3)
    # within budget the semicircle word is fine
    res = mo.matrix_G_via_neumann(B, [s, s], "boolean", 2, path_budget=100)
    assert np.isfinite(res.estimate).all()
