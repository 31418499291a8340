import time

import numpy as np
import pytest
import scipy.integrate

from ovfree import linalg, measures as ms, ovdist as ov, rng as rngmod
from ovfree import transforms as tr
from ovfree.errors import (DimensionMismatch, NoConvergence, OutsideResolvent,
                           RealAxisPoint, UnsupportedPoint)


def central_diff_dG(dist, b, h, eps=1e-6):
    return (dist.eval_G(b + eps * h) - dist.eval_G(b - eps * h)) / (2 * eps)


# ---------------------------------------------------------------------------
# scalar laws embedded over matrix coefficients


class TestScalarEmbedded:
    def test_cauchy_closed_form_upper(self):
        se = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        b = np.array([[2j, 0.3], [0.1, 1 + 2j]])
        np.testing.assert_allclose(se.eval_G(b), np.linalg.inv(b + 1j * np.eye(2)),
                                   atol=1e-14)

    def test_cauchy_closed_form_lower(self):
        se = ov.ScalarEmbedded(ms.Cauchy(0.5, 2.0))
        b = np.array([[-2j, 0.1], [0.2, -3j]])
        pole = 0.5 + 2j
        np.testing.assert_allclose(se.eval_G(b), np.linalg.inv(b - pole * np.eye(2)),
                                   atol=1e-14)

    def test_mixed_spectrum_diagonal(self):
        se = ov.ScalarEmbedded(ms.Semicircle(1.0))
        b = np.diag([2j, -1.5j, 0.3 + 1j])
        g = se.eval_G(b)
        for i, z in enumerate([2j, -1.5j, 0.3 + 1j]):
            assert g[i, i] == pytest.approx(ms.g_scalar(ms.Semicircle(1.0), z), abs=1e-12)
        off = g - np.diag(np.diagonal(g))
        assert np.abs(off).max() <= 1e-12

    def test_non_normal_argument_against_direct_quadrature(self):
        law = ms.Semicircle(1.0)
        se = ov.ScalarEmbedded(law)
        b = np.array([[2j, 0.8], [0.0, 3j]])  # upper triangular, not normal
        got = se.eval_G(b)

        def entry(i, j):
            def fre(t):
                return (np.linalg.inv(b - t * np.eye(2))[i, j]
                        * np.sqrt(max(4 - t * t, 0.0)) / (2 * np.pi)).real

            def fim(t):
                return (np.linalg.inv(b - t * np.eye(2))[i, j]
                        * np.sqrt(max(4 - t * t, 0.0)) / (2 * np.pi)).imag

            re, _ = scipy.integrate.quad(fre, -2, 2, limit=200)
            im, _ = scipy.integrate.quad(fim, -2, 2, limit=200)
            return re + 1j * im

        oracle = np.array([[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]])
        np.testing.assert_allclose(got, oracle, atol=5e-10)

    def test_atomic_law_general_path(self):
        law = ms.Atomic(((-1.0, 0.25), (0.5, 0.75)))
        se = ov.ScalarEmbedded(law)
        b = np.array([[1j, 0.4], [0.0, 2j]])
        expected = (0.25 * np.linalg.inv(b + np.eye(2))
                    + 0.75 * np.linalg.inv(b - 0.5 * np.eye(2)))
        np.testing.assert_allclose(se.eval_G(b), expected, atol=1e-13)

    @pytest.mark.parametrize("b", [
        np.diag([2j, 1 + 1.5j]),                       # normal, one half-plane
        np.diag([2j, -1.5j]),                          # normal, mixed spectrum
        np.array([[2j, 0.8], [0.0, 3j]]),              # non-normal
    ])
    def test_derivative_matches_finite_difference(self, b):
        se = ov.ScalarEmbedded(ms.Semicircle(1.0))
        h = np.array([[0.2, -0.1j], [0.3, 0.1]])
        np.testing.assert_allclose(se.eval_dG(b, h), central_diff_dG(se, b, h),
                                   atol=5e-9)

    @pytest.mark.parametrize("b, pole", [
        (np.array([[2j, 0.3], [0.1, 3j]]), -1j),
        (np.array([[-2j, 0.3], [0.1, -3j]]), 1j),
    ], ids=["upper", "lower"])
    def test_cauchy_derivative_closed_form(self, b, pole, monkeypatch):
        # ||h|| >= 2 margin: the unscaled block [[b, h], [0, b]] leaves b's
        # half-plane, so only the power-of-two scaling keeps the closed form
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the half-plane derivative ran quadrature")

        monkeypatch.setattr(ms, "adaptive_integral", no_quadrature)
        se = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        h = 8.0 * np.array([[1.0, 0.2], [0.0, -0.5]])
        margin = max(linalg.half_plane_margin(b), linalg.half_plane_margin(-b))
        assert linalg.operator_norm(h) >= 2 * margin
        res = np.linalg.inv(b - pole * np.eye(2))
        np.testing.assert_allclose(se.eval_dG(b, h), -res @ h @ res, atol=1e-13)

    def test_real_spectrum_rejected(self):
        se = ov.ScalarEmbedded(ms.Semicircle(1.0))
        with pytest.raises(RealAxisPoint):
            se.eval_G(np.array([[1.0, 2.0], [0.5, -1.0]]))

    def test_half_plane_is_preserved(self, rng):
        from conftest import random_half_plane
        se = ov.ScalarEmbedded(ms.Semicircle(1.0))
        for _ in range(25):
            dim = int(rng.integers(1, 5))
            b = random_half_plane(rng, dim, margin=0.3 + rng.random())
            margin = linalg.half_plane_margin(b)
            g = se.eval_G(b)
            assert linalg.half_plane_margin(-g) > 0        # G maps into the lower set
            assert linalg.operator_norm(g) <= 1.0 / margin + 1e-12


# ---------------------------------------------------------------------------
# point mass at an operator


class TestDiracB:
    def setup_method(self):
        self.op = np.array([[1.0, 0.5], [0.5, -1.0]])
        self.dist = ov.DiracB(self.op)

    def test_closed_form(self):
        b = np.array([[2j, 0.1], [0.0, 1 + 2j]])
        np.testing.assert_allclose(self.dist.eval_G(b), np.linalg.inv(b - self.op),
                                   atol=1e-14)

    def test_amplified_argument(self):
        b = linalg.direct_sum(np.diag([2j, 3j]), np.diag([1j, 4j]))
        got = self.dist.eval_G(b)
        expected = np.linalg.inv(b - np.kron(np.eye(2), self.op))
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_spectrum_point_rejected(self):
        lam = np.linalg.eigvalsh(self.op)[0]
        with pytest.raises(OutsideResolvent):
            self.dist.eval_G(lam * np.eye(2))

    def test_derivative(self):
        b = np.diag([2j, 3j])
        h = np.array([[0.3, 0.1], [0.1j, -0.2]])
        np.testing.assert_allclose(self.dist.eval_dG(b, h),
                                   central_diff_dG(self.dist, b, h), atol=1e-8)

    def test_requires_self_adjoint(self):
        with pytest.raises(ValueError):
            ov.DiracB(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sample_is_constant(self):
        t = self.dist.sample(3, rngmod.stream(0, 0))
        np.testing.assert_allclose(t, np.kron(self.op, np.eye(3)))


# ---------------------------------------------------------------------------
# operator-valued semicircular families


class TestOVSemicircular:
    def test_scalar_coefficient_reduces_to_semicircle(self):
        dist = ov.OVSemicircular((0.5,))
        for z in [2j, 1 + 1j, -0.5 + 3j]:
            got = dist.eval_G(np.array([[z]]))[0, 0]
            assert got == pytest.approx(ms.g_scalar(ms.Semicircle(0.25), z), abs=1e-12)

    def test_norm_bound_scalar(self):
        assert ov.OVSemicircular((0.5,)).norm_bound() == pytest.approx(1.0)

    def test_fixed_point_matches_matrix_model(self):
        a1 = np.array([[0.6, 0.2], [0.2, 0.3]])
        a2 = np.array([[0.1, 0.0], [0.0, 0.4]])
        dist = ov.OVSemicircular((a1, a2))
        b = np.diag([2j, 2.5j]) + 0.2
        est = ov.mc_estimate_G(dist, b, big_dim=350, trials=8, seed=5)
        assert np.abs(dist.eval_G(b) - est.mean).max() <= max(4 * est.stderr, 2e-4)

    def test_derivative_matches_finite_difference(self):
        dist = ov.OVSemicircular((np.array([[0.6, 0.2], [0.2, 0.3]]),))
        b = np.diag([2j, 2.5j]) + 0.2
        h = np.array([[0.2, -0.1j], [0.3, 0.1]])
        np.testing.assert_allclose(dist.eval_dG(b, h), central_diff_dG(dist, b, h),
                                   atol=5e-9)

    def test_amplification_respects_direct_sums(self):
        dist = ov.OVSemicircular((np.array([[0.6, 0.2], [0.2, 0.3]]),))
        b1 = np.diag([2j, 2.5j]) + 0.2
        b2 = np.diag([1.7j, 3j])
        g = dist.eval_G(linalg.direct_sum(b1, b2))
        np.testing.assert_allclose(g[:2, :2], dist.eval_G(b1), atol=1e-11)
        np.testing.assert_allclose(g[2:, 2:], dist.eval_G(b2), atol=1e-11)
        assert np.abs(g[:2, 2:]).max() <= 1e-11

    def test_sampling_needs_self_adjoint_coefficients(self):
        dist = ov.OVSemicircular((np.array([[0.0, 1.0], [0.0, 0.0]]),))
        with pytest.raises(UnsupportedPoint):
            dist.sample(4, rngmod.stream(0, 0))

    def test_rejects_mismatched_coefficients(self):
        with pytest.raises(DimensionMismatch):
            ov.OVSemicircular((np.eye(2), np.eye(3)))

    @pytest.mark.parametrize("b, h", [
        (np.diag([2j, 2.5j]) + 0.2, None),
        (linalg.direct_sum(np.diag([2j, 2.5j]) + 0.2, np.diag([1.7j, -3j]))
         + 0.05 * (np.eye(4, k=2) + np.eye(4, k=-2)), None),
        (tr.base_point(0.01, 1, 2), 10.0 * np.ones((4, 4))),
    ], ids=["dim2", "amplified-dim4", "large-derivative"])
    def test_derivative_matches_kronecker_solve(self, b, h):
        dist = ov.OVSemicircular((np.array([[0.6, 0.2], [0.2, 0.3]]),
                                  np.array([[0.1, 0.0], [0.0, 0.4]])))
        m, k = b.shape[0], b.shape[0] // 2
        if h is None:
            h = (np.arange(m * m).reshape(m, m) % 5 - 2) * (0.1 + 0.05j)
        # dG solves dG - G eta(dG) G = -G h G; vec(A X B) = (B^T (x) A) vec(X)
        g = dist.eval_G(b)
        lhs = np.eye(m * m, dtype=complex)
        for a in dist.coefficients:
            big = np.kron(np.eye(k), a)
            lhs -= np.kron((big.conj().T @ g).T, g @ big)
        vec = np.linalg.solve(lhs, (-g @ h @ g).reshape(-1, order="F"))
        expected = vec.reshape((m, m), order="F")
        got = dist.eval_dG(b, h)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("coeffs, b", [
        # the block argument eval_dG builds at large-derivative: b is in
        # neither half-plane, so the direction is not rescaled
        ((np.array([[0.6, 0.2], [0.2, 0.3]]), np.array([[0.1, 0.0], [0.0, 0.4]])),
         np.block([[tr.base_point(0.01, 1, 2), 10.0 * np.ones((4, 4))],
                   [np.zeros((4, 4)), tr.base_point(0.01, 1, 2)]])),
        ((np.array([[1.0]]),), np.array([[0.5 + 1e-6j]])),
    ], ids=["large-derivative", "near-real-inside-support"])
    def test_slow_contraction_falls_back_to_the_damped_loop(self, coeffs, b):
        amplified = [np.kron(np.eye(b.shape[0] // a.shape[0]), a) for a in coeffs]
        g = np.linalg.inv(b)
        for _ in range(20000):
            eta = np.zeros_like(g)
            for big in amplified:
                eta += big @ g @ big.conj().T
            g_new = 0.5 * g + 0.5 * np.linalg.inv(b - eta)
            if np.abs(g_new - g).max() <= 1e-13:
                break
            g = g_new
        else:
            pytest.fail("reference damped loop did not settle")
        assert np.array_equal(ov.OVSemicircular(coeffs).eval_G(b), g_new)

    @staticmethod
    def _weak_coefficients():
        a1 = np.array([[1.0, 0.5], [0.5, -0.3]])
        a2 = np.array([[0.2, 1j], [-1j, 0.6]])
        return tuple(0.02 * a / np.linalg.norm(a, 2) for a in (a1, a2))

    def test_weak_covariance_settles_in_few_inverses(self, monkeypatch):
        dist = ov.OVSemicircular(self._weak_coefficients())
        inv = np.linalg.inv
        calls = []

        def counting_inv(x):
            calls.append(1)
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        dist.eval_G(tr.base_point(0.4, 2, 2))
        assert len(calls) <= 10

    def test_weak_covariance_residual(self):
        coeffs = self._weak_coefficients()
        b = tr.base_point(0.4, 2, 2)
        g = ov.OVSemicircular(coeffs).eval_G(b)
        eta = sum(big @ g @ big.conj().T for big in (np.kron(np.eye(4), a) for a in coeffs))
        assert np.abs(g - np.linalg.inv(b - eta)).max() <= 1e-13

    @pytest.mark.parametrize("b", [
        np.array([[0.5]]),
        np.diag(np.linspace(-1.5, 1.5, 16)),
    ], ids=["dim1", "dim16"])
    def test_real_argument_inside_the_support_is_refused_at_once(self, b):
        start = time.perf_counter()
        with pytest.raises(RealAxisPoint):
            ov.OVSemicircular((1.0,)).eval_G(b)
        assert time.perf_counter() - start <= 0.1

    def test_unsettled_fixed_point_reports_its_state(self, monkeypatch):
        monkeypatch.setattr(ov, "_FIXED_POINT_MAX_ITER", 3)
        with pytest.raises(NoConvergence,
                           match=r"damped phase, 3 iterations, last step \d\.\de[+-]\d\d$"):
            ov.OVSemicircular((1.0,)).eval_G(np.array([[0.5 + 1e-6j]]))

    @pytest.mark.parametrize("z", [2.5, 5.0, 0.5 + 1e-6j])
    def test_values_off_the_support_or_the_axis(self, z):
        expected = (z - np.sqrt(z - 2 + 0j) * np.sqrt(z + 2 + 0j)) / 2
        got = ov.OVSemicircular((1.0,)).eval_G(np.array([[z]]))[0, 0]
        assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# derivatives read off the block argument, shared by every variant

DERIVATIVE_DISTS = {
    "scalar-embedded": ov.ScalarEmbedded(ms.Semicircle(1.0)),
    "dirac": ov.DiracB(np.array([[0.5]])),
    "ov-semicircular": ov.OVSemicircular((0.5,)),
}


@pytest.mark.parametrize("dist", DERIVATIVE_DISTS.values(), ids=DERIVATIVE_DISTS.keys())
def test_direction_shape_checked(dist):
    with pytest.raises(DimensionMismatch):
        dist.eval_dG(np.diag([2j, 3j]), np.eye(3))


@pytest.mark.parametrize("dist", DERIVATIVE_DISTS.values(), ids=DERIVATIVE_DISTS.keys())
def test_derivative_dim_limit(dist):
    m = linalg.MAX_DIM // 2 + 1
    with pytest.raises(DimensionMismatch, match=f"dim {m} "):
        dist.eval_dG(2j * np.eye(m), np.eye(m))


# ---------------------------------------------------------------------------
# a scalar law's stacked derivative against the corner of the block argument

CORNER_LAWS = {
    "cauchy": ms.Cauchy(0.2, 0.7),
    "semicircle": ms.Semicircle(1.0),
    "arcsine": ms.Arcsine(1.5),
    "bernoulli": ms.bernoulli(0.8, 0.1),
    "truncated-cauchy": ms.TruncatedMeasure(base=ms.Cauchy(0.0, 1.0), cutoff=3.0),
}

CORNER_POINTS = {
    "omega-dim2": tr.base_point(0.5, 1) + np.array([[0.1, 0.05j], [-0.02, 0.2]]),
    "omega-dim4": np.linalg.inv(tr.base_point(2.0, 2)
                                + 0.1 * np.array([[0.3, 1j, 0.0, 0.2],
                                                  [0.1, -0.4, 0.5j, 0.0],
                                                  [0.0, 0.2, 0.1, -0.3j],
                                                  [0.6j, 0.0, 0.1, 0.2]])),
    "upper-non-diagonal": np.array([[1.5j, 0.4], [-0.3j, 0.2 + 2j]]),
    "lower": np.array([[-2j, 0.1], [0.2, 0.5 - 1.2j]]),
}


def _directions(m, count, seed):
    gen = rngmod.stream(seed, m)
    return gen.standard_normal((count, m, m)) + 1j * gen.standard_normal((count, m, m))


@pytest.mark.parametrize("b", CORNER_POINTS.values(), ids=CORNER_POINTS.keys())
@pytest.mark.parametrize("law", CORNER_LAWS.values(), ids=CORNER_LAWS.keys())
def test_stacked_derivative_is_the_corner_of_the_block_argument(law, b):
    se = ov.ScalarEmbedded(law)
    m = b.shape[0]
    stack = _directions(m, m * m, 11)
    got = se.eval_dG(b, stack)
    assert got.shape == stack.shape
    zero = np.zeros_like(b)
    for h, dg in zip(stack, got):
        corner = se.eval_G(np.block([[b, h], [zero, b]]))[:m, m:]
        assert np.abs(dg - corner).max() <= 1e-14 * max(1.0, np.abs(corner).max())
        one = se.eval_dG(b, h)
        assert one.shape == (m, m)
        assert np.abs(dg - one).max() <= 1e-14 * max(1.0, np.abs(one).max())


@pytest.mark.parametrize("law", CORNER_LAWS.values(), ids=CORNER_LAWS.keys())
def test_scalar_jacobian_takes_one_quadrature_per_segment(law, monkeypatch):
    integrals = []
    inner = ms.adaptive_integral

    def counting(*args, **kwargs):
        integrals.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ms, "adaptive_integral", counting)
    se = ov.ScalarEmbedded(law)
    b = CORNER_POINTS["omega-dim4"]
    jac = tr.g_jacobian(se, b)
    assert len(integrals) == len(law.segments())
    monkeypatch.setattr(ms, "adaptive_integral", inner)
    columns = [se.eval_dG(b, h).reshape(-1) for h in np.eye(16).reshape(16, 4, 4)]
    assert np.abs(jac - np.array(columns).T).max() <= 1e-14 * max(1.0, np.abs(jac).max())


@pytest.mark.parametrize("dist, b", [
    (ov.DiracB(np.array([[0.3, 0.1j], [-0.1j, -0.2]])), CORNER_POINTS["omega-dim4"]),
    (ov.OVSemicircular((np.array([[0.2, 0.05], [0.05, 0.1]]),)),
     CORNER_POINTS["omega-dim4"]),
], ids=["dirac", "ov-semicircular"])
def test_default_jacobian_is_column_by_column(dist, b):
    stack = _directions(4, 16, 12)
    columns = np.array([dist.eval_dG(b, h).reshape(-1) for h in stack]).T
    assert np.array_equal(dist.jacobian(b, stack), columns)


# ---------------------------------------------------------------------------
# sums of free summands


class TestFreeSum:
    def test_dirac_summands_sample_as_their_sum(self):
        a = np.array([[1.0, 0.2], [0.2, -0.5]])
        b = np.array([[0.3, -0.1j], [0.1j, 0.7]])
        total = ov.FreeSum(ov.DiracB(a), ov.DiracB(b)).sample(5, rngmod.stream(3, 0))
        assert total.shape == (10, 10)
        np.testing.assert_array_equal(total,
                                      ov.DiracB(a + b).sample(5, rngmod.stream(3, 0)))

    def test_semicircular_summands_sample_as_one_family(self):
        c1, c2, c3 = np.diag([0.2, 0.1]), np.array([[0.0, 0.1], [0.1, 0.0]]), 0.3 * np.eye(2)
        total = ov.FreeSum(ov.OVSemicircular((c1, c2)), ov.OVSemicircular((c3,)))
        family = ov.OVSemicircular((c1, c2, c3))
        np.testing.assert_array_equal(total.sample(6, rngmod.stream(4, 1)),
                                      family.sample(6, rngmod.stream(4, 1)))

    def test_norm_bound_arithmetic(self):
        op = np.diag([1.0, -0.5])
        semi = ov.ScalarEmbedded(ms.Semicircle(1.0), base_dim=2)
        total = ov.FreeSum(ov.DiracB(op), semi)
        assert total.norm_bound() == 1.0 + 2.0
        cauchy = ov.ScalarEmbedded(ms.Cauchy(0, 1), base_dim=2)
        assert ov.FreeSum(ov.DiracB(op), cauchy).norm_bound() == np.inf

    def test_base_dims_must_agree(self):
        with pytest.raises(DimensionMismatch):
            ov.FreeSum(ov.DiracB(np.eye(2)), ov.ScalarEmbedded(ms.Semicircle(1.0)))
        with pytest.raises(DimensionMismatch):
            ov.FreeSum()

    def test_free_sum_of_semicircles(self):
        # X1 + X2 for free standard semicirculars has variance-2 semicircle law
        model = ov.FreeSum(ov.ScalarEmbedded(ms.Semicircle(1.0)),
                           ov.ScalarEmbedded(ms.Semicircle(1.0)))
        est = ov.mc_estimate_G(model, np.array([[2.5j]]), big_dim=400, trials=8, seed=9)
        expected = ms.g_scalar(ms.Semicircle(2.0), 2.5j)
        assert abs(est.mean[0, 0] - expected) <= max(4 * est.stderr, 5e-4)


# ---------------------------------------------------------------------------
# Monte Carlo plumbing


class TestMCEstimate:
    def test_constant_model_is_exact(self):
        op = np.array([[1.0, 0.2], [0.2, -0.5]])
        dist = ov.DiracB(op)
        b = np.array([[2j, 0.1], [0.3, 3j]])
        est = ov.mc_estimate_G(dist, b, big_dim=8, trials=3, seed=0)
        np.testing.assert_allclose(est.mean, np.linalg.inv(b - op), atol=1e-12)
        assert est.stderr <= 1e-14

    def test_same_seed_reproduces(self):
        dist = ov.ScalarEmbedded(ms.Semicircle(1.0))
        b = np.array([[2j]])
        one = ov.mc_estimate_G(dist, b, big_dim=100, trials=4, seed=7)
        two = ov.mc_estimate_G(dist, b, big_dim=100, trials=4, seed=7)
        np.testing.assert_array_equal(one.mean, two.mean)
        assert one.stderr == two.stderr

    def test_scalar_embedded_sampling(self):
        dist = ov.ScalarEmbedded(ms.Arcsine(1.5))
        est = ov.mc_estimate_G(dist, np.array([[1.2j]]), big_dim=300, trials=6, seed=4)
        exact = ms.g_scalar(ms.Arcsine(1.5), 1.2j)
        assert abs(est.mean[0, 0] - exact) <= max(4 * est.stderr, 5e-4)
