import numpy as np
import pytest
import scipy.integrate

from ovfree import linalg, measures as ms, ovdist as ov, rng as rngmod
from ovfree.errors import (DimensionMismatch, MixerSyntaxError, OutsideResolvent,
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
    def test_cauchy_derivative_closed_form(self, b, pole):
        se = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        h = np.array([[1.0, 0.2], [0.0, -0.5]])
        res = np.linalg.inv(b - pole * np.eye(2))
        np.testing.assert_allclose(se.eval_dG(b, h), -res @ h @ res, atol=1e-13)

    def test_real_spectrum_rejected(self):
        se = ov.ScalarEmbedded(ms.Semicircle(1.0))
        with pytest.raises(RealAxisPoint):
            se.eval_G(np.array([[1.0, 2.0], [0.5, -1.0]]))

    def test_direction_shape_checked(self):
        se = ov.ScalarEmbedded(ms.Semicircle(1.0))
        with pytest.raises(DimensionMismatch):
            se.eval_dG(np.diag([2j, 3j]), np.eye(3))

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


# ---------------------------------------------------------------------------
# independent laws on the diagonal


class TestDiagonalIndependent:
    def setup_method(self):
        self.laws = (ms.Cauchy(0.0, 1.0), ms.Cauchy(0.5, 0.7))
        self.dist = ov.DiagonalIndependent(self.laws, "free")
        self.poles = np.diag([-1j, 0.5 - 0.7j])

    def test_matches_virtual_pole_closed_form(self):
        b = np.array([[2j, 0.2], [0.1, 3j]])
        got = self.dist.eval_G(b)
        np.testing.assert_allclose(got, np.linalg.inv(b - self.poles), atol=1e-11)

    def test_amplified_argument(self):
        b = np.kron(np.eye(2), np.array([[2j, 0.2], [0.1, 3j]]))
        b += 0.05 * (np.eye(4, k=2) + np.eye(4, k=-2))
        got = self.dist.eval_G(b)
        np.testing.assert_allclose(got, np.linalg.inv(b - np.kron(np.eye(2), self.poles)),
                                   atol=1e-11)

    def test_derivative(self):
        b = np.array([[2j, 0.2], [0.1, 3j]])
        h = np.array([[0.1, 0.05], [0.02j, -0.1]])
        np.testing.assert_allclose(self.dist.eval_dG(b, h),
                                   central_diff_dG(self.dist, b, h), atol=1e-8)

    def test_dominance_gate(self):
        with pytest.raises(UnsupportedPoint):
            self.dist.eval_G(np.array([[0.2j, 5.0], [5.0, 0.2j]]))

    def test_sampled_transform_matches(self):
        b = np.array([[2j, 0.2], [0.1, 3j]])
        est = ov.mc_estimate_G(self.dist, b, big_dim=400, trials=6, seed=2)
        assert np.abs(est.mean - np.linalg.inv(b - self.poles)).max() \
            <= max(4 * est.stderr, 2e-4)

    def test_classical_mode_samples_commute(self):
        dist = ov.DiagonalIndependent((ms.Bernoulli(1, 0), ms.Semicircle(1.0)),
                                      "classical")
        t = dist.sample(5, rngmod.stream(1, 0))
        assert t.shape == (10, 10)
        assert np.abs(t - np.diag(np.diagonal(t))).max() == 0.0

    def test_boolean_mode_has_no_model(self):
        dist = ov.DiagonalIndependent((ms.Cauchy(0, 1),), "boolean")
        with pytest.raises(UnsupportedPoint):
            dist.sample(4, rngmod.stream(0, 0))

    def test_non_cauchy_derivative_unsupported(self):
        dist = ov.DiagonalIndependent((ms.Semicircle(1.0),), "free")
        with pytest.raises(UnsupportedPoint):
            dist.eval_dG(np.array([[2j]]), np.array([[1.0]]))

    def test_norm_bound(self):
        assert self.dist.norm_bound() == np.inf
        bounded = ov.DiagonalIndependent((ms.Bernoulli(1, 0), ms.Arcsine(2.0)))
        assert bounded.norm_bound() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# polynomial mixers


class TestMatrixModel:
    @pytest.mark.parametrize("bad", [
        "X1 +", "X0", "C1 C2", "X1 $ X2", "((X1)", "X1 * (X2 + X3)", "", "C9 * X1",
    ])
    def test_syntax_and_reference_errors(self, bad):
        with pytest.raises(MixerSyntaxError):
            ov.MatrixModel(bad, (ms.Semicircle(1.0), ms.Semicircle(1.0)),
                           (np.eye(2),), base_dim=2)

    def test_norm_bound_arithmetic(self):
        model = ov.MatrixModel("C1 * X1 * C1 + 0.5 * X2",
                               (ms.Semicircle(1.0), ms.Bernoulli(1, 0)),
                               (np.diag([1.0, 0.5]),), base_dim=2)
        # |C|^2 * 2 + 0.5 * 1
        assert model.norm_bound() == pytest.approx(2.5)
        unbounded = ov.MatrixModel("X1", (ms.Cauchy(0, 1),), ())
        assert unbounded.norm_bound() == np.inf

    def test_sample_is_self_adjoint(self):
        model = ov.MatrixModel("C1 * X1 * C1 + 0.5 * X2 - X1",
                               (ms.Semicircle(1.0), ms.Bernoulli(1, 0)),
                               (np.diag([1.0, 0.5]),), base_dim=2)
        t = model.sample(20, rngmod.stream(3, 0))
        assert t.shape == (40, 40)
        assert np.abs(t - t.conj().T).max() <= 1e-12

    def test_non_self_adjoint_mixer_rejected_at_sampling(self):
        model = ov.MatrixModel("C1 * X1", (ms.Semicircle(1.0),),
                               (np.array([[0.0, 1.0], [0.0, 0.0]]),), base_dim=2)
        with pytest.raises(UnsupportedPoint):
            model.sample(6, rngmod.stream(0, 0))

    def test_free_sum_of_semicircles(self):
        # X1 + X2 for free standard semicirculars has variance-2 semicircle law
        model = ov.MatrixModel("X1 + X2", (ms.Semicircle(1.0), ms.Semicircle(1.0)), ())
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
