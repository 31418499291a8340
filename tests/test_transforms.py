import dataclasses

import numpy as np
import pytest

from conftest import random_hermitian
from ovfree import linalg, measures as ms, ovdist as ov, transforms as tr
from ovfree.errors import (BNotDominant, DimensionMismatch, LeftCertifiedBall,
                           MarginViolation, NoConvergence, PerturbationTooLarge,
                           UnsupportedPoint, WrongPattern)


def frobenius_direction(gen, dim):
    y = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return y / np.linalg.norm(y)


# ---------------------------------------------------------------------------
# the alternating-block domain


class TestOmegaMembership:
    def test_base_point_layout(self):
        d = tr.base_point(0.5, 2, 1)
        np.testing.assert_allclose(np.diagonal(d), [0.5j, -0.5j, 0.5j, -0.5j])
        d2 = tr.base_point(0.3, 1, 2)
        np.testing.assert_allclose(np.diagonal(d2), [0.3j, 0.3j, -0.3j, -0.3j])

    def test_margin_accounting(self):
        b = tr.base_point(0.5, 2, 1) + 0.1 * (np.eye(4, k=1) + np.eye(4, k=-1))
        pt = tr.omega_membership(b, 2, 1)
        assert pt.block_margins == (0.5, 0.5, 0.5, 0.5)
        assert pt.margin == pytest.approx(0.5 - pt.off_norm)
        assert pt.off_norm == pytest.approx(
            np.linalg.norm(0.1 * (np.eye(4, k=1) + np.eye(4, k=-1)), 2))

    def test_sign_pattern_enforced(self):
        with pytest.raises(WrongPattern):
            tr.omega_membership(np.diag([0.5j, 0.5j, 0.5j, -0.5j]), 2, 1)
        with pytest.raises(WrongPattern):
            tr.omega_membership(-tr.base_point(0.5, 1, 1), 1, 1)

    def test_indefinite_block_rejected(self):
        b = tr.base_point(0.5, 1, 2)
        b[0, 0] = -0.1j  # first (positive) block becomes indefinite
        with pytest.raises(WrongPattern):
            tr.omega_membership(b, 1, 2)

    def test_perturbation_gate(self):
        b = tr.base_point(0.5, 2, 1) + 0.6 * (np.eye(4, k=1) + np.eye(4, k=-1))
        with pytest.raises(PerturbationTooLarge):
            tr.omega_membership(b, 2, 1)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            tr.omega_membership(np.diag([0.5j, -0.5j]), 2, 1)

    def test_envelope_bound_formula(self):
        pt = tr.omega_membership(tr.base_point(1.0, 1, 1), 1, 1)
        assert pt.resolvent_envelope(0.25) == pytest.approx(1.0 / 0.75)
        with pytest.raises(MarginViolation):
            pt.resolvent_envelope(1.0)

    def test_envelope_holds_on_samples(self, rng):
        # mixed-sign blocks coupled to arbitrary self-adjoint operators
        lam = 1.2
        for _ in range(40):
            b = tr.base_point(lam, 1, 2)
            b += 0.15 * frobenius_direction(rng, 4)
            try:
                pt = tr.omega_membership(b, 1, 2)
            except PerturbationTooLarge:
                continue
            t = random_hermitian(rng, 2, scale=0.4)
            tau = linalg.operator_norm(t)
            if tau >= pt.margin:
                continue
            resolvent = np.linalg.inv(b - np.kron(np.eye(2), t))
            assert linalg.operator_norm(resolvent) <= pt.resolvent_envelope(tau) + 1e-12


# ---------------------------------------------------------------------------
# chart map and certification


class TestBlochCertify:
    def test_identity_map_constants(self):
        # the zero operator makes K(w) = w exactly, so every certified
        # quantity is known in closed form
        zero = ov.DiracB(np.zeros((1, 1)))
        ball = tr.bloch_certify(zero, 0.4, 1)
        r = ball.chart_radius
        assert r == pytest.approx(0.2)
        assert ball.jacobian_floor == pytest.approx(0.9)
        assert ball.variation == pytest.approx(1.5 * r)
        assert ball.domain_radius == pytest.approx(r * 0.9 / 6.0)
        assert ball.image_radius == pytest.approx(r * 0.81 / 12.0)

    def test_center_and_image_center(self):
        c = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        ball = tr.bloch_certify(c, 1.0 / 3.0, 1)
        np.testing.assert_allclose(np.diagonal(ball.center), [-3j, 3j], atol=1e-14)
        np.testing.assert_allclose(np.diagonal(ball.image_center),
                                   [-0.75j, 0.75j], atol=1e-14)

    def test_json_keys(self):
        ball = tr.bloch_certify(ov.ScalarEmbedded(ms.Cauchy(0, 1)), 0.25, 1)
        assert list(ball.to_json()) == [
            "lam", "n_pairs", "base_dim", "center", "image_center",
            "chart_radius", "jacobian_floor", "variation", "domain_radius",
            "image_radius"]

    @pytest.mark.parametrize("dist", [
        # Omega points lie in neither half-plane, so the Cauchy law's G
        # runs through quadrature there, not through its closed form
        ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0)),
        ov.DiracB(np.array([[0.2]])),
        ov.OVSemicircular((0.3,)),
    ], ids=["cauchy", "dirac", "ov-semicircular"])
    def test_ball_carries_the_center_jacobian(self, dist):
        # invert_G starts from this Jacobian instead of recomputing it, so
        # the two must agree bit for bit
        ball = tr.bloch_certify(dist, 0.4, 1)
        assert np.array_equal(ball.jacobian, tr.k_jacobian(dist, ball.center))

    @pytest.mark.parametrize("dist", [
        ov.OVSemicircular((0.2,)),
        ov.ScalarEmbedded(ms.Semicircle(0.04)),
    ], ids=["ov-semicircular", "semicircle"])
    def test_finite_difference_jacobian(self, dist):
        w0 = linalg.inverse(tr.base_point(0.5, 1, 1))
        jac = tr.k_jacobian(dist, w0)
        eps = 1e-6
        h = np.array([[0.3, 0.4j], [0.1, -0.2]])
        fd = (tr.k_map(dist, w0 + eps * h) - tr.k_map(dist, w0 - eps * h)) / (2 * eps)
        np.testing.assert_allclose((jac @ h.reshape(-1)).reshape(2, 2), fd, atol=1e-8)

    @pytest.mark.parametrize("dist", [
        ov.OVSemicircular((0.2,)),
        ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0)),
    ], ids=["ov-semicircular", "cauchy"])
    def test_finite_difference_g_jacobian(self, dist):
        b = tr.base_point(2.0, 1, 1) + np.array([[0.0, 0.3], [0.1, 0.0]])
        jac = tr.g_jacobian(dist, b)
        eps = 1e-6
        h = np.array([[0.3, 0.4j], [0.1, -0.2]])
        fd = (dist.eval_G(b + eps * h) - dist.eval_G(b - eps * h)) / (2 * eps)
        np.testing.assert_allclose((jac @ h.reshape(-1)).reshape(2, 2), fd, atol=1e-8)


class TestInvertG:
    @pytest.mark.parametrize("dist", [
        ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0)),
        ov.ScalarEmbedded(ms.Semicircle(0.25)),
        ov.DiracB(np.array([[0.2]])),
        ov.OVSemicircular((0.3,)),
    ])
    def test_round_trip(self, dist, rng):
        ball = tr.bloch_certify(dist, 0.4, 1)
        for _ in range(10):
            y = frobenius_direction(rng, 2)
            target = ball.image_center + 0.9 * ball.image_radius * rng.random() * y
            b = tr.invert_G(dist, ball, target)
            assert np.linalg.norm(dist.eval_G(b) - target) <= 1e-9
            assert np.linalg.norm(linalg.inverse(b) - ball.center) \
                <= ball.domain_radius

    def test_target_outside_image_ball_rejected(self):
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        ball = tr.bloch_certify(dist, 0.4, 1)
        target = ball.image_center + 2.0 * ball.image_radius * np.eye(2)
        with pytest.raises(UnsupportedPoint):
            tr.invert_G(dist, ball, target)

    def test_center_inverts_to_base_point(self):
        dist = ov.ScalarEmbedded(ms.Semicircle(0.25))
        ball = tr.bloch_certify(dist, 0.4, 1)
        b = tr.invert_G(dist, ball, ball.image_center)
        np.testing.assert_allclose(b, tr.base_point(0.4, 1, 1), atol=1e-9)

    def test_center_target_evaluates_nothing(self, monkeypatch):
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        ball = tr.bloch_certify(dist, 0.4, 1)
        calls = []
        inner = ov.ScalarEmbedded.eval_G

        def counted(self, b):
            calls.append(b)
            return inner(self, b)

        monkeypatch.setattr(ov.ScalarEmbedded, "eval_G", counted)
        b = tr.invert_G(dist, ball, ball.image_center)
        assert calls == []
        np.testing.assert_array_equal(b, linalg.inverse(ball.center))

    def test_newton_never_revisits_the_center(self, monkeypatch):
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        ball = tr.bloch_certify(dist, 0.4, 1)
        visited = {"k_map": [], "k_jacobian": []}
        for name in visited:
            inner = getattr(tr, name)

            def counted(dist, w, inner=inner, seen=visited[name]):
                seen.append(np.array(w))
                return inner(dist, w)

            monkeypatch.setattr(tr, name, counted)
        target = ball.image_center + 0.5 * ball.image_radius * np.eye(2) / np.sqrt(2)
        tr.invert_G(dist, ball, target)
        assert visited["k_map"] and visited["k_jacobian"]
        # one value per chart step, one Jacobian per step after the first
        assert len(visited["k_jacobian"]) == len(visited["k_map"]) - 1
        for w in visited["k_map"] + visited["k_jacobian"]:
            assert not np.array_equal(w, ball.center)

    def test_escape_guard(self):
        # a ball doctored to claim far more coverage than the map delivers
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        ball = tr.bloch_certify(dist, 0.4, 1)
        doctored = dataclasses.replace(ball, domain_radius=1e-9 * ball.domain_radius)
        target = ball.image_center + 0.9 * ball.image_radius * np.eye(2) / np.sqrt(2)
        with pytest.raises(LeftCertifiedBall):
            tr.invert_G(dist, doctored, target)

    def test_newton_failure_names_its_state(self, monkeypatch):
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, 1.0))
        ball = tr.bloch_certify(dist, 0.4, 1)
        target = ball.image_center + 0.5 * ball.image_radius * np.eye(2) / np.sqrt(2)
        monkeypatch.setattr(tr, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(NoConvergence, match=r"^chart Newton did not reach the "
                           r"residual tolerance: 1 steps, last residual "
                           r"\d\.\de[-+]\d+ against 1\.\de-11$"):
            tr.invert_G(dist, ball, target)


class TestRTransform:
    def test_cauchy_r_on_block_diagonal_points(self):
        # on block-diagonal arguments the transform is the constant
        # -i*gamma*(sign pattern)
        gamma = 0.8
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, gamma))
        ball = tr.bloch_certify(dist, 0.5, 1)
        pattern = np.diag([-1j * gamma, 1j * gamma])
        for t in (0.0, 0.4, -0.6):
            w = ball.image_center + t * ball.image_radius * np.diag([1.0, 1.0]) / np.sqrt(2)
            np.testing.assert_allclose(tr.r_transform(dist, ball, w), pattern,
                                       atol=1e-8)

    def test_cauchy_r_squares_to_minus_gamma_squared(self, rng):
        # off the block diagonal R = -i*gamma*(P+ - P-) with tilted spectral
        # projectors; the involution identity survives
        gamma = 0.8
        dist = ov.ScalarEmbedded(ms.Cauchy(0.0, gamma))
        ball = tr.bloch_certify(dist, 0.5, 1)
        for _ in range(5):
            w = ball.image_center + 0.8 * ball.image_radius * frobenius_direction(rng, 2)
            r = tr.r_transform(dist, ball, w)
            np.testing.assert_allclose(r @ r, -gamma ** 2 * np.eye(2), atol=1e-7)

    def test_dirac_r_is_the_operator(self, rng):
        # for a point mass at b0, G(b) = (b - b0)^{-1} gives R(w) = b0 exactly
        b0 = np.array([[0.15, 0.05], [0.05, -0.1]])
        dist = ov.DiracB(b0)
        ball = tr.bloch_certify(dist, 0.5, 1)
        for _ in range(5):
            w = ball.image_center + 0.8 * ball.image_radius * frobenius_direction(rng, 4)
            np.testing.assert_allclose(tr.r_transform(dist, ball, w),
                                       np.kron(np.eye(2), b0), atol=1e-8)

    def test_semicircular_r_is_eta(self, rng):
        # R(w) = eta(w) for the operator-valued semicircular family
        a = np.array([[0.25, 0.1], [0.1, 0.15]])
        dist = ov.OVSemicircular((a,))
        ball = tr.bloch_certify(dist, 0.5, 1)
        big_a = np.kron(np.eye(2), a)
        for _ in range(5):
            w = ball.image_center + 0.8 * ball.image_radius * frobenius_direction(rng, 4)
            np.testing.assert_allclose(tr.r_transform(dist, ball, w),
                                       big_a @ w @ big_a.conj().T, atol=1e-8)


# ---------------------------------------------------------------------------
# the two-block resolvent identity


class TestBlockIdentity:
    def test_point_mass_frozen_value(self):
        rep = tr.block_resolvent_identity_check(ms.point_mass(0.0), 3j * np.eye(2))
        np.testing.assert_allclose(np.diagonal(rep.lhs), [-0.5j, -0.25j], atol=1e-14)
        assert rep.deviation <= 1e-12

    @pytest.mark.parametrize("law", [
        ms.Semicircle(1.0),
        ms.Cauchy(0.0, 1.0),
        ms.Arcsine(2.0),
        ms.bernoulli(1.0, 0.5),
        ms.truncate(ms.Cauchy(0.0, 1.0), 3.0).truncated,
    ])
    def test_identity_across_laws(self, law):
        B = np.array([[3j, 0.3], [0.2, 2.5j]])
        rep = tr.block_resolvent_identity_check(law, B)
        assert rep.deviation <= 1e-9

    def test_identity_on_amplified_arguments(self, rng):
        B = linalg.direct_sum(np.array([[3j, 0.3], [0.2, 2.5j]]),
                              np.diag([2.8j, 3.2j])) + 0.1
        rep = tr.block_resolvent_identity_check(ms.Semicircle(0.5), B)
        assert rep.deviation <= 1e-9

    def test_lower_half_plane_argument(self):
        rep = tr.block_resolvent_identity_check(ms.Cauchy(0.0, 1.0),
                                                np.diag([-3j, -2.6j]) + 0.2)
        assert rep.deviation <= 1e-9

    def test_dominance_gate(self):
        with pytest.raises(BNotDominant):
            tr.block_resolvent_identity_check(ms.Semicircle(1.0), 0.5j * np.eye(2))

    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            tr.block_resolvent_identity_check(ms.Semicircle(1.0), 3j * np.eye(3))
