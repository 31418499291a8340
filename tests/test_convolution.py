"""Additive convolution: overlap geometry, subordination, additivity, audits."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate

from ovfree import convolution as cv
from ovfree import linalg, measures, ovdist, transforms
from ovfree.errors import (DimensionMismatch, LeftCertifiedBall,
                           MarginViolation, NoConvergence, UnsupportedPoint,
                           WrongPattern)


def _ball(center_val, image_center, radius, dim=2):
    """Synthetic certified ball for geometry-only tests."""
    return transforms.CertifiedBall(
        lam=0.4, n_pairs=1, base_dim=1,
        center=center_val * np.eye(dim, dtype=complex),
        image_center=np.asarray(image_center, dtype=complex),
        chart_radius=0.2, jacobian_floor=0.9, variation=0.3,
        domain_radius=0.05, image_radius=radius,
        jacobian=np.eye(dim * dim, dtype=complex))


@pytest.fixture(scope="module")
def cauchy_task():
    x = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.01))
    y = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.015))
    return cv.ConvolutionTask.certify(x, y, 0.8, 1)


@pytest.fixture(scope="module")
def semi_task():
    x = ovdist.OVSemicircular(([[0.02]],))
    y = ovdist.OVSemicircular(([[0.03]],))
    return cv.ConvolutionTask.certify(x, y, 0.4, 1)


@pytest.fixture(scope="module")
def dirac_pair():
    gen = np.random.default_rng(20260814)
    def herm(scale):
        a = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        a = (a + a.conj().T) / 2
        return scale * a / np.linalg.norm(a, 2)
    b1 = herm(0.02)
    b2 = b1 + herm(0.008)
    return b1, b2


class TestImageOverlap:
    def test_identical_balls_return_the_common_ball(self):
        c = np.array([[0.1j, 0.0], [0.0, -0.1j]])
        ball = _ball(1.0, c, 0.03)
        center, radius = cv.image_overlap(ball, ball)
        assert np.allclose(center, c)
        assert radius == pytest.approx(0.03)

    def test_partial_overlap_geometry(self):
        cx = np.zeros((2, 2), dtype=complex)
        cy = np.zeros((2, 2), dtype=complex)
        cy[0, 0] = 0.04
        bx, by = _ball(1.0, cx, 0.03), _ball(1.0, cy, 0.02)
        center, radius = cv.image_overlap(bx, by)
        assert radius == pytest.approx((0.03 + 0.02 - 0.04) / 2)
        # inscribed ball touches both boundaries
        assert np.linalg.norm(center - cx) + radius == pytest.approx(0.03)
        assert np.linalg.norm(center - cy) + radius == pytest.approx(0.02)

    def test_nested_ball_is_returned_whole(self):
        cx = np.zeros((2, 2), dtype=complex)
        cy = np.zeros((2, 2), dtype=complex)
        cy[1, 1] = 0.005
        bx, by = _ball(1.0, cx, 0.05), _ball(1.0, cy, 0.01)
        center, radius = cv.image_overlap(bx, by)
        assert radius == pytest.approx(0.01)
        assert np.allclose(center, cy)

    def test_disjoint_balls_rejected(self):
        cx = np.zeros((2, 2), dtype=complex)
        cy = np.zeros((2, 2), dtype=complex)
        cy[0, 1] = 1.0
        with pytest.raises(UnsupportedPoint):
            cv.image_overlap(_ball(1.0, cx, 0.03), _ball(1.0, cy, 0.03))

    def test_different_base_points_rejected(self):
        c = np.zeros((2, 2), dtype=complex)
        with pytest.raises(DimensionMismatch):
            cv.image_overlap(_ball(1.0, c, 0.03), _ball(2.0, c, 0.03))

    def test_far_apart_operators_have_no_shared_chart(self):
        # image centers differ by roughly ||b1 - b2|| / lam^2, far beyond
        # the certified radii at this scale
        x = ovdist.DiracB([[0.0, 0.02], [0.02, 0.0]])
        y = ovdist.DiracB([[0.3, 0.0], [0.0, -0.3]])
        with pytest.raises(UnsupportedPoint):
            cv.ConvolutionTask.certify(x, y, 0.4, 1)


class TestConvolutionTask:
    def test_overlap_is_inside_both_images(self, cauchy_task):
        t = cauchy_task
        assert 0 < t.overlap_radius <= min(t.ball_x.image_radius,
                                           t.ball_y.image_radius)
        for ball in (t.ball_x, t.ball_y):
            gap = np.linalg.norm(t.overlap_center - ball.image_center)
            assert gap + t.overlap_radius <= ball.image_radius + 1e-12

    def test_sampled_targets_stay_in_the_overlap(self, cauchy_task):
        points = cauchy_task.sample_targets(25, seed=2)
        assert len(points) == 25
        for w in points:
            assert (np.linalg.norm(w - cauchy_task.overlap_center)
                    <= 0.9 * cauchy_task.overlap_radius + 1e-12)

    def test_sampling_is_deterministic(self, cauchy_task):
        a = cauchy_task.sample_targets(4, seed=5)
        b = cauchy_task.sample_targets(4, seed=5)
        c = cauchy_task.sample_targets(4, seed=6)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert not np.allclose(a[0], c[0])

    def test_base_dim_mismatch_rejected(self):
        x = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.01))
        y = ovdist.DiracB(0.01 * np.eye(2))
        with pytest.raises(DimensionMismatch):
            cv.ConvolutionTask.certify(x, y, 0.4, 1)

    def test_cauchy_r_sum_squares_to_a_scalar(self, cauchy_task):
        # the summed transform belongs to a Cauchy law of added scales, so
        # its square is -(gamma_x + gamma_y)^2 times the identity
        gamma = 0.01 + 0.015
        for w in cauchy_task.sample_targets(5, seed=8):
            r = cauchy_task.r_sum(w)
            assert np.allclose(r @ r, -gamma ** 2 * np.eye(2), atol=1e-8)


class TestEvalGOfSum:
    def test_round_trip_through_subordination(self, cauchy_task):
        for i, w_star in enumerate(cauchy_task.sample_targets(5, seed=21)):
            b = cauchy_task.r_sum(w_star) + linalg.inverse(w_star)
            w = cv.eval_G_of_sum(cauchy_task, b)
            assert np.linalg.norm(w - w_star) <= 1e-9, f"target {i}"

    def test_round_trip_semicircular(self, semi_task):
        for w_star in semi_task.sample_targets(4, seed=22):
            b = semi_task.r_sum(w_star) + linalg.inverse(w_star)
            w = cv.eval_G_of_sum(semi_task, b)
            assert np.linalg.norm(w - w_star) <= 1e-9

    def test_matches_the_directly_summed_law(self, cauchy_task):
        total = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.025))
        for w_star in cauchy_task.sample_targets(3, seed=23):
            b = cauchy_task.r_sum(w_star) + linalg.inverse(w_star)
            assert np.allclose(cv.eval_G_of_sum(cauchy_task, b),
                               total.eval_G(b), atol=1e-9)

    def test_dimension_mismatch_rejected(self, cauchy_task):
        with pytest.raises(DimensionMismatch):
            cv.eval_G_of_sum(cauchy_task, np.eye(4) * 2j)

    def test_unreachable_argument_is_refused(self, cauchy_task):
        w0 = cauchy_task.overlap_center
        b_far = cauchy_task.r_sum(w0) + linalg.inverse(w0) + 0.8 * np.eye(2)
        with pytest.raises((LeftCertifiedBall, NoConvergence)):
            cv.eval_G_of_sum(cauchy_task, b_far)

    def test_newton_failure_names_its_state(self, cauchy_task, monkeypatch):
        w_star = cauchy_task.sample_targets(1, seed=21)[0]
        b = cauchy_task.r_sum(w_star) + linalg.inverse(w_star)
        monkeypatch.setattr(cv, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(NoConvergence, match=r"^subordination Newton did not "
                           r"reach the tolerance: 1 steps, last residual "
                           r"\d\.\de[-+]\d+ against \d\.\de[-+]\d+$"):
            cv.eval_G_of_sum(cauchy_task, b)


class TestVerifyAdditivity:
    def test_cauchy_scales_add(self, cauchy_task):
        total = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.025))
        report = cv.verify_additivity(cauchy_task, total, count=10, seed=1)
        assert report.passed
        assert report.worst <= 1e-10

    def test_identical_cauchy_pair_doubles_the_scale(self):
        x = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.05))
        task = cv.ConvolutionTask.certify(x, x, 0.4, 1)
        total = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.1))
        report = cv.verify_additivity(task, total, count=10, seed=2)
        assert report.passed and report.worst <= 1e-10

    def test_semicircular_covariances_add(self, semi_task):
        total = ovdist.OVSemicircular(([[0.02]], [[0.03]]))
        report = cv.verify_additivity(semi_task, total, count=10, seed=3)
        assert report.passed and report.worst <= 1e-10

    def test_deterministic_operators_add(self, dirac_pair):
        b1, b2 = dirac_pair
        task = cv.ConvolutionTask.certify(ovdist.DiracB(b1),
                                          ovdist.DiracB(b2), 0.8, 1)
        report = cv.verify_additivity(task, ovdist.DiracB(b1 + b2),
                                      count=10, seed=4)
        assert report.passed and report.worst <= 1e-10

    def test_constant_shift_relocates_a_cauchy(self):
        task = cv.ConvolutionTask.certify(
            ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.002)),
            ovdist.DiracB([[0.002]]), 0.4, 1)
        total = ovdist.ScalarEmbedded(measures.Cauchy(0.002, 0.002))
        report = cv.verify_additivity(task, total, count=10, seed=5)
        assert report.passed and report.worst <= 1e-10

    def test_wrong_sum_law_is_detected(self, cauchy_task):
        wrong = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.05))
        report = cv.verify_additivity(cauchy_task, wrong, count=5, seed=6)
        assert not report.passed
        assert report.worst > 1e-4


class TestPatternGate:
    # x = y = Cauchy(1, 0.5) at lam = 0.3: R_X(w) + R_Y(w) + w^{-1} leaves
    # the alternating pattern, so w is not G_{X+Y} there (block 0 margin -0.2)
    @pytest.fixture(scope="class")
    def shifted_task(self):
        x = ovdist.ScalarEmbedded(measures.Cauchy(1.0, 0.5))
        return cv.ConvolutionTask.certify(x, x, 0.3, 1, seed=1)

    def test_sum_argument_outside_omega_is_refused(self, shifted_task):
        (w,) = shifted_task.sample_targets(1, seed=1)
        with pytest.raises(WrongPattern, match="block 0"):
            shifted_task.sum_argument(w)

    def test_verify_additivity_inherits_the_gate(self, shifted_task):
        total = ovdist.ScalarEmbedded(measures.Cauchy(2.0, 1.0))
        with pytest.raises(WrongPattern):
            cv.verify_additivity(shifted_task, total, count=2, seed=1)

    def test_sum_argument_inside_omega_is_unchanged(self, cauchy_task):
        (w,) = cauchy_task.sample_targets(1, seed=2)
        b = cauchy_task.sum_argument(w)
        assert np.array_equal(b, cauchy_task.r_sum(w) + linalg.inverse(w))
        transforms.omega_membership(b, 1)


class TestVerifyAdditivityMC:
    def test_semicircular_model_within_three_sigma(self, semi_task):
        total = ovdist.OVSemicircular(([[0.02]], [[0.03]]))
        report = cv.verify_additivity_mc(semi_task, total, count=2, seed=1,
                                         big_dim=200, trials=8)
        assert report.passed
        assert all(s > 0 for s in report.stderrs)

    def test_unbounded_model_is_refused(self, cauchy_task):
        model = ovdist.FreeSum(ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.01)),
                               ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.015)))
        with pytest.raises(MarginViolation):
            cv.verify_additivity_mc(cauchy_task, model, count=1, seed=1,
                                    big_dim=50, trials=2)


class TestTruncation:
    def test_bound_value_for_unit_cauchy(self):
        row = cv.truncation_sweep(measures.Cauchy(0.0, 1.0), [[2j]],
                                  cutoffs=(1,))[0]
        assert row.retained_mass == pytest.approx(0.5)
        assert row.bound == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_error_against_direct_quadrature(self):
        law = measures.Cauchy(0.0, 1.0)
        z = 2j

        def integrand(t, part):
            val = (1.0 / math.pi / (1 + t * t)) / (z - t)
            return val.real if part == "re" else val.imag

        re, _ = scipy.integrate.quad(integrand, -1, 1, args=("re",))
        im, _ = scipy.integrate.quad(integrand, -1, 1, args=("im",))
        g_trunc = re + 1j * im + 0.5 / z
        expected = abs(measures.g_scalar(law, z) - g_trunc)
        row = cv.truncation_sweep(law, [[2j]], cutoffs=(1,))[0]
        assert row.error == pytest.approx(expected, abs=1e-9)

    def test_sweep_is_monotone_and_within_bounds(self):
        b = np.array([[2j, 0.3], [0.3, 2.1j]])
        rows = cv.truncation_sweep(measures.Cauchy(0.0, 1.0), b)
        errors = [r.error for r in rows]
        assert all(a >= b_ for a, b_ in zip(errors, errors[1:]))
        assert all(r.within for r in rows)
        masses = [r.retained_mass for r in rows]
        assert all(a <= b_ for a, b_ in zip(masses, masses[1:]))

    def test_compact_support_truncates_to_zero_error(self):
        rows = cv.truncation_sweep(measures.Semicircle(4.0),
                                   np.diag([2j, 3j]), cutoffs=(2, 4, 8))
        assert rows[0].error > 0
        assert rows[1].error == 0.0 and rows[1].retained_mass == 1.0
        assert rows[2].error == 0.0

    def test_mixed_sign_argument_rejected(self):
        with pytest.raises(MarginViolation):
            cv.truncation_error_bound(np.diag([2j, -2j]), 0.5)

    def test_bound_holds_on_random_definite_arguments(self):
        gen = np.random.default_rng(99)
        law = measures.Cauchy(0.3, 0.8)
        for _ in range(8):
            h = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            b = (h + h.conj().T) / 2 + 2.5j * np.eye(2)
            for row in cv.truncation_sweep(law, b, cutoffs=(2, 8)):
                assert row.error <= row.bound


class TestConvergenceCheck:
    probes = [np.array([[2j]]), np.array([[-0.5 + 3j]]), np.array([[1.5 + 1j]])]

    def test_escaping_mass_is_flagged(self):
        seq = [ovdist.ScalarEmbedded(measures.Atomic(((0.0, 0.5), (float(n), 0.5))))
               for n in (4, 16, 64, 256)]
        report = cv.convergence_check(seq, self.probes,
                                      lambda mat: 0.5 * np.linalg.inv(mat))
        errs = report.sup_errors
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert report.final_error < 5e-3
        assert report.limit_mass == pytest.approx(0.5, abs=1e-9)
        assert report.mass_deficit

    def test_genuine_limit_keeps_full_mass(self):
        seq = [ovdist.ScalarEmbedded(
                   measures.bernoulli(radius=1.0 / n, center=0.0))
               for n in (2, 4, 8, 16)]
        limit = ovdist.ScalarEmbedded(measures.point_mass(0.0))
        report = cv.convergence_check(seq, self.probes, limit)
        assert report.sup_errors[-1] < report.sup_errors[0]
        assert report.limit_mass == pytest.approx(1.0, abs=1e-5)
        assert not report.mass_deficit

    def test_empty_inputs_rejected(self):
        dist = ovdist.ScalarEmbedded(measures.Cauchy(0.0, 1.0))
        with pytest.raises(ValueError):
            cv.convergence_check([], self.probes, dist)
        with pytest.raises(ValueError):
            cv.convergence_check([dist], [], dist)
