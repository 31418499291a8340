"""Critical-point compositions: stages, jets, and invertibility witnesses."""

import numpy as np
import pytest

from conftest import central_derivative
from ovfree import killer, measures
from ovfree.errors import RealAxisPoint, UnsupportedPoint

GRID = [2j, 0.5 + 1j, -1.3 + 0.4j, 2.0 - 0.7j, -0.2 - 2.2j]


class TestBernoulliStage:
    def test_matches_the_two_atom_reciprocal_transform(self):
        stage = killer.BernoulliStage(shift=0.4, radius=1.3)
        law = measures.bernoulli(radius=1.3, center=0.4)
        for z in GRID:
            assert stage.value(z) == pytest.approx(
                1 / measures.g_scalar(law, z), abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        stage = killer.BernoulliStage(shift=-0.2, radius=0.8)
        for z in GRID:
            fd1 = central_derivative(stage.value, z)
            fd2 = central_derivative(stage.value, z, order=2)
            assert stage.derivative(z) == pytest.approx(fd1, rel=1e-7)
            assert stage.second(z) == pytest.approx(fd2, rel=1e-4)

    def test_maps_each_half_plane_into_itself(self):
        gen = np.random.default_rng(5)
        stage = killer.BernoulliStage(shift=1.1, radius=2.0)
        for _ in range(50):
            z = complex(gen.normal(), gen.normal())
            if z.imag == 0.0:
                continue
            w = stage.value(z)
            assert np.sign(w.imag) == np.sign(z.imag)
            assert abs(w.imag) >= abs(z.imag)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            killer.BernoulliStage(shift=0.0, radius=0.0)


class TestBuildKiller:
    targets = [2j, 1.0 + 1.5j, -0.8 + 0.9j]

    def test_one_stage_per_distinct_target(self):
        stages = killer.build_killer(self.targets)
        assert len(stages) == 3
        noisy = self.targets + [2j + 1e-11, 1.0 + 1.5j - 1e-12j]
        assert len(killer.build_killer(noisy)) == 3

    def test_derivative_vanishes_at_every_target(self):
        stages = killer.build_killer(self.targets)
        for t in self.targets:
            assert abs(killer.killer_derivative(stages, t)) <= 1e-10

    def test_composition_of_genuine_transforms(self):
        # folding the reciprocal transforms of the underlying two-atom laws
        # reproduces the composition exactly
        stages = killer.build_killer(self.targets)
        for z in (3j, 0.7 + 2j, -1.5 + 0.6j):
            v = z
            for st in stages:
                v = 1 / measures.g_scalar(
                    measures.bernoulli(radius=st.radius, center=st.shift), v)
            assert killer.eval_killer(stages, z) == pytest.approx(v, abs=1e-12)

    def test_half_plane_preserved(self):
        stages = killer.build_killer(self.targets)
        gen = np.random.default_rng(11)
        for _ in range(40):
            z = complex(gen.normal(), abs(gen.normal()) + 1e-3)
            w = killer.eval_killer(stages, z)
            assert w.imag > 0

    def test_invalid_targets_rejected(self):
        with pytest.raises(UnsupportedPoint):
            killer.build_killer([2j, 1.0 - 1j])
        with pytest.raises(UnsupportedPoint):
            killer.build_killer([1.0 + 0j])
        with pytest.raises(UnsupportedPoint):
            killer.build_killer([])


class TestJet:
    stages = killer.build_killer([1.5j, -0.5 + 2j])

    def test_jet_matches_finite_differences(self):
        fn = lambda z: killer.eval_killer(self.stages, z)
        for z in (2.5j, 1.0 + 1.8j, -2.0 + 3j):
            value, d1, d2 = killer.killer_jet(self.stages, z)
            assert value == pytest.approx(fn(z))
            assert d1 == pytest.approx(central_derivative(fn, z), rel=1e-6)
            assert d2 == pytest.approx(central_derivative(fn, z, order=2),
                                       rel=1e-4)

    def test_first_derivative_is_the_orbit_product(self):
        z = 0.3 + 2.2j
        v, product = z, 1.0 + 0j
        for st in self.stages:
            product *= st.derivative(v)
            v = st.value(v)
        assert killer.killer_derivative(self.stages, z) == pytest.approx(product)

    def test_real_axis_rejected(self):
        with pytest.raises(RealAxisPoint):
            killer.killer_jet(self.stages, 1.0)
        with pytest.raises(RealAxisPoint):
            killer.eval_killer(self.stages, 0.0)


class TestWitness:
    targets = [2j, 1.2 + 1.1j, -0.7 + 1.6j]

    def test_witness_found_at_every_target(self):
        stages = killer.build_killer(self.targets)
        for t in self.targets:
            w = killer.non_invertibility_witness(stages, t)
            assert w is not None
            assert w.point_a != w.point_b
            assert w.separation == pytest.approx(2e-3)
            assert w.image_gap <= 1e-2 * 1e-3
            assert w.point_a.imag > 0 and w.point_b.imag > 0

    def test_regular_point_yields_no_witness(self):
        stages = killer.build_killer(self.targets)
        assert killer.non_invertibility_witness(stages, 4j) is None
        assert killer.non_invertibility_witness(stages, 2.5 + 2j) is None

    def test_witness_images_sit_at_the_critical_value(self):
        stages = killer.build_killer(self.targets)
        t = self.targets[0]
        value, _, d2 = killer.killer_jet(stages, t)
        w = killer.non_invertibility_witness(stages, t)
        for p in (w.point_a, w.point_b):
            gap = abs(killer.eval_killer(stages, p) - value)
            assert gap <= abs(d2) * (w.separation / 2) ** 2

    def test_quadratic_contact_constant(self):
        # near a critical point |f(z0 + eps) - f(z0)| ~ |f''|/2 * |eps|^2
        stages = killer.build_killer(self.targets)
        t = self.targets[1]
        value, _, d2 = killer.killer_jet(stages, t)
        eps = 1e-4
        for theta in (0.0, 0.9, 2.1):
            step = eps * np.exp(1j * theta)
            growth = abs(killer.eval_killer(stages, t + step) - value)
            assert growth == pytest.approx(abs(d2) / 2 * eps ** 2, rel=0.2)
