import math

import numpy as np
import pytest
import scipy.integrate

from ovfree import measures as ms
from ovfree.errors import NoConvergence, RealAxisPoint

from conftest import arcsine_g_oracle, central_derivative, semicircle_g_oracle, stream

ALL_LAWS = [
    ms.Cauchy(0.0, 1.0),
    ms.Cauchy(-0.7, 0.3),
    ms.point_mass(0.4),
    ms.bernoulli(1.0, 0.0),
    ms.bernoulli(2.5, -0.5),
    ms.Atomic(((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25))),
    ms.measure_from_json({"variant": "quadrature", "nodes": [-1.0, 0.0, 1.5],
                          "weights": [0.2, 0.3, 0.5]}),
    ms.Semicircle(1.0),
    ms.Semicircle(0.25),
    ms.Arcsine(2.0),
    ms.truncate(ms.Cauchy(0.0, 1.0), 4.0).truncated,
]


def quad_g_oracle(measure, z):
    """Independent Cauchy-transform oracle: scipy quadrature on the raw density."""
    total = sum(w / (z - p) for p, w in measure.atoms())
    for seg in measure.segments():
        def f(th, part):
            val = seg.weight(np.array([th]))[0] / (z - seg.t_of(np.array([th]))[0])
            return val.real if part == 0 else val.imag
        re, _ = scipy.integrate.quad(f, seg.theta_lo, seg.theta_hi, args=(0,), limit=400)
        im, _ = scipy.integrate.quad(f, seg.theta_lo, seg.theta_hi, args=(1,), limit=400)
        total += re + 1j * im
    return total


# ---------------------------------------------------------------------------
# adaptive integrator


def test_adaptive_integral_polynomial_exact():
    val, err = ms.adaptive_integral(lambda x: x ** 6 - 2 * x, -1.0, 3.0)
    exact = (3.0 ** 7 - (-1.0) ** 7) / 7 - (3.0 ** 2 - 1.0)
    assert val == pytest.approx(exact, rel=1e-14)
    assert err < 1e-10


def test_adaptive_integral_raises_when_the_panel_budget_runs_out():
    # the true value is ln(7/3) - i pi; 50 panels cannot resolve the near pole
    with pytest.raises(NoConvergence):
        ms.adaptive_integral(lambda t: 1.0 / (t - 0.3 + 1e-9j), 0.0, 1.0, max_panels=50)


def test_adaptive_integral_matrix_valued():
    a = np.array([[2j, 0.3], [0.3, 3j]])
    val, _ = ms.adaptive_integral(
        lambda th: np.linalg.inv(a[None, :, :] - np.tan(th)[:, None, None] * np.eye(2)) / math.pi,
        -math.pi / 2, math.pi / 2, tol=1e-12)
    # same integral entrywise via scipy
    for i in range(2):
        for j in range(2):
            def f(th, part):
                v = np.linalg.inv(a - math.tan(th) * np.eye(2))[i, j] / math.pi
                return v.real if part == 0 else v.imag
            re, _ = scipy.integrate.quad(f, -math.pi / 2, math.pi / 2, args=(0,), limit=200)
            im, _ = scipy.integrate.quad(f, -math.pi / 2, math.pi / 2, args=(1,), limit=200)
            assert val[i, j] == pytest.approx(re + 1j * im, abs=1e-10)


# ---------------------------------------------------------------------------
# cauchy transforms


def test_g_frozen_values():
    assert ms.g_scalar(ms.Cauchy(), 2j) == pytest.approx(-1j / 3)
    assert ms.g_scalar(ms.point_mass(0.0), 2j) == pytest.approx(-1j / 2)
    assert ms.g_scalar(ms.bernoulli(1.0, 0.0), 2j) == pytest.approx(2j / (-4 - 1 + 0j) * 1)
    # quadrature variants against the closed-form oracles
    assert ms.g_scalar(ms.Semicircle(1.0), 2j) == pytest.approx(1j * (1 - math.sqrt(2)), abs=1e-11)
    assert ms.g_scalar(ms.Arcsine(2.0), 2j) == pytest.approx(-1j / (2 * math.sqrt(2)), abs=1e-11)


@pytest.mark.parametrize("law", ALL_LAWS,
                         ids=[f"{type(law).__name__}{i}" for i, law in enumerate(ALL_LAWS)])
def test_expect_takes_matrix_valued_functions(law):
    # the diagonal resolvent integrates entrywise to the scalar transforms
    z1, z2 = 0.3 + 1.1j, -0.8 - 0.6j
    b = np.diag([z1, z2])
    value = ms.expect(law, lambda t: np.linalg.inv(b[None] - t[:, None, None] * np.eye(2)[None]))
    assert value.shape == (2, 2)
    assert value[0, 0] == pytest.approx(ms.g_scalar(law, z1), abs=1e-12)
    assert value[1, 1] == pytest.approx(ms.g_scalar(law, z2), abs=1e-12)
    assert abs(value[0, 1]) == abs(value[1, 0]) == 0.0


def test_g_real_axis_rejected():
    with pytest.raises(RealAxisPoint):
        ms.g_scalar(ms.Cauchy(), 1.0)
    with pytest.raises(RealAxisPoint):
        1 / ms.g_scalar(ms.Semicircle(), 0.5 + 0j)


def test_g_matches_independent_quadrature():
    gen = stream(10)
    for law in ALL_LAWS:
        for _ in range(3):
            z = complex(gen.uniform(-2, 2), gen.choice([-1, 1]) * gen.uniform(0.3, 2.5))
            assert ms.g_scalar(law, z) == pytest.approx(quad_g_oracle(law, z), abs=5e-10), law


def test_g_closed_forms_vs_production_quadrature():
    # run the tan-substitution segments of the heavy-tailed law through the
    # adaptive integrator and compare with the residue closed form
    law = ms.Cauchy(0.3, 0.8)
    for z in (2j, -1 + 0.7j, 4 - 3j):
        seg = law.segments()[0]
        val, _ = ms.adaptive_integral(lambda th: seg.weight(th) / (z - seg.t_of(th)),
                                      seg.theta_lo, seg.theta_hi, tol=1e-13)
        assert complex(val) == pytest.approx(law.closed_form_g_derivative(z, 0), abs=1e-11)


def test_g_nevanlinna_properties():
    gen = stream(11)
    for law in ALL_LAWS:
        for _ in range(25):
            z = complex(gen.uniform(-3, 3), gen.uniform(0.2, 3.0))
            g = ms.g_scalar(law, z)
            assert g.imag < 0.0  # upper half-plane maps to lower
            assert abs(g) <= 1.0 / z.imag + 1e-9
            f = 1 / ms.g_scalar(law, z)
            assert f.imag >= z.imag - 1e-9  # F expands the imaginary part
            # conjugate symmetry
            assert ms.g_scalar(law, z.conjugate()) == pytest.approx(g.conjugate(), abs=1e-9)


def test_f_bernoulli_closed_form():
    law = ms.bernoulli(1.5, 0.0)
    for z in (2j, 1 + 1j, -0.3 + 0.9j):
        assert 1 / ms.g_scalar(law, z) == pytest.approx((z * z - 1.5 ** 2) / z)


def test_g_derivative_frozen_and_oracle():
    assert ms.g_derivative(ms.Cauchy(), 2j, 1) == pytest.approx(1.0 / 9.0)
    gen = stream(12)
    for law in ALL_LAWS:
        z = complex(gen.uniform(-1, 1), gen.uniform(0.8, 2.0))
        for order in (1, 2):
            num = central_derivative(lambda u: ms.g_scalar(law, u), z, order,
                                     h=1e-4 if order == 1 else 1e-3)
            assert ms.g_derivative(law, z, order) == pytest.approx(num, rel=2e-6, abs=1e-8)
    assert ms.g_derivative(ms.Cauchy(), 2j, 0) == ms.g_scalar(ms.Cauchy(), 2j)


# ---------------------------------------------------------------------------
# truncation


def test_truncate_cauchy_frozen():
    res = ms.truncate(ms.Cauchy(0.0, 1.0), 1.0)
    assert res.retained_mass == pytest.approx(0.5)
    assert res.cutoff == 1.0
    assert isinstance(res.truncated, ms.TruncatedMeasure)
    assert res.truncated.atom_at(0.0) == pytest.approx(0.5)
    # total mass stays one
    assert res.truncated.interval_mass(-1.0, 1.0) == pytest.approx(1.0)


def test_truncate_inside_support_is_identity():
    law = ms.bernoulli(1.0, 0.0)
    res = ms.truncate(law, 2.0)
    assert res.truncated is law
    assert res.retained_mass == 1.0
    sc = ms.Semicircle(1.0)
    assert ms.truncate(sc, 3.0).truncated is sc


def test_truncate_discrete_stays_atomic():
    res = ms.truncate(ms.bernoulli(3.0, 0.0), 1.0)
    assert isinstance(res.truncated, ms.Atomic)
    assert res.truncated.atoms() == ((0.0, 1.0),)
    assert res.retained_mass == 0.0
    mixed = ms.truncate(ms.Atomic(((-5.0, 0.25), (0.5, 0.75))), 1.0)
    assert mixed.truncated.atoms() == ((0.0, 0.25), (0.5, 0.75))


def test_truncate_idempotent():
    law = ms.Cauchy(0.0, 1.0)
    first = ms.truncate(law, 2.0)
    second = ms.truncate(first.truncated, 2.0)
    assert second.truncated is first.truncated
    assert second.retained_mass == 1.0
    # re-truncating with a smaller window collapses onto the base law
    third = ms.truncate(first.truncated, 1.0)
    direct = ms.truncate(law, 1.0)
    assert third.truncated == direct.truncated


def test_truncated_g_matches_direct_quadrature():
    law = ms.Cauchy(0.0, 1.0)
    k = 2.0
    trunc = ms.truncate(law, k).truncated
    defect = 1.0 - law.interval_mass(-k, k)
    for z in (2j, -1 + 1j, 0.5 - 2j):
        def f(t, part):
            v = (1.0 / (z - t)) * (1.0 / math.pi) / (1 + t * t)
            return v.real if part == 0 else v.imag
        re, _ = scipy.integrate.quad(f, -k, k, args=(0,), limit=200)
        im, _ = scipy.integrate.quad(f, -k, k, args=(1,), limit=200)
        expected = re + 1j * im + defect / z
        assert ms.g_scalar(trunc, z) == pytest.approx(expected, abs=1e-10)


def test_truncated_semicircle_mass():
    sc = ms.Semicircle(1.0)
    res = ms.truncate(sc, 1.0)
    dens, _ = scipy.integrate.quad(lambda t: math.sqrt(4 - t * t) / (2 * math.pi), -1, 1)
    assert res.retained_mass == pytest.approx(dens, abs=1e-12)
    assert res.truncated.interval_mass(-1, 1) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# quantiles


def test_quantile_nodes_frozen():
    np.testing.assert_allclose(ms.quantile_nodes(ms.Cauchy(), 2), [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(ms.quantile_nodes(ms.bernoulli(1.0, 0.0), 4),
                               [-1.0, -1.0, 1.0, 1.0])
    np.testing.assert_allclose(ms.quantile_nodes(ms.point_mass(0.7), 3), [0.7] * 3)


def test_quantile_ties_toward_smaller_atom():
    law = ms.Atomic(((-2.0, 0.5), (1.0, 0.5)))
    # p = 0.5 is exactly the boundary: pick the smaller position
    assert law.quantile(0.5) == -2.0
    assert law.quantile(0.500001) == 1.0


def test_quantile_inverts_cdf():
    gen = stream(13)
    for law in (ms.Semicircle(1.0), ms.Arcsine(2.0), ms.Cauchy(0.5, 2.0),
                ms.truncate(ms.Cauchy(0.0, 1.0), 3.0).truncated):
        for _ in range(20):
            p = float(gen.uniform(0.02, 0.98))
            q = law.quantile(p)
            assert law.cdf(q) >= p - 1e-9
            if not law.atoms():
                assert law.cdf(q) == pytest.approx(p, abs=1e-9)


def test_quantile_nodes_reproduce_grid_law():
    law = ms.measure_from_json({"variant": "quadrature", "nodes": [-1.0, 0.2, 3.0],
                                "weights": [1 / 3, 1 / 3, 1 / 3]})
    np.testing.assert_allclose(ms.quantile_nodes(law, 3), [-1.0, 0.2, 3.0])


def test_semicircle_quantile_against_brentq():
    import scipy.optimize
    sc = ms.Semicircle(1.0)
    for p in (0.1, 0.35, 0.5, 0.8):
        ref = scipy.optimize.brentq(lambda x: sc.cdf(x) - p, -2.0, 2.0, xtol=1e-13)
        assert sc.quantile(p) == pytest.approx(ref, abs=1e-10)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("obj, law", [
    ({"variant": "cauchy", "location": -0.7, "scale": 0.3}, ms.Cauchy(-0.7, 0.3)),
    ({"variant": "pointmass", "position": 0.4}, ms.point_mass(0.4)),
    ({"variant": "bernoulli", "radius": 2.5, "center": -0.5}, ms.bernoulli(2.5, -0.5)),
    ({"variant": "bernoulli", "radius": 1.0}, ms.Atomic(((-1.0, 0.5), (1.0, 0.5)))),
    ({"variant": "arcsine", "radius": 2.0}, ms.Arcsine(2.0)),
    ({"variant": "semicircle", "variance": 0.25}, ms.Semicircle(0.25)),
    ({"variant": "atomic", "atoms": [[2.0, 0.25], [-1.0, 0.25], [0.0, 0.5]]},
     ms.Atomic(((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))),
    ({"variant": "quadrature", "nodes": [-1.0, 0.0, 1.5], "weights": [0.2, 0.3, 0.5]},
     ms.Atomic(((-1.0, 0.2), (0.0, 0.3), (1.5, 0.5)))),
    ({"variant": "truncated", "cutoff": 4.0,
      "base": {"variant": "cauchy", "location": 0.0, "scale": 1.0}},
     ms.truncate(ms.Cauchy(0.0, 1.0), 4.0).truncated),
], ids=["cauchy", "pointmass", "bernoulli", "bernoulli-default-center", "arcsine", "semicircle",
        "atomic", "quadrature", "truncated"])
def test_measure_from_json(obj, law):
    assert ms.measure_from_json(obj) == law


def test_atomic_validation():
    with pytest.raises(ValueError):
        ms.Atomic(((0.0, 0.4), (1.0, 0.4)))  # mass 0.8
    with pytest.raises(ValueError):
        ms.measure_from_json({"variant": "quadrature", "nodes": [1.0, 0.0],
                              "weights": [0.5, 0.5]})  # unsorted
    with pytest.raises(ValueError):
        ms.Cauchy(0.0, -1.0)
