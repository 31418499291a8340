"""End-to-end acceptance battery.

Each test prints one summary line (visible with ``pytest -s`` or in the
captured output of a failure) and asserts the property it names.  The
eleven checks together exercise every public layer of the package:
scalar moment agreements, the matrix Neumann corollary, R-transform
additivity, certified chart inversion, truncation control, resolvent
and membership envelopes, the block identity, the non-invertible
F-transform construction, the escaping-mass negative control, and CLI
determinism.
"""

import json
import pathlib

import numpy as np
import pytest

from conftest import TOL, assert_matches_golden
from ovfree import (cli, convolution as cv, killer, linalg, measures,
                    moments, ovdist, rng as rngmod, transforms)

DATA = pathlib.Path(__file__).parent / "data"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _unit_direction(gen, dim: int) -> np.ndarray:
    y = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return y / np.linalg.norm(y)


def _random_hermitian(gen, dim: int) -> np.ndarray:
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def test_criterion_01_four_mode_agreement():
    gen = rngmod.stream(20260814, 1)
    worst = 0.0
    for _ in range(200):
        length = int(gen.integers(1, 7))
        n_vars = int(gen.integers(1, 4))
        zs = (gen.uniform(-2.0, 2.0, length)
              + 1j * gen.uniform(0.3, 3.0, length))
        idx = gen.integers(0, n_vars, length)
        report = moments.fbcs_check(zs, idx)
        worst = max(worst, report.max_deviation)
    ok = worst <= 1e-9
    _report(1, "four-mode agreement on 200 words", ok, f"max dev {worst:.3e}")
    assert ok


def test_criterion_02_matrix_neumann_corollary():
    gen = rngmod.stream(20260814, 2)
    laws = (measures.Cauchy(0.0, 1.0), measures.Cauchy(0.0, 1.0))
    worst_ratio = 0.0
    worst_tail = 0.0
    for trial in range(50):
        m = 4
        diag = gen.uniform(-0.4, 0.4, m) + 1j * (1.0 + gen.uniform(0.0, 0.6, m))
        off = 0.1 * (gen.standard_normal((m, m))
                     + 1j * gen.standard_normal((m, m)))
        np.fill_diagonal(off, 0.0)
        # rescale the off-diagonal part onto a dominance ratio in [0.42, 0.5]
        q0 = np.linalg.norm(np.abs(off) / np.abs(diag.imag)[None, :], 2)
        target_q = gen.uniform(0.42, 0.5)
        b = np.diag(diag) + off * (target_q / q0)
        reference = np.linalg.inv(b + 1j * np.eye(m))
        mode = "free" if trial % 2 == 0 else "boolean"
        result = moments.matrix_G_via_neumann(b, laws, mode, p_max=28,
                                              path_budget=200)
        assert result.dominance <= 0.5 + 1e-12
        assert result.enumerated_orders >= 3
        dev = linalg.operator_norm(result.estimate - reference)
        worst_tail = max(worst_tail, result.tail_bound)
        worst_ratio = max(worst_ratio, dev / result.tail_bound)
    ok = worst_tail <= 1e-8 and worst_ratio <= 1.0
    _report(2, "Neumann matrix transform vs (B+iI)^-1", ok,
            f"max tail {worst_tail:.3e}, max dev/tail {worst_ratio:.3f}")
    assert ok


def test_criterion_03_r_transform_additivity():
    gen = np.random.default_rng(20260814)

    def herm(scale):
        a = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        a = (a + a.conj().T) / 2
        return scale * a / np.linalg.norm(a, 2)

    b1 = herm(0.02)
    b2 = b1 + herm(0.008)
    c1 = np.array([[0.020, 0.005], [0.005, 0.015]])
    c2 = np.array([[0.018, -0.004], [-0.004, 0.022]])
    pairs = [
        (ovdist.ScalarEmbedded(measures.Semicircle(0.0004)),
         ovdist.ScalarEmbedded(measures.Semicircle(0.0009)),
         ovdist.ScalarEmbedded(measures.Semicircle(0.0013)), 0.4),
        (ovdist.ScalarEmbedded(measures.bernoulli(0.01, 0.0)),
         ovdist.ScalarEmbedded(measures.bernoulli(0.01, 0.0)),
         ovdist.ScalarEmbedded(measures.Arcsine(0.02)), 0.4),
        (ovdist.DiracB(b1), ovdist.DiracB(b2), ovdist.DiracB(b1 + b2), 0.8),
        (ovdist.OVSemicircular((c1,)), ovdist.OVSemicircular((c2,)),
         ovdist.OVSemicircular((c1, c2)), 0.4),
    ]
    worst = 0.0
    points = 0
    for j, (x, y, total, lam) in enumerate(pairs):
        task = cv.ConvolutionTask.certify(x, y, lam, 1)
        report = cv.verify_additivity(task, total, count=6, seed=j)
        worst = max(worst, report.worst)
        points += len(report.deviations)

    semi_task = cv.ConvolutionTask.certify(
        ovdist.OVSemicircular(([[0.02]],)), ovdist.OVSemicircular(([[0.03]],)),
        0.4, 1)
    mc_ov = cv.verify_additivity_mc(
        semi_task, ovdist.OVSemicircular(([[0.02]], [[0.03]])),
        count=2, seed=1, big_dim=200, trials=8)
    scalar_task = cv.ConvolutionTask.certify(
        ovdist.ScalarEmbedded(measures.Semicircle(0.0004)),
        ovdist.ScalarEmbedded(measures.Semicircle(0.0009)), 0.4, 1)
    mc_scalar = cv.verify_additivity_mc(
        scalar_task,
        ovdist.FreeSum(ovdist.ScalarEmbedded(measures.Semicircle(0.0004)),
                       ovdist.ScalarEmbedded(measures.Semicircle(0.0009))),
        count=2, seed=2, big_dim=200, trials=8)

    ok = (points >= 20 and worst <= 1e-8
          and mc_ov.passed and mc_scalar.passed)
    _report(3, "R-transform additivity", ok,
            f"{points} exact points, worst {worst:.3e}, MC within "
            f"{mc_ov.sigma:.0f} sigma")
    assert points >= 20
    assert worst <= 1e-8
    assert mc_ov.passed
    assert mc_scalar.passed


def test_criterion_04_certified_inversion_radii():
    gen = rngmod.stream(20260814, 4)
    dists = [
        ovdist.ScalarEmbedded(measures.Cauchy(0.0, 0.01)),
        ovdist.ScalarEmbedded(measures.Semicircle(1e-4)),
        ovdist.DiracB([[0.005]]),
    ]
    lams = (0.1, 0.2, 0.4, 0.8)
    worst_round_trip = 0.0
    worst_band = 1.0
    for dist in dists:
        domain_ratios, image_ratios = [], []
        for lam in lams:
            ball = transforms.bloch_certify(dist, lam, 1, seed=5)
            domain_ratios.append(ball.domain_radius / lam)
            image_ratios.append(ball.image_radius / lam)
            dim = ball.center.shape[0]
            for _ in range(100):
                radius = 0.95 * ball.image_radius * gen.random()
                target = ball.image_center + radius * _unit_direction(gen, dim)
                b = transforms.invert_G(dist, ball, target)
                round_trip = float(np.linalg.norm(dist.eval_G(b) - target))
                worst_round_trip = max(worst_round_trip, round_trip)
        for ratios in (domain_ratios, image_ratios):
            worst_band = max(worst_band, max(ratios) / min(ratios))
    ok = worst_round_trip <= 1e-9 and worst_band <= 2.0
    _report(4, "certified inversion on 1200 targets", ok,
            f"worst round trip {worst_round_trip:.3e}, "
            f"radius/lam band {worst_band:.3f}")
    assert worst_round_trip <= 1e-9
    assert worst_band <= 2.0


def test_criterion_05_truncation_bound_grid():
    b = np.array([[0.1 + 2.0j, 0.3], [0.3, -0.2 + 2.4j]])
    laws = (measures.Cauchy(0.0, 1.0), measures.Semicircle(4.0),
            measures.bernoulli(0.8, 0.1))
    all_within = True
    worst_slack = 0.0
    for law in laws:
        rows = cv.truncation_sweep(law, b, cutoffs=(1, 2, 4, 8, 16, 32))
        all_within = all_within and all(row.within for row in rows)
        errors = [row.error for row in rows]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-12
        worst_slack = max(worst_slack,
                          max(row.error - row.bound for row in rows))
    _report(5, "truncation bound on 3 laws x 6 cutoffs", all_within,
            f"max error-bound {worst_slack:.3e}")
    assert all_within


def test_criterion_06_resolvent_norm_bounds():
    gen = rngmod.stream(20260814, 6)
    violations = 0
    for _ in range(10_000):
        dim = int(gen.integers(2, 5))
        scale = 10.0 ** gen.uniform(0.0, 6.0)
        a = scale * _random_hermitian(gen, dim)
        w = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        eps = 10.0 ** gen.uniform(-3.0, 0.0)
        b = w @ w.conj().T + eps * np.eye(dim)
        margin = float(np.linalg.eigvalsh(b)[0])
        inv = np.linalg.inv(a + 1j * b)
        if linalg.operator_norm(inv) > (1.0 + 1e-9) / margin:
            violations += 1
        bound = 1.0 + linalg.operator_norm(b) / margin
        if linalg.operator_norm(a @ inv) > (1.0 + 1e-9) * bound:
            violations += 1
    ok = violations == 0
    _report(6, "resolvent bounds on 10^4 samples", ok,
            f"{violations} violations")
    assert ok


def test_criterion_07_membership_envelope():
    gen = rngmod.stream(20260814, 7)
    failures = 0
    for _ in range(1000):
        n_pairs = int(gen.integers(1, 3))
        base_dim = int(gen.integers(1, 3))
        dim = 2 * n_pairs * base_dim
        b = np.zeros((dim, dim), dtype=complex)
        for j in range(2 * n_pairs):
            sl = slice(j * base_dim, (j + 1) * base_dim)
            w = gen.standard_normal((base_dim, base_dim)) \
                + 1j * gen.standard_normal((base_dim, base_dim))
            definite = w @ w.conj().T + gen.uniform(0.2, 1.0) * np.eye(base_dim)
            sign = 1.0 if j % 2 == 0 else -1.0
            b[sl, sl] = _random_hermitian(gen, base_dim) + 1j * sign * definite
        margins = [linalg.half_plane_margin((-1.0) ** j
                                            * b[j * base_dim:(j + 1) * base_dim,
                                                j * base_dim:(j + 1) * base_dim])
                   for j in range(2 * n_pairs)]
        noise = _random_hermitian(gen, dim)
        noise -= np.diag(np.diagonal(noise))
        off_scale = 0.3 * gen.random() * min(margins)
        if linalg.operator_norm(noise) > 0:
            b += noise * off_scale / linalg.operator_norm(noise)
        point = transforms.omega_membership(b, n_pairs, base_dim)

        t = _random_hermitian(gen, dim)
        t *= gen.uniform(0.05, 0.9) * point.margin / linalg.operator_norm(t)
        t_norm = linalg.operator_norm(t)
        envelope = point.resolvent_envelope(t_norm)
        actual = linalg.operator_norm(np.linalg.inv(b - t))
        if actual > envelope * (1.0 + 1e-9):
            failures += 1
    ok = failures == 0
    _report(7, "membership envelope on 1000 points", ok,
            f"{failures} envelope violations")
    assert ok


def test_criterion_08_block_identity():
    gen = rngmod.stream(20260814, 8)
    laws = (measures.Cauchy(0.2, 0.8), measures.Semicircle(1.0),
            measures.bernoulli(0.7, -0.1), measures.Arcsine(1.5),
            measures.Atomic(((-0.5, 0.3), (0.2, 0.45), (1.1, 0.25))))
    worst = 0.0
    for trial in range(50):
        dim = 2 * int(gen.integers(1, 3))
        w = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        positive = w @ w.conj().T / dim + np.eye(dim)
        b = _random_hermitian(gen, dim) + 1j * gen.uniform(1.3, 1.9) * positive
        assert linalg.operator_norm(np.linalg.inv(b)) <= 0.8
        report = transforms.block_resolvent_identity_check(
            laws[trial % len(laws)], b)
        worst = max(worst, report.deviation)
    ok = worst <= 1e-9
    _report(8, "block resolvent identity on 50 draws", ok,
            f"worst deviation {worst:.3e}")
    assert ok


def test_criterion_09_derivative_killing_transforms():
    gen = rngmod.stream(20260814, 9)
    worst_derivative = 0.0
    halfplane_checked = 0
    for _ in range(20):
        count = int(gen.integers(1, 6))
        targets = []
        while len(targets) < count:
            z = complex(gen.uniform(-2.0, 2.0), gen.uniform(0.25, 2.2))
            if all(abs(z - t) > 0.2 for t in targets):
                targets.append(z)
        stages = killer.build_killer(targets)
        assert len(stages) == count
        for z in targets:
            worst_derivative = max(worst_derivative,
                                   abs(killer.killer_derivative(stages, z)))
            witness = killer.non_invertibility_witness(stages, z)
            assert witness is not None
            assert witness.point_a.imag > 0 and witness.point_b.imag > 0
            assert witness.image_gap <= 1e-5
        for _ in range(500):
            z = complex(gen.uniform(-30.0, 30.0),
                        10.0 ** gen.uniform(-3.0, 3.0))
            value = killer.eval_killer(stages, z)
            assert value.imag > z.imag
            halfplane_checked += 1
    ok = worst_derivative <= 1e-8 and halfplane_checked == 10_000
    _report(9, "derivative-killing transforms on 20 target sets", ok,
            f"max |F'| {worst_derivative:.3e}, "
            f"{halfplane_checked} half-plane samples")
    assert ok


def test_criterion_10_escaping_mass_is_flagged():
    dists = [ovdist.ScalarEmbedded(
        measures.Atomic(((0.0, 0.5), (float(n), 0.5))))
        for n in (4, 16, 64, 256)]
    probes = [np.array([[2.0j]]), np.array([[0.5 + 1.5j]])]
    report = cv.convergence_check(dists, probes,
                                  lambda b: 0.5 * np.linalg.inv(b))
    errors = report.sup_errors
    ok = (report.mass_deficit
          and abs(report.limit_mass - 0.5) <= 1e-6
          and all(a > b for a, b in zip(errors, errors[1:]))
          and report.final_error <= 5e-3)
    _report(10, "escaping-mass negative control", ok,
            f"limit mass {report.limit_mass:.4f}, deficit flagged "
            f"{report.mass_deficit}")
    assert report.mass_deficit
    assert abs(report.limit_mass - 0.5) <= 1e-6
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert report.final_error <= 5e-3


def test_criterion_11_cli_determinism(tmp_path, monkeypatch):
    # Bytes are promised within one environment; across environments the
    # goldens hold to TOL, since the last bits follow the BLAS kernel.
    identical = True
    worst = 0.0
    for name in ("fbcs", "convolve"):
        outputs = []
        for run in range(2):
            workdir = tmp_path / f"{name}_{run}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert cli.main(["run", str(DATA / f"config_{name}.json")]) == 0
            outputs.append((workdir / "out.csv").read_bytes())
        identical = identical and outputs[0] == outputs[1]
        worst = max(worst, assert_matches_golden(
            outputs[0], DATA / f"golden_{name}.csv"))
    rerun = "byte-identical" if identical else "NOT byte-identical"
    _report(11, "CLI artifact determinism", identical,
            f"re-runs {rerun}; goldens within {TOL / np.finfo(float).eps:.0f} eps "
            f"(worst {worst:.1f} eps)")
    assert identical
