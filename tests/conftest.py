"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import math
import pathlib
import sys

import numpy as np
import pytest

from ovfree import measures
from ovfree import rng as rngmod


@pytest.fixture
def rng():
    """Deterministic generator for a test; independent of every other test."""
    return rngmod.stream(20260814, 0)


def stream(stream_id: int) -> np.random.Generator:
    return rngmod.stream(20260814, stream_id)


def random_hermitian(gen: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return scale * (z + z.conj().T) / 2.0


def random_half_plane(gen: np.random.Generator, dim: int, margin: float = 0.5,
                      scale: float = 1.0) -> np.ndarray:
    """Random matrix with imaginary part >= margin (strictly upper half-plane)."""
    re = random_hermitian(gen, dim, scale)
    bump = random_hermitian(gen, dim, scale)
    psd = bump @ bump.conj().T / max(1.0, np.linalg.norm(bump, 2))
    return re + 1j * (psd + margin * np.eye(dim))


# ---------------------------------------------------------------------------
# closed-form oracles (independent of the production quadrature path)


def semicircle_g_oracle(z: complex, variance: float = 1.0) -> complex:
    """Cauchy transform of the semicircle law via the explicit square root.

    The product of principal square roots of (z - edge) and (z + edge) picks
    the branch with a cut exactly on the support, which is the unique choice
    decaying like 1/z at infinity.
    """
    edge = 2.0 * np.sqrt(variance)
    w = np.sqrt(z - edge) * np.sqrt(z + edge)
    return (z - w) / (2.0 * variance)


def arcsine_g_oracle(z: complex, radius: float = 2.0) -> complex:
    """Cauchy transform of the arcsine law: the decaying branch of (z^2-r^2)^(-1/2)."""
    return 1.0 / (np.sqrt(z - radius) * np.sqrt(z + radius))


def central_derivative(fn, z: complex, order: int = 1, h: float = 1e-4) -> complex:
    """Richardson-extrapolated central differences; oracle for analytic derivatives."""
    if order == 1:
        d1 = (fn(z + h) - fn(z - h)) / (2 * h)
        d2 = (fn(z + h / 2) - fn(z - h / 2)) / h
        return (4 * d2 - d1) / 3.0
    if order == 2:
        return (fn(z + h) - 2 * fn(z) + fn(z - h)) / h ** 2
    raise ValueError("orders 1 and 2 only")


def haar_free_moment(letters, laws, matrix_dim: int, trials: int, seed: int) -> complex:
    """Matrix-model estimate of a free resolvent word's moment.

    Each variable is an independent ``measures.realization``: a scaled GUE for
    semicircles, a Haar-rotated quantile grid otherwise, so distinct variables
    are asymptotically free.  The word's normalized trace is averaged over
    ``trials`` draws; the free-mode recursion is never consulted.
    """
    used = sorted({idx for _, idx in letters})
    eye = np.eye(matrix_dim)
    acc = 0.0 + 0.0j
    for trial in range(trials):
        gen = rngmod.stream(seed, trial)
        real = {idx: measures.realization(laws[idx], matrix_dim, gen) for idx in used}
        prod = np.eye(matrix_dim, dtype=complex)
        for z, idx in letters:
            prod = prod @ np.linalg.inv(complex(z) * eye - real[idx])
        acc += np.trace(prod) / matrix_dim
    return acc / trials


def inclusion_exclusion_free_moment(letters, laws) -> complex:
    """Free-mode moment of a resolvent word, straight from the definition of freeness.

    Split the word into runs B_1 ... B_n, adjacent runs of different
    variables.  Freeness says phi(B_1° ... B_n°) = 0 with B° = B - phi(B).
    Expanding the product,

        sum over S of prod_{j not in S} (-phi(B_j)) * phi(B_S) = 0,

    where B_S keeps the runs in S, in order, with adjacent runs of one
    variable merged.  The term S = all runs is the word itself; every other
    term is a word with fewer runs.  One-run words go to
    ``moments.single_var_moment``; the free-mode code of ``moments`` is never
    consulted.
    """
    from ovfree import moments

    memo = {}

    def append(runs, var, zs):
        if runs and runs[-1][0] == var:
            return runs[:-1] + ((var, runs[-1][1] + zs),)
        return runs + ((var, zs),)

    def moment(runs) -> complex:
        if not runs:
            return 1.0 + 0.0j
        if len(runs) == 1:
            var, zs = runs[0]
            return moments.single_var_moment(laws[var], zs)
        key = tuple((var, tuple(sorted(zs, key=lambda w: (w.real, w.imag))))
                    for var, zs in runs)
        if key not in memo:
            phis = [moment((run,)) for run in runs]
            others = 0.0 + 0.0j
            for mask in range((1 << len(runs)) - 1):  # every proper subset S
                coeff, kept = 1.0 + 0.0j, ()
                for j, (var, zs) in enumerate(runs):
                    if mask >> j & 1:
                        kept = append(kept, var, zs)
                    else:
                        coeff *= -phis[j]
                others += coeff * moment(kept)
            memo[key] = -others
        return memo[key]

    runs = ()
    for z, var in letters:
        runs = append(runs, var, (complex(z),))
    return moment(runs)


# ---------------------------------------------------------------------------
# golden artifacts

# Numeric tolerance against a committed golden CSV.  The last bits of a float
# depend on the BLAS kernel (OpenBLAS picks one per CPU), so bytes agree only
# within one environment.  Across the OpenBLAS core types the worst measured
# deviation is 4.1 eps in the convolve G entries and 1.0 eps in the truncate
# error column; 16 eps leaves 4x headroom and still catches any real change.
# The absolute part covers columns such as ``discrepancy`` and ``error``,
# which are differences of O(1) values and so carry absolute rounding.
TOL = 16 * sys.float_info.epsilon


def blas_config() -> dict:
    """numpy's BLAS build record (name, version, configuration string)."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy < 1.26 cannot return the record
        return {}
    return deps.get("blas", {})


def _as_number(token: str):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def assert_matches_golden(produced: bytes, golden_path) -> float:
    """Check a CSV artifact against a golden written in another environment.

    Exact: the meta line, the header, CRLF line endings, the row count, the
    fields per row and every non-numeric token.  Each produced number must be
    its own ``%.17g`` rendering and lie within ``TOL`` of the golden, relative
    above 1 and absolute below.  Returns the worst deviation in eps units,
    |p - g| / (eps * max(1, |g|)); raises AssertionError naming the first
    mismatch and the BLAS build.
    """
    golden_path = pathlib.Path(golden_path)
    golden = golden_path.read_bytes()

    def fail(message: str):
        blas = blas_config()
        raise AssertionError(
            f"{golden_path.name}: {message}; BLAS name={blas.get('name')} "
            f"version={blas.get('version')} "
            f"openblas configuration={blas.get('openblas configuration')!r}")

    lines_end_crlf = produced.count(b"\n") == produced.count(b"\r\n")
    if not produced.endswith(b"\r\n") or not lines_end_crlf:
        fail("produced artifact does not end every line with CRLF")
    got = produced.decode("utf-8").split("\r\n")[:-1]
    want = golden.decode("utf-8").split("\r\n")[:-1]
    if got[:1] != want[:1]:
        fail(f"meta line {got[:1]} != {want[:1]}")
    if got[1:2] != want[1:2]:
        fail(f"header {got[1:2]} != {want[1:2]}")
    if len(got) != len(want):
        fail(f"{len(got) - 2} data rows, golden has {len(want) - 2}")
    header = want[1].split(",")
    eps = sys.float_info.epsilon
    worst = 0.0
    for row, (line, golden_line) in enumerate(zip(got[2:], want[2:])):
        fields, golden_fields = line.split(","), golden_line.split(",")
        if len(fields) != len(golden_fields):
            fail(f"row {row}: {len(fields)} fields, golden has {len(golden_fields)}")
        for column, p_tok, g_tok in zip(header, fields, golden_fields):
            where = f"row {row} column {column}: {p_tok!r} vs golden {g_tok!r}"
            g = _as_number(g_tok)
            if g is None:
                if p_tok != g_tok:
                    fail(where)
                continue
            p = _as_number(p_tok)
            if p is None or p_tok != "%.17g" % p:
                fail(f"{where} is not a %.17g float")
            deviation = abs(p - g) / (eps * max(1.0, abs(g)))
            if not math.isclose(p, g, rel_tol=TOL, abs_tol=TOL):
                fail(f"{where} deviates by {deviation:.1f} eps "
                     f"(tolerance {TOL / eps:.0f} eps)")
            worst = max(worst, deviation)
    return worst
