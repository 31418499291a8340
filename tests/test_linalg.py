import numpy as np
import pytest

from ovfree import linalg as la
from ovfree.errors import DimensionMismatch, SingularMatrix

from conftest import random_half_plane, random_hermitian, stream


def test_as_matrix_validation():
    with pytest.raises(DimensionMismatch):
        la.as_matrix(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        la.as_matrix(np.ones((65, 65)))
    with pytest.raises(ValueError):
        la.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    assert la.as_matrix(3.0 + 1j).shape == (1, 1)


def test_inverse_well_conditioned():
    gen = stream(1)
    for dim in (1, 2, 5, 16, 64):
        x = random_hermitian(gen, dim) + 1j * np.eye(dim)
        inv = la.inverse(x)
        resid = np.linalg.norm(x @ inv - np.eye(dim), 2)
        assert resid <= la.RESIDUAL_TOL * np.linalg.norm(x, 2) * np.linalg.norm(inv, 2)


def test_inverse_singular_rejected():
    with pytest.raises(SingularMatrix):
        la.inverse(np.zeros((2, 2)))
    with pytest.raises(SingularMatrix):
        la.inverse(np.diag([1.0, 1e-15]))  # condition 1e15 beyond the cap


def test_imag_part_frozen():
    x = np.array([[1j, 1.0], [0.0, 1j]])
    expected = np.array([[1.0, -0.5j], [0.5j, 1.0]])
    np.testing.assert_allclose(la.imag_part(x), expected, atol=0)
    # always Hermitian
    gen = stream(2)
    y = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    im = la.imag_part(y)
    np.testing.assert_allclose(im, im.conj().T, atol=1e-15)


def test_half_plane_margin_values():
    # purely diagonal imaginary part
    assert la.half_plane_margin(np.array([[2j, 1.0], [1.0, 2j]])) == pytest.approx(2.0)
    # coupling through the skew part shifts the eigenvalues to {1, 3}
    assert la.half_plane_margin(np.array([[2j, 1j], [1j, 2j]])) == pytest.approx(1.0)
    assert la.half_plane_margin(np.array([[1.0]])) == pytest.approx(0.0, abs=1e-15)


def test_operator_norm():
    assert la.operator_norm(np.diag([3.0, -4j])) == pytest.approx(4.0)
    gen = stream(3)
    x = gen.standard_normal((6, 6))
    assert la.operator_norm(x) == pytest.approx(np.linalg.svd(x, compute_uv=False)[0])


def test_inverse_maps_upper_to_lower_half_plane():
    gen = stream(4)
    for _ in range(200):
        dim = int(gen.integers(1, 7))
        b = random_half_plane(gen, dim, margin=0.2, scale=2.0)
        eps = la.half_plane_margin(b)
        assert eps > 0
        inv = la.inverse(b)
        # inverse lands strictly in the lower half-plane, norm capped by 1/margin
        assert la.half_plane_margin(-inv) > 0
        assert la.operator_norm(inv) <= 1.0 / eps + 1e-9


def test_partial_trace_kron_identities():
    gen = stream(5)
    b = random_hermitian(gen, 3)
    np.testing.assert_allclose(la.partial_trace(np.kron(b, np.eye(5)), 3, 5), b, atol=1e-14)
    m = random_hermitian(gen, 4)
    out = la.partial_trace(np.kron(np.eye(2), m), 2, 4)
    np.testing.assert_allclose(out, np.trace(m) / 4 * np.eye(2), atol=1e-14)
    with pytest.raises(DimensionMismatch):
        la.partial_trace(np.eye(6), 4, 2)


def test_partial_trace_positivity_and_linearity():
    gen = stream(6)
    for _ in range(50):
        z = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
        psd = z @ z.conj().T
        out = la.partial_trace(psd, 2, 4)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12
    x = gen.standard_normal((6, 6))
    y = gen.standard_normal((6, 6))
    np.testing.assert_allclose(
        la.partial_trace(2.0 * x + y, 3, 2),
        2.0 * la.partial_trace(x, 3, 2) + la.partial_trace(y, 3, 2), atol=1e-13)


def test_direct_sum():
    out = la.direct_sum(np.array([[1j]]), np.eye(2))
    assert out.shape == (3, 3)
    assert out[0, 0] == 1j and out[1, 1] == 1.0 and out[0, 1] == 0.0


def test_json_round_trip():
    gen = stream(7)
    x = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    back = la.matrix_from_json(la.matrix_to_json(x))
    np.testing.assert_array_equal(back, x)  # bit-exact through float lists
    with pytest.raises(DimensionMismatch):
        la.matrix_from_json({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
