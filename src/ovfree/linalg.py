"""Dense complex matrix kernel: validated inverses, half-plane margins, partial traces.

All functions are pure: they never mutate their arguments and always return
fresh arrays.  Matrices are plain ``numpy.ndarray`` values of dtype complex128;
:func:`as_matrix` is the single entry point that enforces the invariants
(square, finite, size within the supported envelope).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# Largest matrix edge the kernel is tuned (and tested) for.
MAX_DIM = 64

# Refuse inverses past this condition number: results would carry no
# trustworthy digits for the tolerances used downstream.
CONDITION_CAP = 1e14

# Post-condition on every inverse: ||x @ inv - I||_F <= RESIDUAL_TOL * cond_2(x),
# with cond_2(x) = ||x||_2 ||x^{-1}||_2 read off the singular values.
RESIDUAL_TOL = 1e-10


def as_matrix(x) -> np.ndarray:
    """Validate and convert ``x`` to a square complex matrix.

    Accepts anything ``numpy.asarray`` does, plus scalars (treated as 1x1).
    Raises :class:`DimensionMismatch` for non-square input or an edge above
    ``MAX_DIM``, and ``ValueError`` for non-finite entries.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DimensionMismatch("empty matrix")
    if a.shape[0] > MAX_DIM:
        raise DimensionMismatch(f"dimension {a.shape[0]} exceeds supported envelope {MAX_DIM}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a.copy()


def operator_norm(x) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(x), 2))


def inverse(x) -> np.ndarray:
    """Inverse with an explicit trust gate.

    One SVD serves both checks.  Raises :class:`SingularMatrix` when the
    2-norm condition number sv[0] / sv[-1] exceeds ``CONDITION_CAP`` (exactly
    singular matrices included), or when the Frobenius residual
    ``||x @ inv(x) - I||_F`` exceeds ``RESIDUAL_TOL`` times that condition
    number.  The Frobenius norm bounds the 2-norm from above, and
    sv[0] / sv[-1] = ||x||_2 ||x^{-1}||_2, so this gate is no looser than a
    2-norm residual against ``RESIDUAL_TOL * ||x||_2 * ||inv||_2``.
    """
    a = as_matrix(x)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > CONDITION_CAP:
        raise SingularMatrix(
            f"condition number {np.inf if sv[-1] == 0 else sv[0] / sv[-1]:.3e} beyond cap"
        )
    inv = np.linalg.inv(a)
    resid = np.linalg.norm(a @ inv - np.eye(a.shape[0]))
    if resid > RESIDUAL_TOL * sv[0] / sv[-1]:
        raise SingularMatrix(f"inverse residual {resid:.3e} failed the quality gate")
    return inv


def imag_part(x) -> np.ndarray:
    """Hermitian imaginary part (x - x*)/(2i)."""
    a = as_matrix(x)
    return (a - a.conj().T) / 2.0j


def half_plane_margin(x) -> float:
    """Smallest eigenvalue of the Hermitian imaginary part.

    Positive iff ``x`` lies in the open matrix upper half-plane; the value is
    the distance to its boundary.
    """
    return float(np.linalg.eigvalsh(imag_part(x))[0])


def is_hermitian(x, tol: float = 1e-12) -> bool:
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.abs(a).max()))
    return bool(np.abs(a - a.conj().T).max() <= tol * scale)


def partial_trace(x, n: int, big: int) -> np.ndarray:
    """Normalized partial trace over the second tensor factor.

    For ``x`` of dimension ``n * big`` viewed as an n x n grid of big x big
    blocks, returns the n x n matrix with entry (i, j) equal to the normalized
    trace of block (i, j).  Satisfies ``partial_trace(kron(b, I), n, N) == b``.
    """
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("partial trace needs a square matrix")
    if a.shape[0] != n * big:
        raise DimensionMismatch(f"dim {a.shape[0]} is not n*N = {n}*{big}")
    blocks = a.reshape(n, big, n, big)
    return np.ascontiguousarray(np.einsum("ikjk->ij", blocks)) / big


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    mats = [as_matrix(b) for b in blocks]
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim), dtype=np.complex128)
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


def matrix_to_json(x) -> dict:
    """Serialize to ``{"dim": m, "re": [[...]], "im": [[...]]}``."""
    a = as_matrix(x)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch("matrix object shape disagrees with its 'dim' field")
    return as_matrix(re + 1j * im)
