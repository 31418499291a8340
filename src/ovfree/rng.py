"""Counter-based random streams.

Every consumer of randomness derives an independent Philox generator from a
``(seed, stream)`` pair.  Streams never share state, so trials can run in any
order (or concurrently) and still reproduce the sequential results bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator keyed by ``(seed, stream_id)``."""
    key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """Real then imaginary standard normal draws, x + iy, of the given shape."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are folded back into Q; without that correction the
    QR map is not measure-preserving.
    """
    z = complex_normal((n, n), rng) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gue(n: int, rng: np.random.Generator) -> np.ndarray:
    """GUE matrix normalized so the spectral law converges to the unit semicircle.

    Entries of the returned Hermitian matrix have variance 1/n; eigenvalues
    concentrate on [-2, 2].
    """
    z = complex_normal((n, n), rng) / np.sqrt(2.0)
    return (z + z.conj().T) / np.sqrt(2.0 * n)
