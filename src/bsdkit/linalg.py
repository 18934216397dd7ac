"""Dense complex linear algebra primitives used throughout the toolkit.

All routines are pure functions, except that the seeded draws advance the
generators they are given.  ``pfaffian``, ``psd_inv_sqrt``,
``haar_normalize`` and ``as_matrix(stack=True)`` also take stacks of shape
``(..., m, n)``; the others take one 2-D matrix.  Tolerances are
absolute-relative hybrids: a residual passes at ``tol`` when it is at most
``tol * max(1, scale)`` for the natural scale of the input.
"""

import math

import numpy as np

from .errors import DomainError, ParameterError, ShapeError

__all__ = [
    "as_matrix",
    "det",
    "pfaffian",
    "psd_inv_sqrt",
    "haar_normalize",
    "default_generator",
    "gaussian_blocks",
    "random_unitary",
    "random_orthogonal",
]


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex matrix, or with ``stack`` to a finite
    complex stack of matrices (shape ``(..., m, n)``)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix contains non-finite entries")
    return a


def _square(m, stack: bool = False) -> np.ndarray:
    a = as_matrix(m, stack)
    if a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def hybrid_tol(tol: float, scale):
    """``tol * max(1, scale)``, elementwise over an array of scales."""
    return tol * np.maximum(1.0, scale)


def det(m) -> complex:
    """Determinant of a square complex matrix (pivoted LU)."""
    return complex(np.linalg.det(_square(m)))


def pfaffian(a):
    """Pfaffians of an antisymmetric matrix or of a stack of them (shape
    ``(..., 2m, 2m)``) by skew-symmetric elimination: Gauss transforms with
    each matrix's own partial pivoting reduce it to skew tridiagonal form, and
    the Pfaffian is the signed product of the superdiagonal pivots.  A matrix
    of a stack gets bit for bit what it gets alone; a 2-D input returns a
    ``complex``.  ``pfaffian(a)**2 == det(a)`` up to roundoff; odd sizes and a
    zero pivot column give exactly 0.
    """
    a = _square(a, stack=True)
    scale = np.linalg.norm(a, axis=(-2, -1))
    if np.any(np.linalg.norm(a + a.swapaxes(-1, -2), axis=(-2, -1)) > hybrid_tol(1e-12, scale)):
        raise ShapeError("matrix is not antisymmetric within tolerance")
    lead, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(math.prod(lead), n, n).copy()
    odd = n % 2 == 1
    value = np.full(len(a), 0j if odd else 1.0 + 0j)
    idx = np.arange(len(a))
    for k in range(0, 0 if odd else n - 1, 2):
        pivot = k + 1 + np.abs(a[:, k + 1:, k]).argmax(axis=1)
        # fancy-indexed right-hand sides are copies, so these swap
        a[idx, k + 1, k:], a[idx, pivot, k:] = a[idx, pivot, k:], a[idx, k + 1, k:]
        a[idx, k:, k + 1], a[idx, k:, pivot] = a[idx, k:, pivot], a[idx, k:, k + 1]
        zero = a[:, k + 1, k] == 0.0  # a zero pivot column: the Pfaffian is 0
        value = np.where(zero, 0j, np.where(pivot != k + 1, -value, value) * a[:, k, k + 1])
        if k + 2 < n:
            head = np.where(zero, 1.0, a[:, k, k + 1])[:, None]
            gauss = np.where(zero[:, None], 0j, a[:, k, k + 2:] / head)
            col = a[:, k + 2:, k + 1]
            a[:, k + 2:, k + 2:] += gauss[:, :, None] * col[:, None, :]
            a[:, k + 2:, k + 2:] -= col[:, :, None] * gauss[:, None, :]
    return value.reshape(lead) if lead else complex(value[0])


def psd_inv_sqrt(h) -> np.ndarray:
    """Inverse Hermitian square roots of a positive definite matrix or of a
    stack of them (shape ``(..., n, n)``), one ``eigh`` for the whole stack."""
    h = _square(h, stack=True)
    if h.shape[-1] == 0:
        raise DomainError("matrix is not safely positive definite (min eigenvalue n/a)")
    evals, evecs = np.linalg.eigh(h)
    lowest = evals[..., 0]
    bad = lowest <= hybrid_tol(1e-10, np.linalg.norm(h, axis=(-2, -1)))
    if np.any(bad):
        raise DomainError("matrix is not safely positive definite "
                          f"(min eigenvalue {np.min(lowest[bad])})")
    return (evecs / np.sqrt(evals)[..., None, :]) @ evecs.conj().swapaxes(-1, -2)


def haar_normalize(g: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of each matrix of the stack ``g`` (shape
    ``(..., n, n)``), its columns rescaled so that R has a positive diagonal:
    Haar-distributed unitaries for complex Gaussian ``g``, orthogonal matrices
    for real ones.  One stacked ``qr`` gives each matrix bit for bit what a
    call on that matrix alone gives."""
    q, r = np.linalg.qr(g)
    d = r.diagonal(0, -2, -1)
    return q * (d / abs(d))[..., None, :]


def _negative(key) -> bool:
    """Whether a negative integer appears anywhere in the RNG key ``key``."""
    if isinstance(key, np.ndarray):
        key = key.tolist()
    if isinstance(key, (int, np.integer)):
        return key < 0
    return isinstance(key, (list, tuple)) and any(map(_negative, key))


def _negative_key_error(key) -> ParameterError:
    """The one error for a negative integer in an RNG key or seed."""
    return ParameterError(f"RNG key must be nonnegative, got {key!r}")


def default_generator(key):
    """``np.random.default_rng(key)``, with a negative integer anywhere in the
    key raised as a ``ParameterError`` rather than numpy's untyped error."""
    try:
        return np.random.default_rng(key)
    except ValueError:
        if _negative(key):
            raise _negative_key_error(key) from None
        raise


def gaussian_blocks(rngs, shapes, real: bool = False) -> list:
    """Standard normal blocks of the given ``shapes`` from every generator of
    ``rngs``, stacked over the generators: one array of shape
    ``(len(rngs), *shape)`` per block.  Each generator fills its row of one
    buffer with a single ``standard_normal(out=row)`` call, and the row is cut
    into the blocks in stream order; a complex block takes its real part, then
    its imaginary part.  So a generator's blocks are bit for bit what
    ``rng.standard_normal(shape) + 1j * rng.standard_normal(shape)``, block
    after block, gives (one ``standard_normal(shape)`` each with ``real``),
    and the generator carries on from the same state."""
    parts = 1 if real else 2
    sizes = [parts * math.prod(shape) for shape in shapes]
    rows = np.empty((len(rngs), sum(sizes)))
    for rng, row in zip(rngs, rows):
        rng.standard_normal(out=row)
    blocks, start = [], 0
    for shape, size in zip(shapes, sizes):
        run = rows[:, start:start + size].reshape(len(rngs), parts, *shape)
        blocks.append(run[:, 0] if real else run[:, 0] + 1j * run[:, 1])
        start += size
    return blocks


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian with the R diagonal
    phase-normalized.  Deterministic for a given seed."""
    if n < 1:
        raise ShapeError("n must be >= 1")
    [g] = gaussian_blocks([default_generator(seed)], [(n, n)])
    return haar_normalize(g[0])


def random_orthogonal(n: int, seed) -> np.ndarray:
    """Random real orthogonal matrix, deterministic for a given seed."""
    if n < 1:
        raise ShapeError("n must be >= 1")
    [g] = gaussian_blocks([default_generator(seed)], [(n, n)], real=True)
    return haar_normalize(g[0])
