"""Dense complex linear algebra primitives used throughout the toolkit.

All routines are pure functions, except that the seeded draws advance the
generators they are given.  ``pfaffian``, ``psd_inv_sqrt``,
``haar_normalize`` and ``as_matrix(stack=True)`` also take stacks of shape
``(..., m, n)``; the others take one 2-D matrix.  Tolerances are
absolute-relative hybrids: a residual passes at ``tol`` when it is at most
``tol * max(1, scale)`` for the natural scale of the input.
"""

import math
import operator

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


def _key_parts(key) -> list:
    """The parts of an RNG key, with every list, tuple and array in it flattened."""
    if isinstance(key, np.ndarray):
        key = key.tolist()
    if isinstance(key, (list, tuple)):
        return [part for sub in key for part in _key_parts(sub)]
    return [key]


def _require_key(key, nested: bool = True) -> None:
    """The one rule for an RNG key or seed: a nonnegative integer or, if
    ``nested``, a list of them nested to any depth.  Anything else (None, a
    float, a string) raises ``ParameterError`` with one message, and a
    negative integer anywhere in the key with another, rather than numpy's
    untyped error or, for None, an unseeded draw."""
    parts = _key_parts(key) if nested else [key]
    if not all(isinstance(part, (int, np.integer)) for part in parts):
        raise ParameterError(f"RNG key must be a nonnegative integer or a list of them, got {key!r}")
    if any(part < 0 for part in parts):
        raise ParameterError(f"RNG key must be nonnegative, got {key!r}")


def _key_words(key) -> list:
    """The ``uint32`` words that NumPy's ``SeedSequence`` reads from an RNG key
    that :func:`_require_key` accepts: the little-endian 32-bit words of each
    of its integers in order, at least one word per integer."""
    _require_key(key)
    return [part >> shift & 0xFFFFFFFF for part in map(int, _key_parts(key))
            for shift in range(0, max(1, part.bit_length()), 32)]


def _require_tolerance(tol: float, name: str = "tol") -> None:
    """The one rule for a tolerance: a negative or non-finite one raises
    ``ParameterError`` (it would fail every identity, or with +inf pass every
    one)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"{name} must be nonnegative and finite, got {tol}")


def _require_count(name: str, count, least: int = 1) -> int:
    """The one rule for a count (samples, trials, a degree bound, a grid
    size): taken through ``operator.index``, so a non-integer raises
    ``ParameterError``, and returned as an int.  A count below ``least``
    raises too: a sample count must be at least 1, since a report over no
    samples would pass with max_residual 0.0, and a degree bound at least 0."""
    try:
        count = operator.index(count)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {count!r}") from None
    if count < least:
        word = "positive" if least else "nonnegative"
        raise ParameterError(f"{name} must be {word}, got {count}")
    return count


def default_generator(key):
    """``np.random.default_rng(key)`` for a key that :func:`_require_key`
    accepts."""
    _require_key(key)
    return np.random.default_rng(key)


def gaussian_blocks(rngs, shapes, real: bool = False) -> list:
    """Standard normal blocks of the given ``shapes`` from every generator of
    ``rngs``, stacked over the generators: one array of shape
    ``(len(rngs), *shape)`` per block.  Each generator fills its row of one
    buffer with a single ``standard_normal(out=row)`` call, and the row is cut
    into the blocks in stream order; a complex block takes its real part, then
    its imaginary part, copied into its ``.real`` and ``.imag`` views.  So a
    generator's blocks are bit for bit what ``rng.standard_normal(shape) +
    1j * rng.standard_normal(shape)``, block after block, gives (one
    ``standard_normal(shape)`` each with ``real``), and the generator carries
    on from the same state."""
    rows = np.empty((len(rngs), (1 if real else 2) * sum(map(math.prod, shapes))))
    for rng, row in zip(rngs, rows):
        rng.standard_normal(out=row)
    return _cut_blocks(rows, shapes, real)


def _cut_blocks(rows: np.ndarray, shapes, real: bool = False) -> list:
    """The blocks of :func:`gaussian_blocks` cut from ``rows``, a stack of
    normals in stream order, one row per stream."""
    parts = 1 if real else 2
    blocks, start = [], 0
    for shape in shapes:
        size = parts * math.prod(shape)
        run = rows[:, start:start + size].reshape(len(rows), parts, *shape)
        if real:
            blocks.append(run[:, 0])
        else:
            block = np.empty((len(rows), *shape), dtype=complex)
            block.real, block.imag = run[:, 0], run[:, 1]
            blocks.append(block)
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
