"""The four classical bounded symmetric domains.

Points, membership classification, generic norms and their polarizations,
deterministic interior/boundary samplers, and the type-IV quadric lift.

The kernels (``norm_gram``, ``classify_points``, ``generic_norms``,
``polarized_norms``, ``norm_features``, ``sample_points``, ``borel_lifts``)
work on stacks of carrier matrices, arrays of shape ``(..., *spec.shape)``
with leading stack axes, so a check makes one call per report instead of
one per sample.  The
``Point`` functions (``classify_point``, ``generic_norm``, ``polarized_norm``,
``sample_point``, ``borel_lift_iv``) are the same kernels on one point.  Each
sample keeps its own RNG key (``[seed, k, ...]`` in the verification
harness), so a point does not depend on what else is in its stack.

Every key becomes a ``uint32`` row at the API edge (``_as_key_rows``): the
words NumPy's ``SeedSequence`` reads from it (``linalg._key_words``), a
stack of keys zero-padded to its longest key, which ``SeedSequence`` reads
as the same keys while no key is longer than four words.
``key_generators`` turns a 2-D array of such rows into one generator per
row, hashing all rows at once as ``SeedSequence`` does, so each row's
stream is that of ``np.random.default_rng(row)``.  Every sampler, here and
in ``autgroups``, reads its keys' streams through one reader,
``_first_draws``, the package's one caller of ``key_generators``: each
key's first draws in stream order, a raw word where asked, then one block
of normals per given block size, each followed by a uniform where asked.
A point attempt, an isotropy and a group element of every kind are each
one such read.  Within one ``verify.run_all`` a run memo (``_sample_memo``)
keeps each key stack's sampled points, its hashed seed states and its
first draws, as arrays: one tape of normals that every read of normals
only takes a prefix of (boundary points, kind I/II/III isotropies, and
after a raw word kind I/II/III elements), and the draws with uniforms
(interior points, kind IV isotropies and elements) per block sizes.  So a
stack is sampled and hashed once per run, and each draw is drawn once.
Attempt a of a rejected key reads the last of its stream's first a + 1
blocks, so a redraw reads further instead of replaying, and no
``Generator`` outlives the call that built it.

Domain kinds and their point shapes:

* kind I   -- r x s complex matrices Z with I - ZZ* > 0 (1 <= r <= s)
* kind II  -- antisymmetric n x n matrices with I - ZZ* > 0
* kind III -- symmetric n x n matrices with I - ZZ* > 0
* kind IV  -- row vectors Z in C^n with ZZ* < 1 and 1 - 2ZZ* + |ZZ^t|^2 > 0

Kinds II/III are the slices Z^t = eps Z of kind I (r = s = n), eps =
``DomainSpec.mirror`` (-1 for II, +1 for III, 0 for I and IV).  The shape
check, the sampler's projection (g + eps g^t) / 2, the groups' bilinear form
and Lie algebra, a map's independent and mirror entries and the coefficient
lemma read that one sign.  The sampler rescales each direction by its
largest spectral value, so the halving is exact and moves no sample.

Where a point lies is read from one kernel, ``_spectral_squares``: the
squares t_1^2 >= ... >= t_r^2 of its spectral values: a closed form for
kind IV and for a Gram ZZ* of size 1 or 2 (kinds I/III with at most two
rows, kind II with n <= 3), else one ``eigvalsh`` of the Gram over a stack.
Classification reads the margin 1 - t_1^2, the sampler scales by rho / t_1,
and the generic norm is prod_j (1 - t_j^2) for every kind (``generic_norms``).
``verify.check_properness`` needs of its images only |S(Z, Z)| and whether
the margin is within a band, and reads both from ``_boundary_screen``: for
an image stack whose Gram would take an ``eigvalsh`` (kinds I/III with at
least 3 rows), one Cholesky factor and two determinants, and
``_spectral_squares`` only for the images that they leave unproven.

Kind IV's polarized norm is its quadric lift's: S(Z, W) = -1/2 l(Z) J l(W)*
with l = ``borel_lifts``, the lift its group acts through, and J =
diag(I_n, -1, -1), so its ``norm_features`` are the lift itself.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import ParameterError, SamplingError, ShapeError
from .linalg import (_cut_blocks, _key_words, _require_count, _stack_product, as_matrix,
                     gaussian_blocks, pfaffian)

__all__ = [
    "DomainSpec",
    "Point",
    "Classification",
    "parse_spec",
    "format_spec",
    "point",
    "origin",
    "check_shapes",
    "norm_gram",
    "classify_points",
    "classify_point",
    "generic_norms",
    "generic_norm",
    "polarized_norms",
    "polarized_norm",
    "norm_features",
    "key_generators",
    "sample_points",
    "sample_point",
    "borel_lifts",
    "borel_lift_iv",
]

KINDS = ("I", "II", "III", "IV")

SHAPE_TOL = 1e-12
# The most entries a carrier matrix may have (r*s, n*n, or n for kind IV): a
# larger spec raises ParameterError before any point is allocated.  The specs
# of run_all, the tests, the demos and the benchmark have at most 30 (I:5,6).
MAX_CARRIER_ENTRIES = 4096
# The most entries a map's operators may have over every degree up to its
# own, d: its target's independent entries times the source monomials of
# degree <= d.  ``polymaps.polymap`` raises ParameterError for a larger map
# before any monomial is enumerated.  The maps of run_all, the tests, the
# demos and the benchmark have at most 53,568 (G_t(5, 6)); G_t(12, 12) has
# 5,842,920 and G_t(13, 13) 9,447,750.
MAX_OPERATOR_ENTRIES = 2**23
_MIRROR = {"II": -1.0, "III": 1.0}


@dataclass(frozen=True)
class DomainSpec:
    """Descriptor of one classical domain: kind plus dimensions.

    Kind I uses (r, s) with 1 <= r <= s; kinds II/III/IV use n.  Each
    dimension is an integer (NumPy integers are taken as ints), and one the
    kind does not use must be 0.  The carrier matrix has at most
    ``MAX_CARRIER_ENTRIES`` entries.
    """

    kind: str
    r: int = 0
    s: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown domain kind {self.kind!r}")
        used = ("r", "s") if self.kind == "I" else ("n",)
        for name in ("r", "s", "n"):
            value = _require_count(f"domain dimension {name}", getattr(self, name), least=0)
            object.__setattr__(self, name, value)
            if value and name not in used:
                raise ParameterError(f"kind {self.kind} does not use {name}, got {name}={value}")
        if self.kind == "I" and not 1 <= self.r <= self.s:
            raise ParameterError(f"kind I needs 1 <= r <= s, got r={self.r}, s={self.s}")
        if self.kind == "II" and self.n < 2:
            raise ParameterError("kind II needs n >= 2")
        if self.kind in ("III", "IV") and self.n < 1:
            raise ParameterError(f"kind {self.kind} needs n >= 1")
        entries = self.shape[0] * self.shape[1]
        if entries > MAX_CARRIER_ENTRIES:
            raise ParameterError(f"{self} has {entries} carrier entries, more than the cap "
                                 f"{MAX_CARRIER_ENTRIES}")

    @property
    def mirror(self) -> float:
        """The sign eps of Z^t = eps Z: -1.0 for kind II, +1.0 for kind III, 0.0
        for kinds I and IV, which have no mirror relation."""
        return _MIRROR.get(self.kind, 0.0)

    @property
    def shape(self) -> tuple:
        if self.kind == "I":
            return (self.r, self.s)
        if self.kind == "IV":
            return (1, self.n)
        return (self.n, self.n)

    def __str__(self):
        return format_spec(self)


def parse_spec(text: str) -> DomainSpec:
    """Parse the textual syntax ``I:r,s`` / ``II:n`` / ``III:n`` / ``IV:n``."""
    try:
        kind, _, dims = text.strip().partition(":")
        parts = [int(p) for p in dims.split(",")]
    except (AttributeError, ValueError) as exc:  # not a string, or a dimension not an int
        raise ParameterError(f"malformed domain spec {text!r}") from exc
    if kind == "I":
        if len(parts) != 2:
            raise ParameterError(f"kind I spec needs two dims, got {text!r}")
        return DomainSpec("I", r=parts[0], s=parts[1])
    if kind in ("II", "III", "IV"):
        if len(parts) != 1:
            raise ParameterError(f"kind {kind} spec needs one dim, got {text!r}")
        return DomainSpec(kind, n=parts[0])
    raise ParameterError(f"unknown domain kind in {text!r}")


def format_spec(spec: DomainSpec) -> str:
    if spec.kind == "I":
        return f"I:{spec.r},{spec.s}"
    return f"{spec.kind}:{spec.n}"


@dataclass(frozen=True)
class Point:
    """A point of a classical domain: its spec plus the carrier matrix.

    Kind IV points are stored as 1 x n row vectors.
    """

    spec: DomainSpec
    value: np.ndarray


def check_shapes(spec: DomainSpec, values: np.ndarray, tol: float = SHAPE_TOL) -> None:
    """Raise :class:`ShapeError` unless every matrix of the stack ``values``
    (shape ``(..., *spec.shape)``) is finite and, for kind II/III, satisfies
    Z^t = eps Z (``spec.mirror``) within ``tol * max(1, |Z|)``."""
    if not np.all(np.isfinite(values)):
        raise ShapeError("matrix contains non-finite entries")
    if not spec.mirror:
        return
    res = np.linalg.norm(values.swapaxes(-1, -2) - spec.mirror * values, axis=(-2, -1))
    bad = res > tol * np.maximum(1.0, np.linalg.norm(values, axis=(-2, -1)))
    if np.any(bad):
        word = "antisymmetric" if spec.mirror < 0 else "symmetric"
        raise ShapeError(f"kind {spec.kind} point is not {word} (residual {np.max(res[bad]):.3e})")


def _require_stack(spec: DomainSpec, z) -> None:
    """The one shape rule of the stacked kernels, checked once per call:
    ``z`` must be a stack of shape ``(..., *spec.shape)``, else
    ``ShapeError``."""
    if np.shape(z)[-2:] != spec.shape:
        raise ShapeError(f"point stack shape {np.shape(z)} does not end in {spec.shape} of {spec}")


def point(spec: DomainSpec, value) -> Point:
    """Validated point constructor."""
    value = as_matrix(value)
    if value.shape != spec.shape:
        raise ShapeError(f"value shape {value.shape} does not match {spec} (wants {spec.shape})")
    check_shapes(spec, value)
    return Point(spec, value)


def origin(spec: DomainSpec) -> Point:
    return Point(spec, np.zeros(spec.shape, dtype=complex))


@dataclass(frozen=True)
class Classification:
    """Region verdict plus the signed margin that determined it."""

    region: str  # interior | boundary | exterior
    margin: float


def norm_gram(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Gram matrices I - ZW* over the leading stack axes of ``z`` and ``w``
    (one ``linalg._stack_product``)."""
    return np.eye(z.shape[-2]) - _stack_product(z, np.conj(w).swapaxes(-1, -2))


def _spectral_squares(spec: DomainSpec, z: np.ndarray) -> np.ndarray:
    """The squares t_1^2 >= ... >= t_r^2 of the spectral values of the stack
    ``z`` (shape ``(..., *spec.shape)``), shape ``(..., r)`` with r the rank
    of the domain.  The domain is t_1 < 1, its boundary t_1 = 1, and the
    generic norm is S(Z, Z) = prod_j (1 - t_j^2) (Loos, *Bounded Symmetric
    Domains and Jordan Pairs*, 1977).

    Kinds I/III: the eigenvalues of the smaller Gram ZZ* (r <= s), one
    ``eigvalsh`` over the stack for r >= 3.  A Gram of size 1 is its entry
    |Z|^2, and one of size 2, [[a, b], [conj b, d]], has the closed-form
    eigenvalues m +- hypot((a - d) / 2, |b|), m = (a + d) / 2.  Kind II:
    the same Gram, whose eigenvalues come in pairs (s_k^2, s_k^2), after
    them a 0 for odd n; the second of each pair is taken, so the product is
    the Pfaffian root with its sign.  For n <= 3 there is one pair, s_1^2 =
    tr(ZZ*) / 2 = |Z|^2 / 2, and no ``eigvalsh``.
    Kind IV: with x, y the real and imaginary parts of Z and w = |x ^ y|,
    t_(1,2)^2 = |Z|^2 +- 2w, so t_1 and t_2 are s_1 + s_2 and |s_1 - s_2|
    for the singular values of the real n x 2 matrix [x, y]; w sums the
    squares of the 2 x 2 minors x_i y_j - x_j y_i, so a rank-1 point (x
    parallel to y) does not cancel, and no LAPACK routine is called.  Each
    value is exact to roundoff.  A stack of another point shape raises
    ``ShapeError`` (:func:`_require_stack`).
    """
    _require_stack(spec, z)
    if spec.kind == "IV":
        x, y = z.real[..., 0, :], z.imag[..., 0, :]
        wedge = sum(np.sum((x[..., :-k] * y[..., k:] - x[..., k:] * y[..., :-k]) ** 2, axis=-1)
                    for k in range(1, spec.n))  # the minors of the index pairs (i, i + k)
        size, wedge = np.sum(x * x + y * y, axis=-1), 2.0 * np.sqrt(wedge)
        return np.stack([size + wedge, size - wedge], axis=-1)
    rows = spec.shape[0]
    if rows <= 3 and spec.kind == "II":
        return np.sum(z.real * z.real + z.imag * z.imag, axis=(-2, -1))[..., None] / 2.0
    if rows <= 2:
        diag = np.sum(z.real * z.real + z.imag * z.imag, axis=-1)
        if rows == 1:
            return diag
        a, d = diag[..., 0], diag[..., 1]
        mid = (a + d) / 2.0
        half = np.hypot((a - d) / 2.0, np.abs(np.sum(z[..., 0, :] * np.conj(z[..., 1, :]), axis=-1)))
        return np.stack([mid + half, mid - half], axis=-1)
    # ``@``, not ``linalg._stack_product``: the samplers scale by these
    # values, so keeping the product keeps every sample point bit for bit
    squares = np.linalg.eigvalsh(z @ np.conj(z).swapaxes(-1, -2))[..., ::-1]
    return squares[..., 1::2] if spec.kind == "II" else squares


def _boundary_screen(spec: DomainSpec, z: np.ndarray, band: float) -> tuple:
    """(|S(Z, Z)|, margins) of the stack ``z`` for a boundary test at width
    ``band``: the generic norms' absolute values, and the margins 1 - t_1^2
    of the rows not proven to have |1 - t_1^2| <= band, 0.0 on the rows that
    are.

    A stack whose :func:`_spectral_squares` would call ``eigvalsh`` (kinds
    I/III with at least 3 rows) is screened without it when ``band > 0``.
    The norm is |det(I - ZZ*)|.  One stacked Cholesky factor of
    (1 + band)I - ZZ* proves t_1^2 < 1 + band on every row.  Then
    det(cI - ZZ*) <= 0 proves t_1^2 >= c on its row, since a positive
    definite matrix has a positive determinant (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 10): the norm's own
    determinant (c = 1) proves about half the rows of a boundary stack, and
    det((1 - band)I - ZZ*) is taken on the rest.  The rows left unproven
    (an interior image, or an even number of t_j^2 in the band) take their
    norm and margin from ``_spectral_squares``, and so does the whole stack
    when the Cholesky factor does not exist or ``band`` is 0.  Kind II
    keeps the spectral path: its t_j^2 come in pairs, so the determinant at
    any shift is a square and would prove no row.
    """
    def spectral(w):
        squares = _spectral_squares(spec, w)
        return np.abs(np.prod(1.0 - squares, axis=-1)), 1.0 - squares[..., 0]

    _require_stack(spec, z)
    rows = spec.shape[0]
    if spec.kind not in ("I", "III") or rows < 3 or not band > 0:
        return spectral(z)
    gram = _stack_product(z, np.conj(z).swapaxes(-1, -2))
    eye = np.eye(rows)
    try:
        np.linalg.cholesky((1.0 + band) * eye - gram)
    except np.linalg.LinAlgError:
        return spectral(z)
    dets = np.linalg.det(eye - gram).real
    norms, margins = np.abs(dets), np.zeros(dets.shape)
    loose = dets > 0.0
    loose[loose] = np.linalg.det((1.0 - band) * eye - gram[loose]).real > 0.0
    if np.any(loose):
        norms[loose], margins[loose] = spectral(z[loose])
    return norms, margins


def _regions(margin: np.ndarray, tol: float) -> np.ndarray:
    # interior / boundary / exterior by the margin 1 - t_1^2
    return np.select([margin > tol, np.abs(margin) <= tol], ["interior", "boundary"], "exterior")


def classify_points(spec: DomainSpec, z: np.ndarray, tol: float = 1e-9) -> tuple:
    """Regions (``interior``/``boundary``/``exterior`` string array) and
    margins of the stack ``z`` (shape ``(..., *spec.shape)``).

    Every kind classifies by the margin 1 - t_1^2, with t_1 the largest
    spectral value (:func:`_spectral_squares`): interior above ``tol``,
    boundary within ``tol`` of 0, exterior below ``-tol``.
    """
    margin = 1.0 - _spectral_squares(spec, z)[..., 0]
    return _regions(margin, tol), margin


def classify_point(p: Point, tol: float = 1e-9) -> Classification:
    """Classify a point as interior / boundary / exterior of its domain
    (see :func:`classify_points`)."""
    region, margin = classify_points(p.spec, p.value, tol)
    return Classification(str(region), float(margin))


def generic_norms(spec: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Generic norms of the stack ``z``: prod_j (1 - t_j^2) over the squared
    spectral values of :func:`_spectral_squares`, for every kind the real
    diagonal S(Z, Z) of :func:`polarized_norms`.  For kind II it is the
    Pfaffian root of det(I - ZZ*), negative where an odd number of its
    singular value pairs exceed 1.  Equals 1 at the origin and 0 on the
    boundary.
    """
    return np.prod(1.0 - _spectral_squares(spec, z), axis=-1)


def generic_norm(p: Point) -> float:
    """Generic norm of the domain at ``p`` (see :func:`generic_norms`)."""
    return float(generic_norms(p.spec, p.value))


def polarized_norms(spec: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Polarized generic norms S(Z, W) of the stacks ``z`` and ``w``, polynomials
    holomorphic in Z and anti-holomorphic in W with S(Z, 0) = 1.

    Kind I/III: det(I - ZW*).  Kind II: (-1)^(n(n-1)/2) Pf([[Z, I], [-I, conj W]])
    (Loos, *Bounded Symmetric Domains and Jordan Pairs*, 1977), whose square
    is det(I - ZW*).  Kind IV: -1/2 l(Z) J l(W)* over the quadric lifts l
    (:func:`borel_lifts`), J = diag(I_n, -1, -1), read from its
    :func:`norm_features`.  The diagonal S(Z, Z) is the generic norm
    (:func:`generic_norms`).
    """
    _require_stack(spec, z)
    _require_stack(spec, w)
    if spec.kind == "IV":
        (phi, sigma), (psi, _) = norm_features(spec, z), norm_features(spec, w)
        return np.sum(phi * sigma * np.conj(psi), axis=-1)
    if spec.kind == "II":
        z, w_bar = np.broadcast_arrays(z, np.conj(w))
        eye = np.broadcast_to(np.eye(spec.n), z.shape)
        return (-1) ** (spec.n * (spec.n - 1) // 2) * pfaffian(np.block([[z, eye], [-eye, w_bar]]))
    return np.linalg.det(norm_gram(z, w))


def _subsets(n: int, size: int) -> np.ndarray:
    return np.array(list(combinations(range(n), size)), dtype=int).reshape(-1, size)


def norm_features(spec: DomainSpec, z: np.ndarray) -> tuple:
    """(phi, sigma): features ``phi`` of the stack ``z``, shape ``(..., F)``,
    and signs ``sigma``, shape ``(F,)``, with S(Z, W) = sum_f sigma_f
    phi_f(Z) conj(phi_f(W)), so the norms of all pairs of two stacks are one
    product ``(phi(Z) * sigma) @ phi(W)^H`` (:func:`polarized_norms`).

    Kinds I/III: all minors det Z[I, J] with |I| = |J|, sigma = (-1)^|I|
    (Cauchy-Binet on det(I - ZW*)).  Kind II: the principal Pfaffian minors
    Pf Z[I] over even |I|, sigma = (-1)^(|I|/2) (the minor summation formula
    of Ishikawa and Wakayama, 1995); the empty minor is the leading feature
    1.  Kind IV: its quadric lift l(Z) (:func:`borel_lifts`), sigma = (-1/2,
    ..., -1/2, 1/2, 1/2), so S(Z, W) = -1/2 l(Z) J l(W)* with J = diag(I_n,
    -1, -1).
    """
    _require_stack(spec, z)
    if spec.kind == "IV":
        return borel_lifts(z), np.concatenate([np.full(spec.n, -0.5), [0.5, 0.5]])
    lead = z.shape[:-2]
    blocks, signs = [np.ones((*lead, 1), dtype=complex)], [np.ones(1)]
    rows, cols = spec.shape
    if spec.kind == "II":
        for size in range(2, rows + 1, 2):
            idx = _subsets(rows, size)
            blocks.append(pfaffian(z[..., idx[:, :, None], idx[:, None, :]]))
            signs.append(np.full(len(idx), (-1.0) ** (size // 2)))
    else:
        for size in range(1, rows + 1):
            ri, ci = _subsets(rows, size), _subsets(cols, size)
            minors = np.linalg.det(z[..., ri[:, None, :, None], ci[None, :, None, :]])
            blocks.append(minors.reshape(*lead, -1))
            signs.append(np.full(minors.shape[-1] * minors.shape[-2], (-1.0) ** size))
    return np.concatenate(blocks, axis=-1), np.concatenate(signs)


def polarized_norm(p: Point, q: Point) -> complex:
    """Polarized generic norm of two points (see :func:`polarized_norms`)."""
    if p.spec != q.spec:
        raise ShapeError(f"spec mismatch: {p.spec} vs {q.spec}")
    return complex(polarized_norms(p.spec, p.value, q.value))


# The constants of NumPy's SeedSequence (M. O'Neill's seed_seq_fe, NEP 19).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# The pool words each pool word is mixed into, and the pool word of each output word.
_OTHERS = [np.array([dst for dst in range(_POOL_SIZE) if dst != src]) for src in range(_POOL_SIZE)]
_OUTPUT_SOURCES = np.arange(2 * _POOL_SIZE) % _POOL_SIZE


def _hash_chain(init: int, mult: int, count: int) -> tuple:
    """The xor and multiplier words of ``count`` successive hashes of a
    ``SeedSequence`` hash chain: hash j xors with ``init * mult**j`` and
    multiplies by ``init * mult**(j + 1)`` (mod 2**32), as ``(count, 1)``
    ``uint32`` columns.  Built from Python ints, so no uint32 scalar wraps."""
    words = [init]
    for _ in range(count):
        words.append(words[-1] * mult & 0xFFFFFFFF)
    words = np.array(words, dtype=np.uint32)[:, None]
    words.flags.writeable = False  # cached and shared by every call
    return words[:-1], words[1:]


@cache
def _hash_constants(width: int) -> tuple:
    """The data-independent hash constants of ``_pool_states`` for key rows
    of ``width`` words: the entropy chain (``_INIT_A``) with one hash per pool
    word, three per pool word for the cross mix and four per entropy word
    past the fourth, then the output chain (``_INIT_B``) of eight words."""
    mixes = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, width - _POOL_SIZE)
    return _hash_chain(_INIT_A, _MULT_A, mixes) + _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ out >> np.uint32(16)


def _pool_states(rows: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of the
    2-D ``uint32`` array ``rows``, shape ``(len(rows), 4)``, in one pass over
    the whole stack.  The four pool words are one ``(4, len(rows))`` array:
    each pool word is hashed against its next three constants and mixed into
    the other three in one step, each entropy word past the fourth is hashed
    four times and mixed into all four at once, and the eight output words
    come out in one step.  The hash constants do not depend on the data
    (:func:`_hash_constants`), so every row shares them."""
    xor, mult, out_xor, out_mult = _hash_constants(rows.shape[1])
    words = rows.T
    pool = np.zeros((_POOL_SIZE, len(rows)), dtype=np.uint32)
    pool[:len(words)] = words[:_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    j = _POOL_SIZE
    for src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hash(pool[src], xor[j:j + 3], mult[j:j + 3]))
        j += 3
    for word in words[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, xor[j:j + 4], mult[j:j + 4]))
        j += 4
    out = _hash(pool[_OUTPUT_SOURCES], out_xor, out_mult)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


@cache
def _pool_state_type() -> type:
    """A seed sequence whose ``PCG64`` state is already hashed.  Defined on
    first use: importing ``numpy.random`` costs about 10 ms, and ``import
    bsdkit`` does not need it."""
    from numpy.random.bit_generator import ISeedSequence

    class PoolState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return PoolState


def _as_key_rows(keys) -> np.ndarray:
    """The API edge of every key stack: ``keys`` as a 2-D ``uint32`` array of
    key rows, each row the words ``SeedSequence`` reads from its key
    (``linalg._key_words``), so a row seeds that key's stream.  A 2-D
    ``uint32`` array is taken as it is; any other keys (ints, nested lists,
    integer arrays) are checked one at a time by ``linalg._require_key`` and
    zero-padded to the longest key.  ``SeedSequence`` pads a key of fewer than
    four words with zeros itself, so padding up to four words keeps every
    stream; a stack whose key lengths differ past four words, or that is
    not a sequence at all (an int, None), raises ``ParameterError``."""
    if isinstance(keys, np.ndarray) and keys.ndim == 2 and keys.dtype == np.uint32:
        return keys
    try:
        keys = iter(keys)
    except TypeError:
        raise ParameterError("RNG keys must be a sequence of keys or a 2-D uint32 array, "
                             f"got {keys!r}") from None
    words = [_key_words(key) for key in keys]
    width = max(map(len, words), default=0)
    if width > _POOL_SIZE and any(len(w) != width for w in words):
        raise ParameterError(f"RNG keys of a stack must have the same length past {_POOL_SIZE} "
                             f"words, got lengths {sorted(set(map(len, words)))}")
    rows = np.zeros((len(words), width), dtype=np.uint32)
    for row, w in zip(rows, words):
        row[:len(w)] = w
    return rows


# The open run memo, or None: {(spec, region, key shape, key bytes): points} of
# sample_points, {(key shape, key bytes): pool states} of key_generators and
# {("draws", word, False or counts, key shape, key bytes): (words, normals,
# uniforms)} of _first_draws, a key stack's tape of normals under False and
# its draws with uniforms under their block sizes.
_SAMPLE_MEMO = ContextVar("sample_memo", default=None)


@contextmanager
def _sample_memo():
    """Open an empty run memo of :func:`sample_points`, :func:`key_generators`
    and :func:`_first_draws` for the block, and drop it on leaving."""
    token = _SAMPLE_MEMO.set({})
    try:
        yield
    finally:
        _SAMPLE_MEMO.reset(token)


def _memoized(entry: tuple, build) -> np.ndarray:
    """``build()``, or while the run memo is open the array kept in it under
    ``entry``: built on the first call, read-only, the same on every later
    one."""
    memo = _SAMPLE_MEMO.get()
    if memo is None:
        return build()
    value = memo.get(entry)
    if value is None:
        value = memo[entry] = build()
        value.flags.writeable = False
    return value


def key_generators(keys) -> list:
    """One ``Generator`` per RNG key, each the generator that
    ``np.random.default_rng(key)`` gives.  The keys become ``uint32`` key rows
    at the API edge (:func:`_as_key_rows`), so a key that is not made of
    nonnegative integers raises ``ParameterError``; the rows are hashed as
    one stack (:func:`_pool_states`) and each row seeds its own ``PCG64``.

    While the run memo is open (within one ``verify.run_all``, see
    :func:`_sample_memo`) the pool states of a key stack are kept in it under
    the stack's shape and bytes, so each stack is hashed once per run; every
    call builds fresh generators from them."""
    rows = _as_key_rows(keys)
    states = _memoized((rows.shape, rows.tobytes()), lambda: _pool_states(rows))
    pool_state = _pool_state_type()
    return [np.random.Generator(np.random.PCG64(pool_state(state))) for state in states]


def _redraw(count: int, draw, error: Exception) -> tuple:
    """The rejection loop of every sampler: ``draw(pending, attempt)`` returns
    a boolean mask over the still-empty slots ``pending`` and a tuple of
    stacks of the accepted candidates.  A slot keeps its first accepted
    candidate and only rejected slots are drawn again; ``error`` is raised
    if a slot is still empty after 64 attempts.  Returns the filled stacks."""
    pending = np.arange(count)
    out = None
    for attempt in range(64):
        accepted, values = draw(pending, attempt)
        if out is None:
            out = [np.empty((count, *v.shape[1:]), dtype=v.dtype) for v in values]
        for stack, v in zip(out, values):
            stack[pending[accepted]] = v
        pending = pending[~accepted]
        if not pending.size:
            return tuple(out)
    raise error


def _gaussian_directions(spec: DomainSpec, normals: np.ndarray) -> np.ndarray:
    """The shape-projected directions of a stack of ``2 * r * s`` normals per
    key (real parts, then imaginary parts, as ``linalg.gaussian_blocks``
    cuts them)."""
    [g] = _cut_blocks(normals, [spec.shape])
    if spec.mirror:
        g = (g + spec.mirror * g.swapaxes(-1, -2)) / 2.0
    return g


# A key stack's tape of normals is drawn at least this many normals deep while
# the run memo keeps it: a normal costs about 16 ns and seeding a generator
# about 2 us, so the later specs of a run read a prefix instead of seeding
# every key again.  The deepest normals-only read of run_all is II:5's group
# element, 50 isotropy and 50 boost normals after its raw word, so the 8 kind
# I/II/III F_U reports seed their 200 element keys once; the deepest boundary
# spec, II:5, reads 50.
_TAPE_DEPTH = 100


def _first_draws(rows: np.ndarray, counts: tuple, word: bool = False,
                 uniform: bool = False) -> tuple:
    """The first draws of every key row's stream, in stream order: one raw
    64-bit word if ``word``, then a block of ``c`` normals for each ``c`` of
    the block sizes ``counts``, each block followed by one uniform if
    ``uniform``.  Returns (words, normals, uniforms): shapes ``(len(rows),)``,
    ``(len(rows), sum(counts))`` and ``(len(rows), len(counts))``, None for
    words or uniforms not drawn.  Each key draws each block with one
    ``standard_normal`` call (``linalg.gaussian_blocks``), a run of blocks
    with no uniforms between them with one call.

    While the run memo is open (:func:`_sample_memo`) it keeps the draws per
    key stack as arrays: draws of normals only share one tape, drawn at
    least ``_TAPE_DEPTH`` normals deep and again, deeper, for a longer read,
    so every such read is a prefix of it; draws with uniforms are kept per
    ``counts``."""
    memo, depth = _SAMPLE_MEMO.get(), sum(counts)
    entry = ("draws", word, uniform and counts, rows.shape, rows.tobytes())
    drawn = None if memo is None else memo.get(entry)
    if drawn is None or not uniform and drawn[1].shape[1] < depth:
        rngs = key_generators(rows)
        words = (np.array([rng.bit_generator.random_raw() for rng in rngs], dtype=np.uint64)
                 if word else None)
        if uniform:
            normals, uniforms = np.empty((len(rows), depth)), np.empty((len(rows), len(counts)))
            for b, block in enumerate(np.split(normals, np.cumsum(counts)[:-1], axis=1)):
                [block[:]] = gaussian_blocks(rngs, [block.shape[1:]], real=True)
                uniforms[:, b] = [rng.random() for rng in rngs]
        else:
            tape = depth if memo is None else max(depth, _TAPE_DEPTH)
            [normals], uniforms = gaussian_blocks(rngs, [(tape,)], real=True), None
        drawn = words, normals, uniforms
        if memo is not None:
            memo[entry] = drawn
    return drawn if uniform else (drawn[0], drawn[1][:, :depth], None)


def sample_points(spec: DomainSpec, region: str, keys) -> np.ndarray:
    """Deterministic sampler for interior or boundary points: one point per
    RNG key, stacked as an array of shape ``(len(keys), *spec.shape)``.  The
    keys are a 2-D ``uint32`` array of key rows or a sequence of keys, each
    a nonnegative integer or a nested list of them, which become key rows at
    the API edge (:func:`_as_key_rows`).

    Every kind draws a Gaussian shape-projected direction and scales it by
    rho / t_1, with t_1 its largest spectral value (:func:`_spectral_squares`)
    and rho ~ U(0,1) for an interior point, rho = 1 for a boundary point.  A
    candidate is accepted by its analytic margin 1 - t_1^2 scale^2 at ``tol``
    1e-9 (:func:`_accepted`), with no second look at the scaled point; a
    rejected one (rho within 5e-10 of 1, or a zero direction) is redrawn
    from its own key's stream through :func:`_redraw`, so each key gets the
    same point whatever else is in the stack.  Each attempt reads one block
    of a key's stream through :func:`_first_draws`: its Gaussians as one
    block of normals (real parts, then imaginary parts) and, for an interior
    point, rho; these are the streams of ``standard_normal(shape) + 1j *
    standard_normal(shape)`` and ``uniform()`` bit for bit.  Attempt a reads
    the last of the first a + 1 blocks of the still pending keys, so a redraw
    reads further along the stream instead of replaying it; a zero
    direction's rho is drawn and skipped.

    So a stack is a pure function of spec, region and key rows, and while
    the run memo is open (within one ``verify.run_all``, see
    :func:`_sample_memo`) each key stack is sampled once: every later call
    with the same spec, region and key rows gets the same stack, read-only.
    The memo also keeps the stack's seed states (:func:`key_generators`) and
    its first draws, so the same key rows under another spec or region are
    not hashed again, and a later spec reads the draws already made: a
    boundary spec a prefix of each key's tape, an interior spec with the
    same normal count the same normals and rho.
    """
    if region not in ("interior", "boundary"):
        raise ParameterError(f"region must be interior or boundary, got {region!r}")
    rows = _as_key_rows(keys)
    return _memoized((spec, region, rows.shape, rows.tobytes()),
                     lambda: _draw_points(spec, region, rows))


def _accepted(region: str, candidates: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """The sampler's acceptance rule: a mask over the stack ``candidates``,
    true where the analytic margin 1 - t_1^2 scale^2 of a candidate puts it
    in ``region`` at ``tol`` 1e-9, as :func:`classify_points` would: the
    margin is compared as a number, above ``tol`` for ``interior`` and within
    ``tol`` of 0 for ``boundary``, so a NaN margin is rejected.  It sees the
    candidates too, so a stricter rule can stand in for it."""
    return margin > 1e-9 if region == "interior" else np.abs(margin) <= 1e-9


def _draw_points(spec: DomainSpec, region: str, rows: np.ndarray) -> np.ndarray:
    count, interior = 2 * spec.shape[0] * spec.shape[1], region == "interior"

    def draw(pending, attempt):
        # attempt a of a key reads the last of the first a + 1 blocks of its stream
        _, normals, rho = _first_draws(rows[pending], (count,) * (attempt + 1), uniform=interior)
        g = _gaussian_directions(spec, normals[:, -count:])
        top = _spectral_squares(spec, g)[:, 0]
        valid = top > 0.0
        scale = (rho[valid, -1] if interior else 1.0) / np.sqrt(top[valid])
        candidates = g[valid] * scale[:, None, None]
        accepted = np.zeros(len(pending), dtype=bool)
        accepted[valid] = _accepted(region, candidates, 1.0 - top[valid] * scale * scale)
        return accepted, (candidates[accepted[valid]],)

    error = SamplingError(f"could not sample a {region} point of {spec}")
    return _redraw(len(rows), draw, error)[0]


def sample_point(spec: DomainSpec, region: str, seed) -> Point:
    """One point from :func:`sample_points` with the single key ``seed``, a
    nonnegative integer or a nested list of them."""
    return Point(spec, sample_points(spec, region, [seed])[0])


def borel_lifts(values: np.ndarray) -> np.ndarray:
    """Quadric lifts of a stack of kind IV row vectors (shape ``(..., 1, n)``),
    shape ``(..., n + 2)``; see :func:`borel_lift_iv`."""
    z = values[..., 0, :]
    zzt = np.sum(z * z, axis=-1)[..., None]
    return np.concatenate([-2j * z, 1.0 + zzt, 1j * (1.0 - zzt)], axis=-1)


def borel_lift_iv(p: Point) -> np.ndarray:
    """Lift a kind IV point to its quadric representative
    ``(-2iZ, 1 + ZZ^t, i(1 - ZZ^t))`` in C^(n+2).

    The lift lies on the quadric ``sum_k x_k^2 = 0`` and carries the generic
    norm through the signature form:
    ``sum_{k<=n} |x_k|^2 - |x_{n+1}|^2 - |x_{n+2}|^2 = -2 * generic_norm``.
    """
    if p.spec.kind != "IV":
        raise ShapeError(f"borel_lift_iv needs a kind IV point, got {p.spec}")
    return borel_lifts(p.value)
