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
``key_generators`` turns a 2-D ``uint32`` array of such keys into one
generator per row, hashing all rows at once as NumPy's ``SeedSequence``
does, so each row's stream is that of ``np.random.default_rng(row)``.

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
largest singular value, so the halving is exact and moves no sample.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import NumericError, ParameterError, SamplingError, ShapeError
from .linalg import as_matrix, default_generator, gaussian_blocks, pfaffian

__all__ = [
    "DomainSpec",
    "Point",
    "Classification",
    "parse_spec",
    "format_spec",
    "point",
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
_MIRROR = {"II": -1.0, "III": 1.0}


@dataclass(frozen=True)
class DomainSpec:
    """Descriptor of one classical domain: kind plus dimensions.

    Kind I uses (r, s) with 1 <= r <= s; kinds II/III/IV use n.  The carrier
    matrix has at most ``MAX_CARRIER_ENTRIES`` entries.
    """

    kind: str
    r: int = 0
    s: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown domain kind {self.kind!r}")
        if self.kind == "I":
            if not (1 <= self.r <= self.s):
                raise ParameterError(f"kind I needs 1 <= r <= s, got r={self.r}, s={self.s}")
        elif self.kind == "II":
            if self.n < 2:
                raise ParameterError("kind II needs n >= 2")
        else:
            if self.n < 1:
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
    except ValueError as exc:
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
    """The Gram matrices I - ZW* over the leading stack axes of ``z`` and ``w``."""
    return np.eye(z.shape[-2]) - z @ np.conj(w).swapaxes(-1, -2)


def _row_product(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    # kind IV row vectors: ZW^t over the stack
    return (z @ w.swapaxes(-1, -2))[..., 0, 0]


def classify_points(spec: DomainSpec, z: np.ndarray, tol: float = 1e-9) -> tuple:
    """Regions (``interior``/``boundary``/``exterior`` string array) and
    margins of the stack ``z`` (shape ``(..., *spec.shape)``).

    Kinds I/II/III classify by the minimum eigenvalue of I - ZZ*; kind IV
    requires both ZZ* < 1 and the quartic generic norm to be positive, and the
    margin is the smaller of the two.
    """
    if spec.kind == "IV":
        a, b = 1.0 - np.real(_row_product(z, np.conj(z))), generic_norms(spec, z)
        margin = np.minimum(a, b)
        interior = (a > tol) & (b > tol)
        boundary = (np.abs(margin) <= tol) & (np.maximum(a, b) >= -tol)
    else:
        margin = np.linalg.eigvalsh(norm_gram(z, z))[..., 0]
        interior = margin > tol
        boundary = np.abs(margin) <= tol
    return np.where(interior, "interior", np.where(boundary, "boundary", "exterior")), margin


def classify_point(p: Point, tol: float = 1e-9) -> Classification:
    """Classify a point as interior / boundary / exterior of its domain
    (see :func:`classify_points`)."""
    region, margin = classify_points(p.spec, p.value, tol)
    return Classification(str(region), float(margin))


def generic_norms(spec: DomainSpec, z: np.ndarray) -> np.ndarray:
    """Generic norms of the stack ``z``: for every kind the diagonal S(Z, Z)
    of :func:`polarized_norms`, which is real.  Kind I/III: det(I - ZZ*).
    Kind II: prod(1 - s_k^2) over the singular value pairs (s_k, s_k) of Z, a
    root of det(I - ZZ*) that is negative where an odd number of s_k exceed 1.
    Kind IV: 1 - 2ZZ* + |ZZ^t|^2.  Equals 1 at the origin and 0 on the boundary.
    """
    s = polarized_norms(spec, z, z)
    imag = np.abs(s.imag)
    if np.any(imag > 1e-10 * np.maximum(1.0, np.abs(s))):
        raise NumericError(f"generic norm has imaginary part {np.max(imag):.3e}")
    return s.real


def generic_norm(p: Point) -> float:
    """Generic norm of the domain at ``p`` (see :func:`generic_norms`)."""
    return float(generic_norms(p.spec, p.value))


def polarized_norms(spec: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Polarized generic norms S(Z, W) of the stacks ``z`` and ``w``, polynomials
    holomorphic in Z and anti-holomorphic in W with S(Z, 0) = 1.

    Kind I/III: det(I - ZW*).  Kind II: (-1)^(n(n-1)/2) Pf([[Z, I], [-I, conj W]])
    (Loos, *Bounded Symmetric Domains and Jordan Pairs*, 1977), whose square
    is det(I - ZW*).  Kind IV: 1 - 2ZW* + (ZZ^t) conj(WW^t).  The diagonal
    S(Z, Z) is the generic norm (:func:`generic_norms`).
    """
    if spec.kind == "IV":
        zw = _row_product(z, np.conj(w))
        return 1.0 - 2.0 * zw + _row_product(z, z) * np.conj(_row_product(w, w))
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
    of Ishikawa and Wakayama, 1995).  Kind IV: (1, Z, ZZ^t) with sigma =
    (1, -2, ..., -2, 1).  The empty minor is the leading feature 1.
    """
    lead = z.shape[:-2]
    if spec.kind == "IV":
        phi = np.concatenate([np.ones((*lead, 1)), z[..., 0, :], _row_product(z, z)[..., None]],
                             axis=-1)
        return phi, np.concatenate([[1.0], np.full(spec.n, -2.0), [1.0]])
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
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _pool_states(rows: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of the
    2-D ``uint32`` array ``rows``, shape ``(len(rows), 4)``: the entropy mix
    and the state output of ``SeedSequence``, one column of words at a time.
    Its hash constants do not depend on the data, so every row shares them."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _WORD
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ out >> np.uint32(16)

    width = rows.shape[1]
    zeros = np.zeros(len(rows), dtype=np.uint32)
    pool = [hashmix(rows[:, i] if i < width else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(rows[:, src]))
    const = _INIT_B
    words = np.empty((len(rows), 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _WORD
        value = value * np.uint32(const)
        words[:, i] = value ^ value >> np.uint32(16)
    return words.astype("<u4").view("<u8").astype(np.uint64)


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


def _is_key_array(keys) -> bool:
    return isinstance(keys, np.ndarray) and keys.ndim == 2 and keys.dtype == np.uint32


def key_generators(keys) -> list:
    """One ``Generator`` per RNG key, each the generator that
    ``np.random.default_rng(key)`` gives.  A 2-D ``uint32`` array of key rows
    is hashed as one stack (:func:`_pool_states`) and each row seeds its own
    ``PCG64``; any other keys (a ``Generator``, which is passed through, an
    int, a list or nested list, an ``object`` row) go through ``default_rng``
    one at a time, and a negative integer anywhere in such a key raises
    ``ParameterError``."""
    if _is_key_array(keys):
        pool_state = _pool_state_type()
        return [np.random.Generator(np.random.PCG64(pool_state(state)))
                for state in _pool_states(keys)]
    return [default_generator(key) for key in keys]


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


def _gaussian_directions(spec: DomainSpec, rngs) -> np.ndarray:
    [g] = gaussian_blocks(rngs, [spec.shape])
    if spec.mirror:
        g = (g + spec.mirror * g.swapaxes(-1, -2)) / 2.0
    return g


def _pow2(x: np.ndarray) -> np.ndarray:
    # x ** 2 through C pow, as Python floats compute it
    return np.array(x.astype(object) ** 2, dtype=float)


def _iv_boundary_radii(d: np.ndarray) -> np.ndarray:
    # Smallest positive root of 1 - 2u*(DD*) + u^2*|DD^t|^2 in u = lambda^2,
    # per direction of the stack; NaN for a zero direction.  |DD^t| goes
    # through np.hypot and the squares through C pow, as Python's abs(complex)
    # and float ** 2 compute them: numpy's abs and x*x differ from those in the
    # last bit for some inputs, and the reference sampler in
    # tests/test_domains.py pins every sampled point bit for bit.
    dd_star = np.real(_row_product(d, np.conj(d)))
    dd_t = _row_product(d, d)
    dd_t_sq = _pow2(np.hypot(dd_t.real, dd_t.imag))
    # Cauchy-Schwarz guarantees disc >= 0; clip roundoff
    disc = np.maximum(_pow2(dd_star) - dd_t_sq, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(dd_t_sq <= 1e-300, np.sqrt(1.0 / (2.0 * dd_star)),
                          np.sqrt((dd_star - np.sqrt(disc)) / dd_t_sq))
    return np.where(dd_star > 0.0, radius, np.nan)


# The open sample memo, {(spec, region, key shape, key bytes): points}, or None.
_SAMPLE_MEMO = ContextVar("sample_memo", default=None)


@contextmanager
def _sample_memo():
    """Open an empty sample memo of :func:`sample_points` for the block, and
    drop it on leaving."""
    token = _SAMPLE_MEMO.set({})
    try:
        yield
    finally:
        _SAMPLE_MEMO.reset(token)


def sample_points(spec: DomainSpec, region: str, keys) -> np.ndarray:
    """Deterministic sampler for interior or boundary points: one point per
    RNG key, stacked as an array of shape ``(len(keys), *spec.shape)``.  The
    keys go through :func:`key_generators`: a 2-D ``uint32`` array of key
    rows, or a sequence of anything ``np.random.default_rng`` accepts, a
    ``Generator`` included.

    Interior: a Gaussian shape-projected matrix scaled to put its top
    singular value at rho ~ U(0,1) (kind IV scales to rho times the radial
    boundary along the sampled direction).  Boundary: the same matrix scaled
    to top singular value exactly 1; kind IV solves the radial quadratic of
    the generic norm for its smallest positive root.  A candidate that fails
    classification is redrawn from its own key's stream through
    :func:`_redraw`, so each key gets the same point whatever else is in the
    stack.  Each attempt draws a key's Gaussians in one ``standard_normal``
    call (``linalg.gaussian_blocks``: real parts, then imaginary parts) and,
    for an interior point with a nonzero direction, rho as ``random()``;
    these are the streams of ``standard_normal(shape) + 1j *
    standard_normal(shape)`` and ``uniform()`` bit for bit.

    So a stack is a pure function of spec, region and key rows, and while
    the sample memo is open (within one ``verify.run_all``, see
    :func:`_sample_memo`) a 2-D ``uint32`` key stack is sampled once: every
    later call with the same spec, region and key rows gets the same stack,
    read-only.  Other keys are sampled on every call.
    """
    if region not in ("interior", "boundary"):
        raise ParameterError(f"region must be interior or boundary, got {region!r}")
    memo = _SAMPLE_MEMO.get()
    if memo is None or not _is_key_array(keys):
        return _draw_points(spec, region, keys)
    entry = (spec, region, keys.shape, keys.tobytes())
    points = memo.get(entry)
    if points is None:
        points = memo[entry] = _draw_points(spec, region, keys)
        points.flags.writeable = False
    return points


def _draw_points(spec: DomainSpec, region: str, keys) -> np.ndarray:
    rngs = key_generators(keys)

    def draw(pending, attempt):
        g = _gaussian_directions(spec, [rngs[k] for k in pending])
        if spec.kind == "IV":
            radius = _iv_boundary_radii(g)
            valid = ~np.isnan(radius)
        else:
            top = np.linalg.svd(g, compute_uv=False)[:, 0]
            valid = top > 0.0
        rho = 1.0
        if region == "interior":
            rho = np.array([rngs[k].random() for k in pending[valid]])
        scale = radius[valid] * rho if spec.kind == "IV" else rho / top[valid]
        candidates = g[valid] * scale[:, None, None]
        accepted = np.zeros(len(pending), dtype=bool)
        accepted[valid] = classify_points(spec, candidates, 1e-9)[0] == region
        return accepted, (candidates[accepted[valid]],)

    return _redraw(len(rngs), draw, SamplingError(f"could not sample a {region} point of {spec}"))[0]


def sample_point(spec: DomainSpec, region: str, seed) -> Point:
    """One point from :func:`sample_points` with the single key ``seed``; a
    ``Generator`` seed is drawn from and carries on."""
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
