"""The four classical bounded symmetric domains.

Points, membership classification, generic norms and their polarizations,
deterministic interior/boundary samplers, and the type-IV quadric lift.

The kernels (``norm_gram``, ``classify_points``, ``generic_norms``,
``polarized_norms``, ``sample_points``, ``borel_lifts``) work on stacks of
carrier matrices, arrays of shape ``(..., *spec.shape)`` with leading stack
axes, so a check makes one call per report instead of one per sample.  The
``Point`` functions (``classify_point``, ``generic_norm``, ``polarized_norm``,
``sample_point``, ``borel_lift_iv``) are the same kernels on one point.  Each
sample keeps its own RNG key (``[seed, k, ...]`` in the verification
harness), so a point does not depend on what else is in its stack.

Domain kinds and their point shapes:

* kind I   -- r x s complex matrices Z with I - ZZ* > 0 (1 <= r <= s)
* kind II  -- antisymmetric n x n matrices with I - ZZ* > 0
* kind III -- symmetric n x n matrices with I - ZZ* > 0
* kind IV  -- row vectors Z in C^n with ZZ* < 1 and 1 - 2ZZ* + |ZZ^t|^2 > 0
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError, SamplingError, ShapeError
from .linalg import as_matrix

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
    "polarized_norm_is_squared",
    "sample_points",
    "sample_point",
    "borel_lifts",
    "borel_lift_iv",
]

KINDS = ("I", "II", "III", "IV")

SHAPE_TOL = 1e-12


@dataclass(frozen=True)
class DomainSpec:
    """Descriptor of one classical domain: kind plus dimensions.

    Kind I uses (r, s) with 1 <= r <= s; kinds II/III/IV use n.
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
    (shape ``(..., *spec.shape)``) is finite and, for kind II/III, antisymmetric
    or symmetric within ``tol * max(1, |Z|)``."""
    if not np.all(np.isfinite(values)):
        raise ShapeError("matrix contains non-finite entries")
    if spec.kind not in ("II", "III"):
        return
    mirror = values.swapaxes(-1, -2)
    res = np.linalg.norm(values + mirror if spec.kind == "II" else values - mirror, axis=(-2, -1))
    bad = res > tol * np.maximum(1.0, np.linalg.norm(values, axis=(-2, -1)))
    if np.any(bad):
        word = "antisymmetric" if spec.kind == "II" else "symmetric"
        raise ShapeError(f"kind {spec.kind} point is not {word} (residual {np.max(res[bad]):.3e})")


def point(spec: DomainSpec, value, tol: float = SHAPE_TOL) -> Point:
    """Validated point constructor."""
    value = as_matrix(value)
    if value.shape != spec.shape:
        raise ShapeError(f"value shape {value.shape} does not match {spec} (wants {spec.shape})")
    check_shapes(spec, value, tol)
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


def _iv_norms(z: np.ndarray) -> tuple:
    # kind IV: (1 - ZZ*, 1 - 2ZZ* + |ZZ^t|^2) over the stack
    zz_star = np.real(_row_product(z, np.conj(z)))
    return 1.0 - zz_star, 1.0 - 2.0 * zz_star + np.abs(_row_product(z, z)) ** 2


def classify_points(spec: DomainSpec, z: np.ndarray, tol: float = 1e-9, gram=None) -> tuple:
    """Regions (``interior``/``boundary``/``exterior`` string array) and
    margins of the stack ``z`` (shape ``(..., *spec.shape)``).

    Kinds I/II/III classify by the minimum eigenvalue of I - ZZ* (``gram``, if
    given, is that Gram stack); kind IV requires both ZZ* < 1 and the quartic
    generic norm to be positive, and the margin is the smaller of the two.
    """
    if spec.kind == "IV":
        a, b = _iv_norms(z)
        margin = np.minimum(a, b)
        interior = (a > tol) & (b > tol)
        boundary = (np.abs(margin) <= tol) & (np.maximum(a, b) >= -tol)
    else:
        gram = norm_gram(z, z) if gram is None else gram
        margin = np.linalg.eigvalsh(gram)[..., 0]
        interior = margin > tol
        boundary = np.abs(margin) <= tol
    return np.where(interior, "interior", np.where(boundary, "boundary", "exterior")), margin


def classify_point(p: Point, tol: float = 1e-9) -> Classification:
    """Classify a point as interior / boundary / exterior of its domain
    (see :func:`classify_points`)."""
    region, margin = classify_points(p.spec, p.value, tol)
    return Classification(str(region), float(margin))


def generic_norms(spec: DomainSpec, z: np.ndarray, tol: float = 1e-8, gram=None) -> np.ndarray:
    """Generic norms of the stack ``z``; ``gram`` as in :func:`classify_points`.

    Kind I/III: det(I - ZZ*).  Kind II: the positive square root of
    det(I - ZZ*), which is only defined on the closed domain, so a stack with
    a point classified exterior at ``tol`` raises :class:`DomainError`.
    Kind IV: 1 - 2ZZ* + |ZZ^t|^2.  Equals 1 at the origin and 0 on the boundary.
    """
    if spec.kind == "IV":
        return _iv_norms(z)[1]
    gram = norm_gram(z, z) if gram is None else gram
    d = np.linalg.det(gram)
    imag = np.abs(d.imag)
    if np.any(imag > 1e-10 * np.maximum(1.0, np.abs(d))):
        raise NumericError(f"generic norm determinant has imaginary part {np.max(imag):.3e}")
    if spec.kind == "II":
        if np.any(classify_points(spec, z, tol, gram)[0] == "exterior"):
            raise DomainError("kind II generic norm is undefined outside the closed domain")
        return np.sqrt(np.maximum(d.real, 0.0))
    return d.real


def generic_norm(p: Point, tol: float = 1e-8) -> float:
    """Generic norm of the domain at ``p`` (see :func:`generic_norms`)."""
    return float(generic_norms(p.spec, p.value, tol))


def polarized_norms(spec: DomainSpec, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Polarized generic norms of the stacks ``z`` and ``w``, holomorphic in
    Z and anti-holomorphic in W.

    Kind I/III: det(I - ZW*).  Kind IV: 1 - 2ZW* + (ZZ^t) conj(WW^t).
    Kind II returns the squared polarization det(I - ZW*); see
    :func:`polarized_norm_is_squared`.  Restricting to the diagonal recovers
    the generic norm (its square for kind II).
    """
    if spec.kind == "IV":
        zw = _row_product(z, np.conj(w))
        return 1.0 - 2.0 * zw + _row_product(z, z) * np.conj(_row_product(w, w))
    return np.linalg.det(norm_gram(z, w))


def polarized_norm(p: Point, q: Point) -> complex:
    """Polarized generic norm of two points (see :func:`polarized_norms`)."""
    if p.spec != q.spec:
        raise ShapeError(f"spec mismatch: {p.spec} vs {q.spec}")
    return complex(polarized_norms(p.spec, p.value, q.value))


def polarized_norm_is_squared(spec: DomainSpec) -> bool:
    """True when :func:`polarized_norm` returns the square of the generic norm
    on the diagonal (kind II, where the off-diagonal square root has a branch
    ambiguity)."""
    return spec.kind == "II"


_SAMPLE_RETRIES = 64


def _gaussian_directions(spec: DomainSpec, rngs) -> np.ndarray:
    g = np.array([rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
                  for rng in rngs])
    if spec.kind == "II":
        g = g - g.swapaxes(-1, -2)
    elif spec.kind == "III":
        g = (g + g.swapaxes(-1, -2)) / 2.0
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


def sample_points(spec: DomainSpec, region: str, keys) -> np.ndarray:
    """Deterministic sampler for interior or boundary points: one point per
    RNG key (anything ``np.random.default_rng`` accepts, a ``Generator``
    included), stacked as an array of shape ``(len(keys), *spec.shape)``.

    Interior: a Gaussian shape-projected matrix scaled to put its top
    singular value at rho ~ U(0,1) (kind IV scales to rho times the radial
    boundary along the sampled direction).  Boundary: the same matrix scaled
    to top singular value exactly 1; kind IV solves the radial quadratic of
    the generic norm for its smallest positive root.  A candidate that fails
    classification is redrawn from its own key's stream, up to 64 times, so
    each key gets the same point whatever else is in the stack.
    """
    if region not in ("interior", "boundary"):
        raise ParameterError(f"region must be interior or boundary, got {region!r}")
    rngs = [np.random.default_rng(key) for key in keys]
    out = np.empty((len(rngs), *spec.shape), dtype=complex)
    pending = np.arange(len(rngs))
    for _ in range(_SAMPLE_RETRIES):
        if not pending.size:
            return out
        g = _gaussian_directions(spec, [rngs[k] for k in pending])
        if spec.kind == "IV":
            radius = _iv_boundary_radii(g)
            valid = ~np.isnan(radius)
        else:
            top = np.linalg.svd(g, compute_uv=False)[:, 0]
            valid = top > 0.0
        rho = 1.0
        if region == "interior":
            rho = np.array([rngs[k].uniform() for k in pending[valid]])
        scale = radius[valid] * rho if spec.kind == "IV" else rho / top[valid]
        candidates = g[valid] * scale[:, None, None]
        accepted = np.zeros(len(pending), dtype=bool)
        accepted[valid] = classify_points(spec, candidates, 1e-9)[0] == region
        out[pending[accepted]] = candidates[accepted[valid]]
        pending = pending[~accepted]
    if pending.size:
        raise SamplingError(f"could not sample a {region} point of {spec}")
    return out


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
