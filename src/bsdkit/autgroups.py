"""Automorphism groups of the classical domains.

Elements are stored as a single block matrix together with the domain spec.
Kinds I/II/III act by the fractional-linear rule Z -> (A + ZC)^{-1}(B + ZD)
in the row convention [X] -> [XM].  The action and its denominators
(``act_points``, ``automorphy_denominators``) take point stacks with leading
axes, and an element whose matrix has leading axes is a stack of elements
broadcast against them; ``act`` and ``automorphy_denominator`` are the same
kernels on one point.  Kind IV acts through the quadric lift
l(Z) = (-2iZ, 1 + ZZ^t, i(1 - ZZ^t)) of ``domains.borel_lift_iv``: l(Z) is
the point of the quadric sum_k x_k^2 = 0 with first entries -2iZ and
i x_{n+1} + x_{n+2} = 2i.  M^t M = I keeps x = l(Z) M on the quadric, so
with lambda(Z) = i x_{n+1} + x_{n+2} the image is MZ = -x_{1..n} / lambda(Z)
and l(MZ) = (2i / lambda(Z)) l(Z) M; the identity has lambda = 2i.

The lift carries the polarized norm, S(Z, W) = -1/2 l(Z) J l(W)* with
J = diag(I_n, -1, -1), and M J M* = J (the signature relation below), so
S(MZ, MW) lambda(Z) conj(lambda(W)) = |2i|^2 S(Z, W) = 4 S(Z, W).  At M = I,
where lambda = 2i, this fixes the constant 4 with no sampling; no entry of
``IV_FACTOR_CANDIDATES`` fits this lambda.

The isotropies (elements fixing 0) are linear by H. Cartan's theorem on
bounded circular domains; ``isotropy_factors`` reads their parameters as
the factors of the action Z -> L Z R, the one statement of that convention:

* kind I   -- params (U, V), U in U(r), V in U(s): (L, R) = (U*, V)
* kinds II/III -- params A in U(n): (L, R) = (A*, conj A)
* kind IV  -- params (P, theta), P in O(n): (L, R) = ([[e^{-i theta}]], P),
  as diag(P, R_theta) has lambda(Z) = e^{i theta} 2i.

Parameters with leading stack axes give factors, and ``isotropy`` elements,
with the same axes.

Random elements come as stacks: ``random_automorphisms(spec, keys)`` draws
each key's parameters from that key's own generator (``uint32`` key rows
are hashed as one stack by ``domains.key_generators``, and each group of a
key's Gaussians is one ``standard_normal`` call), then builds every
matrix at once (stacked QR for the Haar factors, SVD for the algebra scale,
``eigh`` for the transvections, and ``expm``: a stacked [13/13] Pade
approximant with scaling and squaring, squared per matrix), so an element
depends on its key only; ``random_automorphism`` is its one-key case.
Random isotropy parameters come the same way from
``random_isotropy_stack``, and ``random_isotropy_params`` is its one-key
case.

Defining relations checked for membership:

* kind I   -- M diag(-I_r, I_s) M* = diag(-I_r, I_s)
* kinds II/III -- the kind I relation (r=s=n) and M^t K M = K with
  K = [[0,I],[-eps I,0]], eps = ``spec.mirror`` (-1 for II, +1 for III)
* kind IV  -- M^t M = I and M diag(-I_n, I_2) M* = diag(-I_n, I_2)
"""

from dataclasses import dataclass

import numpy as np

from .domains import (DomainSpec, Point, borel_lifts, check_shapes, classify_points,
                      key_generators, parse_spec, sample_points)
from .errors import ActionSingularityError, DomainError, ParameterError, ShapeError
from .linalg import as_matrix, gaussian_blocks, haar_normalize, hybrid_tol, psd_inv_sqrt

__all__ = [
    "AutElement",
    "MembershipReport",
    "aut_element",
    "check_membership",
    "act_points",
    "act",
    "product",
    "identity_element",
    "isotropy",
    "isotropy_factors",
    "random_isotropy_stack",
    "random_isotropy_params",
    "transvection_type1",
    "random_automorphisms",
    "random_automorphism",
    "automorphy_factor",
    "automorphy_denominators",
    "automorphy_denominator",
    "iv_action_denominator",
    "IV_FACTOR_CANDIDATES",
    "aut_to_json",
    "aut_from_json",
]

# Candidate constants for the kind IV automorphy factor c / (lambda(Z) conj(lambda(W))).
# Which one (if either) actually satisfies the norm transformation law is
# adjudicated empirically by the verification harness, never assumed here.
IV_FACTOR_CANDIDATES = (1.0, -0.5)


def matrix_size(spec: DomainSpec) -> int:
    if spec.kind == "I":
        return spec.r + spec.s
    if spec.kind == "IV":
        return spec.n + 2
    return 2 * spec.n


def _block_split(spec: DomainSpec) -> int:
    # row/column index separating the A|B blocks from C|D
    return spec.r if spec.kind == "I" else spec.n


@dataclass(frozen=True)
class AutElement:
    """A group element, or a stack of them when ``matrix`` has leading axes
    (shape ``(..., N, N)``); the stacked kernels :func:`act_points` and
    :func:`automorphy_denominators` broadcast those axes against a point stack."""

    spec: DomainSpec
    matrix: np.ndarray

    @property
    def blocks(self):
        k = _block_split(self.spec)
        m = self.matrix
        return m[..., :k, :k], m[..., :k, k:], m[..., k:, :k], m[..., k:, k:]


def aut_element(spec: DomainSpec, matrix) -> AutElement:
    matrix = as_matrix(matrix)
    n = matrix_size(spec)
    if matrix.shape != (n, n):
        raise ShapeError(f"automorphism matrix for {spec} must be {n}x{n}, got {matrix.shape}")
    return AutElement(spec, matrix)


def identity_element(spec: DomainSpec) -> AutElement:
    return AutElement(spec, np.eye(matrix_size(spec), dtype=complex))


def product(e1: AutElement, e2: AutElement) -> AutElement:
    if e1.spec != e2.spec:
        raise ShapeError("cannot multiply elements of different domains")
    return AutElement(e1.spec, e1.matrix @ e2.matrix)


@dataclass(frozen=True)
class MembershipReport:
    residuals: dict
    max_residual: float
    tolerance: float
    passed: bool


def _signature_matrix(spec: DomainSpec) -> np.ndarray:
    k = _block_split(spec)
    n = matrix_size(spec)
    j = np.eye(n)
    j[:k, :k] *= -1.0
    return j


def check_membership(e: AutElement, tol: float = 1e-8) -> MembershipReport:
    """Residuals of all defining relations of the element's group.

    Passing is judged against ``tol * max(1, |M|^2)`` since every relation is
    quadratic in the matrix.
    """
    m = e.matrix
    n = matrix_size(e.spec)
    if m.shape != (n, n):
        raise ShapeError(f"matrix for {e.spec} must be {n}x{n}, got {m.shape}")
    j = _signature_matrix(e.spec)
    residuals = {"signature": float(np.linalg.norm(m @ j @ m.conj().T - j))}
    if e.spec.mirror:
        k = np.kron([[0.0, 1.0], [-e.spec.mirror, 0.0]], np.eye(e.spec.n))
        residuals["bilinear"] = float(np.linalg.norm(m.T @ k @ m - k))
    elif e.spec.kind == "IV":
        residuals["orthogonal"] = float(np.linalg.norm(m.T @ m - np.eye(n)))
    worst = max(residuals.values())
    scale = float(np.linalg.norm(m, 2)) ** 2
    return MembershipReport(residuals, worst, tol, bool(worst <= hybrid_tol(tol, scale)))


def _iv_lifted_images(e: AutElement, z: np.ndarray) -> tuple:
    """x = l(Z) M and lambda(Z) = i x_{n+1} + x_{n+2} over a kind IV point stack."""
    x = (borel_lifts(z)[..., None, :] @ e.matrix)[..., 0, :]
    return x, 1j * x[..., -2] + x[..., -1]


def iv_action_denominator(e: AutElement, p: Point) -> complex:
    """lambda(Z) = i x_{n+1} + x_{n+2}, x = borel_lift_iv(Z) M, for a kind IV element."""
    return complex(_iv_lifted_images(e, p.value)[1])


def act_points(e: AutElement, z: np.ndarray) -> np.ndarray:
    """Apply the element (or element stack) to the point stack ``z`` of shape
    ``(..., *spec.shape)``; returns the image stack.

    Kinds I/II/III solve (A + ZC) W = B + ZD and check every image for the
    kind's symmetry; kind IV divides the lifted image by lambda(Z).  Raises
    :class:`ActionSingularityError` when a denominator degenerates (possible
    only off the closed domain).
    """
    if e.spec.kind == "IV":
        x, lam = _iv_lifted_images(e, z)
        if np.any(np.abs(lam) < 1e-14):
            raise ActionSingularityError("vanishing kind IV action denominator")
        return -x[..., None, :-2] / lam[..., None, None]
    a, b, c, d = e.blocks
    try:
        w = np.linalg.solve(a + z @ c, b + z @ d)
    except np.linalg.LinAlgError as exc:
        raise ActionSingularityError("singular A + ZC in fractional-linear action") from exc
    check_shapes(e.spec, w, tol=1e-10)
    return w


def act(e: AutElement, p: Point) -> Point:
    """Apply the automorphism to a point of the closed domain (see
    :func:`act_points`).

    Composition follows the row convention: act(product(M, N), Z) equals
    act(N, act(M, Z)).
    """
    if e.spec != p.spec:
        raise ShapeError(f"element of {e.spec} cannot act on point of {p.spec}")
    return Point(p.spec, act_points(e, p.value))


def isotropy_factors(spec: DomainSpec, params) -> tuple:
    """(L, R) of the isotropy ``params``, acting by Z -> L Z R (table in the
    module docstring), with the leading stack axes of the parameters, if
    any; :func:`isotropy` validates the parameters."""
    if spec.kind == "I":
        u, v = (as_matrix(x, stack=True) for x in params)
        return u.conj().swapaxes(-1, -2), v
    if spec.mirror:
        a_bar = as_matrix(params, stack=True).conj()
        return a_bar.swapaxes(-1, -2), a_bar
    p, theta = params
    return np.exp(-1j * np.asarray(theta))[..., None, None], as_matrix(p, stack=True)


def isotropy(spec: DomainSpec, params) -> AutElement:
    """The isotropy element of validated ``params``: diag(L*, R) with (L, R)
    of :func:`isotropy_factors` for kinds I/II/III, diag(P, R_theta) for
    kind IV (the rotation component of O(2) only); parameter stacks give an
    element stack."""
    left, right = isotropy_factors(spec, params)
    if spec.kind == "IV":
        _require_unitary(right, spec.n, "P")
        if np.linalg.norm(right.imag) > 1e-10:
            raise ParameterError("kind IV isotropy needs a real orthogonal P")
        theta = params[1]
        rotation = np.empty((*np.shape(theta), 2, 2))
        rotation[..., 0, 0] = rotation[..., 1, 1] = np.cos(theta)
        rotation[..., 1, 0] = np.sin(theta)
        rotation[..., 0, 1] = -rotation[..., 1, 0]
        return AutElement(spec, _direct_sum(right.real, rotation))
    u = left.conj().swapaxes(-1, -2)
    if spec.kind == "I":
        _require_unitary(u, spec.r, "U")
        _require_unitary(right, spec.s, "V")
    else:
        _require_unitary(u, spec.n, "A")
    return AutElement(spec, _direct_sum(u, right))


def _require_unitary(u: np.ndarray, n: int, name: str):
    if u.shape[-2:] != (n, n):
        raise ParameterError(f"{name} must be {n}x{n}, got {u.shape}")
    if np.any(np.linalg.norm(u @ u.conj().swapaxes(-1, -2) - np.eye(n), axis=(-2, -1)) > 1e-10):
        raise ParameterError(f"{name} is not unitary within 1e-10")


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a, b) over the leading stack axes that ``a`` and ``b`` share."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = np.zeros((*a.shape[:-2], ra + rb, ca + cb), dtype=complex)
    out[..., :ra, :ca] = a
    out[..., ra:, ca:] = b
    return out


def _isotropy_params(spec: DomainSpec, rngs):
    """Isotropy parameters of every generator of ``rngs``, stacked component by
    component.  Each generator draws, in stream order, the U and V sources
    (kind I), the A source (kinds II/III), or the real P source and then the
    angle theta (kind IV); one stacked Haar normalization per component."""
    if spec.kind == "IV":
        [p] = gaussian_blocks(rngs, [(spec.n, spec.n)], real=True)
        return haar_normalize(p), 2.0 * np.pi * np.array([rng.random() for rng in rngs])
    sizes = (spec.r, spec.s) if spec.kind == "I" else (spec.n,)
    params = tuple(map(haar_normalize, gaussian_blocks(rngs, [(m, m) for m in sizes])))
    return params if spec.kind == "I" else params[0]


def random_isotropy_stack(spec: DomainSpec, keys):
    """Random isotropy parameters, one set per RNG key (through
    ``domains.key_generators``), stacked component by component in the
    format accepted by :func:`isotropy`.  Each key's generator draws all its
    Gaussians in one call (``linalg.gaussian_blocks``), then kind IV its angle;
    one stacked QR normalizes each component."""
    return _isotropy_params(spec, key_generators(keys))


def _params_at(params, k: int):
    """The parameters of key ``k`` of a :func:`random_isotropy_stack` stack."""
    return tuple(x[k] for x in params) if isinstance(params, tuple) else params[k]


def random_isotropy_params(spec: DomainSpec, seed):
    """Random isotropy parameters in the format accepted by :func:`isotropy`:
    the one-key case of :func:`random_isotropy_stack`."""
    return _params_at(random_isotropy_stack(spec, [seed]), 0)


def transvection_type1(z0: Point) -> AutElement:
    """Kind I automorphism moving the origin to the interior point ``z0``.

    Built from the inverse square roots of I - Z0 Z0* and I - Z0* Z0; blows
    up as z0 approaches the boundary.
    """
    if z0.spec.kind != "I":
        raise ShapeError("transvection_type1 is defined for kind I only")
    return AutElement(z0.spec, _transvections(z0.spec, z0.value))


def _transvections(spec: DomainSpec, z: np.ndarray) -> np.ndarray:
    """The matrices of :func:`transvection_type1` over the kind I point stack ``z``."""
    if np.any(classify_points(spec, z, 1e-8)[0] != "interior"):
        raise DomainError("transvection base point must be interior")
    z_star = z.conj().swapaxes(-1, -2)
    p = psd_inv_sqrt(np.eye(spec.r) - z @ z_star)
    q = psd_inv_sqrt(np.eye(spec.s) - z_star @ z)
    return np.block([[p, p @ z], [q @ z_star, q]])


def _algebra_draws(spec: DomainSpec, rngs) -> list:
    """The Gaussians behind a random Lie algebra element for every generator of
    ``rngs``, stacked component by component, each generator's in stream order."""
    if spec.kind == "I":
        r, s = spec.r, spec.s
        return gaussian_blocks(rngs, [(r, s), (r, r), (s, s)])
    n = spec.n
    if spec.mirror:
        return gaussian_blocks(rngs, [(n, n), (n, n)])
    return gaussian_blocks(rngs, [(n, n), (2, 2), (n, 2)], real=True)


def _algebra_elements(spec: DomainSpec, draws) -> np.ndarray:
    """Elements of the Lie algebra of the defining relations from the stacked
    :func:`_algebra_draws`, each scaled to operator norm at most 0.4."""

    def h(x):
        return x.conj().swapaxes(-1, -2)

    def skew_hermitian(g):
        return (g - h(g)) / 2.0

    if spec.kind == "I":
        y, a, b = draws
        x = np.block([[skew_hermitian(a), y], [h(y), skew_hermitian(b)]])
    elif spec.mirror:
        s_blk, y = skew_hermitian(draws[0]), draws[1]
        y = (y + spec.mirror * y.swapaxes(-1, -2)) / 2.0
        x = np.block([[s_blk, y], [h(y), s_blk.conj()]])
    else:
        r1, r2, b = draws
        r1 = r1 - r1.swapaxes(-1, -2)
        r2 = r2 - r2.swapaxes(-1, -2)
        x = np.block([[r1.astype(complex), 1j * b],
                      [-1j * b.swapaxes(-1, -2), r2.astype(complex)]])
    top = np.linalg.svd(x, compute_uv=False).max(axis=-1)
    return x * (0.4 / np.maximum(1.0, top))[..., None, None]


# Numerator coefficients b_0..b_13 of the [13/13] Pade approximant to exp, over
# b_0 so that exp(0) = I exactly, and the largest 1-norm it takes unscaled
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix, or of each matrix of a stack ``(..., N, N)``.

    Scaling and squaring with a fixed [13/13] Pade approximant (Higham 2005):
    each matrix is scaled by 2^-s, with s the least integer >= 0 that brings
    its 1-norm to at most theta_13, and its Pade value is squared s times.
    The Pade values of the whole stack take six stacked matmuls and one
    stacked solve, and only the matrices with s > k take part in the k-th
    squaring, so each result depends on its own matrix only.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    x = x / 2.0 ** s[:, None, None]
    b, eye = _PADE13, np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2) + b[7] * x6 + b[5] * x4 + b[3] * x2
             + b[1] * eye)
    v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        moved = np.flatnonzero(s > k)
        r[moved] = r[moved] @ r[moved]
    return r.reshape(a.shape)


def random_automorphisms(spec: DomainSpec, keys, flavor: str = "mixed") -> AutElement:
    """Random group elements, one per RNG key, as an element stack of shape
    ``(len(keys), N, N)``: an isotropy, a one-parameter exponential times an
    isotropy, or (kind I) a transvection times an isotropy.

    Each key's ``Generator`` draws, in order, the flavour (when ``flavor`` is
    ``"mixed"``), the isotropy Gaussians (kind IV: then its angle), then the
    transvection base point (through :func:`domains.sample_points`) or the
    Lie algebra Gaussians, so an element depends on its key only.  Each group
    of Gaussians is one ``standard_normal`` call per key
    (``linalg.gaussian_blocks``), so an exponential key makes two.  The
    matrices are then built as stacks: one QR per Haar factor, one SVD for
    the algebra scale, one :func:`expm` (a [13/13] Pade approximant with
    scaling and squaring, each matrix squared its own number of times) and
    one ``eigh`` per inverse square root.
    """
    choices = ("exponential", "isotropy") + (("transvection",) if spec.kind == "I" else ())
    if flavor != "mixed" and flavor not in choices:
        raise ParameterError(f"unknown automorphism flavor {flavor!r} for {spec}")
    rngs = key_generators(keys)
    if not rngs:
        size = matrix_size(spec)
        return AutElement(spec, np.empty((0, size, size), dtype=complex))
    flavors = np.array([choices[rng.integers(len(choices))] if flavor == "mixed" else flavor
                        for rng in rngs])
    iso = _isotropy_params(spec, rngs)
    out = isotropy(spec, iso).matrix
    moved = np.flatnonzero(flavors == "transvection")
    if moved.size:
        z0 = sample_points(spec, "interior", [rngs[k] for k in moved])
        out[moved] = _transvections(spec, z0) @ out[moved]
    moved = np.flatnonzero(flavors == "exponential")
    if moved.size:
        x = _algebra_elements(spec, _algebra_draws(spec, [rngs[k] for k in moved]))
        out[moved] = expm(x) @ out[moved]
    return AutElement(spec, out)


def random_automorphism(spec: DomainSpec, seed, flavor: str = "mixed") -> AutElement:
    """One random group element, deterministic per seed: the one-key case of
    :func:`random_automorphisms`."""
    return AutElement(spec, random_automorphisms(spec, [seed], flavor).matrix[0])


def automorphy_factor(e: AutElement, p: Point, q: Point):
    """Automorphy factor F_U(Z, W) of the element at a pair of points.

    Kinds I/III return 1 / (det(A+ZC) conj(det(A+WC))).  Kind II returns the
    same ratio, the factor of the squared Pfaffian norm S^2 = det(I - ZW*)
    (the factor of S needs a branch of its square root).  Kind IV returns
    the tuple of candidate values c / (lambda(Z) conj(lambda(W))) for c in
    IV_FACTOR_CANDIDATES, left to the verification harness to adjudicate.
    """
    if e.spec != p.spec or e.spec != q.spec:
        raise ShapeError("element and points must share one domain spec")
    dz, dw = automorphy_denominator(e, p), automorphy_denominator(e, q)
    if abs(dz) < 1e-14 or abs(dw) < 1e-14:
        raise ActionSingularityError("vanishing automorphy denominator")
    base = 1.0 / (dz * np.conj(dw))
    if e.spec.kind == "IV":
        return tuple(c * base for c in IV_FACTOR_CANDIDATES)
    return base


def automorphy_denominators(e: AutElement, z: np.ndarray) -> np.ndarray:
    """det(A + ZC) for kinds I/II/III, lambda(Z) for kind IV, over the point
    stack ``z`` (and the element stack, if ``e`` is one)."""
    if e.spec.kind == "IV":
        return _iv_lifted_images(e, z)[1]
    a, _, c, _ = e.blocks
    return np.linalg.det(a + z @ c)


def automorphy_denominator(e: AutElement, p: Point) -> complex:
    """det(A + ZC) for kinds I/II/III, lambda(Z) for kind IV."""
    return complex(automorphy_denominators(e, p.value))


def aut_to_json(e: AutElement) -> dict:
    """Wire format: {"spec": ..., "matrix": [[re, im], ...]} row-major."""
    return {
        "spec": str(e.spec),
        "matrix": [[float(v.real), float(v.imag)] for v in e.matrix.ravel()],
    }


def aut_from_json(data: dict) -> AutElement:
    """Inverse of :func:`aut_to_json`; a missing key or a non-numeric entry
    raises ``ParameterError``, a wrong count or a non-finite entry ``ShapeError``."""
    try:
        text = data["spec"]
        flat = np.array([complex(re, im) for re, im in data["matrix"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed automorphism data: {exc!r}") from None
    spec = parse_spec(str(text))
    n = matrix_size(spec)
    if flat.size != n * n:
        raise ShapeError(f"matrix for {spec} must have {n * n} entries, got {flat.size}")
    return aut_element(spec, flat.reshape(n, n))
