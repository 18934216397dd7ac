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
each key's parameters from that key's own stream, then builds every matrix
at once: an isotropy, or a boost exp(X) times an isotropy, with X the
Hermitian noncompact generator [[0, Y], [Y*, 0]] (G = exp(p) K, the Cartan
decomposition).  Every kind reads its keys' streams with one call of the
one reader ``domains._first_draws``: a raw word, then the isotropy's and
the boost's normals as two blocks (kind IV: each followed by a uniform, the
first the isotropy's angle).  Stacked QR gives the Haar factors, one
``eigvalsh`` of Y*Y the boost scale and one ``eigh`` of Y*Y the boost
(``expm``, the block form of exp(X)), so an element depends on its key
only; ``random_automorphism`` is its one-key case.  Random isotropy
parameters come from ``random_isotropy_stack``, one block read through the
same reader (so two reports on one key stack share its draws), and
``random_isotropy_params`` is its one-key case.  A key is a nonnegative
integer or a nested list of them, as ``linalg._require_key`` states it; a
stack may also be a 2-D ``uint32`` array of key rows.

Defining relations checked for membership:

* kind I   -- M diag(-I_r, I_s) M* = diag(-I_r, I_s)
* kinds II/III -- the kind I relation (r=s=n) and M^t K M = K with
  K = [[0,I],[-eps I,0]], eps = ``spec.mirror`` (-1 for II, +1 for III)
* kind IV  -- M^t M = I and M diag(-I_n, I_2) M* = diag(-I_n, I_2)
"""

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .domains import (DomainSpec, Point, _as_key_rows, _first_draws, _gaussian_directions,
                      _require_stack, borel_lifts, check_shapes, classify_points, parse_spec)
from .errors import (ActionSingularityError, BsdkitError, DomainError, ParameterError,
                     ShapeError)
from .linalg import _cut_blocks, as_matrix, haar_normalize, hybrid_tol, psd_inv_sqrt

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
    _require_element(e)
    m, n = e.matrix, matrix_size(e.spec)
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


def _require_element(e: AutElement, *points: Point) -> None:
    """The rule of the one-element functions: ``e`` is one element, not a
    stack, of the domain of every point of ``points``, else ``ShapeError``."""
    n = matrix_size(e.spec)
    if e.matrix.shape != (n, n):
        raise ShapeError(f"matrix for {e.spec} must be {n}x{n}, got {e.matrix.shape}")
    for p in points:
        if p.spec != e.spec:
            raise ShapeError(f"element of {e.spec} cannot act on point of {p.spec}")


def _iv_lifted_images(e: AutElement, z: np.ndarray) -> tuple:
    """x = l(Z) M and lambda(Z) = i x_{n+1} + x_{n+2} over a kind IV point stack."""
    x = (borel_lifts(z)[..., None, :] @ e.matrix)[..., 0, :]
    return x, 1j * x[..., -2] + x[..., -1]


def iv_action_denominator(e: AutElement, p: Point) -> complex:
    """lambda(Z) = i x_{n+1} + x_{n+2}, x = borel_lift_iv(Z) M, for a kind IV
    element (:func:`automorphy_denominator`); another kind raises ``ShapeError``."""
    if e.spec.kind != "IV":
        raise ShapeError(f"iv_action_denominator needs a kind IV element, got {e.spec}")
    return automorphy_denominator(e, p)


def act_points(e: AutElement, z: np.ndarray) -> np.ndarray:
    """Apply the element (or element stack) to the point stack ``z`` of shape
    ``(..., *spec.shape)``; returns the image stack.

    Kinds I/II/III solve (A + ZC) W = B + ZD and check every image for the
    kind's symmetry; kind IV divides the lifted image by lambda(Z).  Raises
    :class:`ActionSingularityError` when a denominator degenerates (possible
    only off the closed domain).
    """
    _require_stack(e.spec, z)
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
    act(N, act(M, Z)).  An element stack, or a point of another domain,
    raises ``ShapeError``.
    """
    _require_element(e, p)
    return Point(p.spec, act_points(e, p.value))


def _isotropy_parts(spec: DomainSpec, params) -> tuple:
    """The parameters ``params`` unpacked as the table in the module docstring
    names them, (U, V), (A,) or (P, theta): each matrix a complex stack
    (``linalg.as_matrix``) and theta a float array.  The wrong number of
    parts, or a part that is not a finite number, raises ``ParameterError``."""
    try:
        if spec.mirror:
            return (as_matrix(params, stack=True),)
        first, second = params
        second = (as_matrix(second, stack=True) if spec.kind == "I"
                  else np.asarray(second, dtype=float))
        if np.all(np.isfinite(second)):
            return as_matrix(first, stack=True), second
    except BsdkitError:
        raise
    except (TypeError, ValueError):
        pass
    names = {"I": "(U, V)", "IV": "(P, theta)"}.get(spec.kind, "A")
    raise ParameterError(f"kind {spec.kind} isotropy parameters must be {names} of finite numbers, "
                         f"got {reprlib.repr(params)}")


def isotropy_factors(spec: DomainSpec, params) -> tuple:
    """(L, R) of the isotropy ``params``, acting by Z -> L Z R (table in the
    module docstring), with the leading stack axes of the parameters, if
    any; the parameters are unpacked by :func:`_isotropy_parts`, and
    :func:`isotropy` also checks that they are unitary."""
    parts = _isotropy_parts(spec, params)
    if spec.kind == "IV":
        return np.exp(-1j * parts[1])[..., None, None], parts[0]
    right = parts[1] if spec.kind == "I" else parts[0].conj()
    return parts[0].conj().swapaxes(-1, -2), right


def isotropy(spec: DomainSpec, params) -> AutElement:
    """The isotropy element of validated ``params``, built from them:
    diag(U, V) for kind I, diag(A, conj A) for kinds II/III and
    diag(P, R_theta) for kind IV (the rotation component of O(2) only), the
    element that acts by the factors of :func:`isotropy_factors`; parameter
    stacks give an element stack."""
    parts = _isotropy_parts(spec, params)
    if spec.kind != "IV":  # (U, V) of sizes (r, s), or A of size n
        for u, n, name in zip(parts, spec.shape, "UV" if spec.kind == "I" else "A"):
            _require_unitary(u, n, name)
        second = parts[1] if spec.kind == "I" else parts[0].conj()
        return AutElement(spec, _direct_sum(parts[0], second))
    p, theta = parts
    _require_unitary(p, spec.n, "P")
    if np.linalg.norm(p.imag) > 1e-10:
        raise ParameterError("kind IV isotropy needs a real orthogonal P")
    rotation = np.empty((*np.shape(theta), 2, 2))
    rotation[..., 0, 0] = rotation[..., 1, 1] = np.cos(theta)
    rotation[..., 1, 0] = np.sin(theta)
    rotation[..., 0, 1] = -rotation[..., 1, 0]
    return AutElement(spec, _direct_sum(p.real, rotation))


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


def _haar_sources(spec: DomainSpec) -> list:
    """The shapes of an isotropy's Gaussian sources, in stream order: U and V
    (kind I), A (kinds II/III) or the real P (kind IV)."""
    return [(spec.r, spec.r), (spec.s, spec.s)] if spec.kind == "I" else [(spec.n, spec.n)]


def _isotropy_count(spec: DomainSpec) -> int:
    """The number of normals of an isotropy's sources (:func:`_haar_sources`)."""
    return (1 if spec.kind == "IV" else 2) * sum(map(math.prod, _haar_sources(spec)))


def _isotropy_params(spec: DomainSpec, normals: np.ndarray, uniforms: np.ndarray):
    """The isotropy parameters of a stack of keys' first draws: the sources of
    :func:`_haar_sources` cut from the start of each key's ``normals``, one
    stacked Haar normalization each, as (U, V), A, or (P, theta) with theta
    2 pi times each key's first uniform."""
    real = spec.kind == "IV"
    params = tuple(map(haar_normalize, _cut_blocks(normals, _haar_sources(spec), real)))
    if real:
        return params[0], 2.0 * np.pi * uniforms[:, 0]
    return params if spec.kind == "I" else params[0]


def random_isotropy_stack(spec: DomainSpec, keys):
    """Random isotropy parameters, one set per RNG key, stacked component by
    component in the format accepted by :func:`isotropy`.  Each key's stream
    gives, in order, the U and V sources (kind I), the A source (kinds
    II/III), or the real P source and then the angle theta (kind IV), read
    through ``domains._first_draws`` as one block: one ``standard_normal``
    call per key, and while the run memo is open a prefix of the key stack's
    tape (kind IV: its normals and uniform).  One stacked QR normalizes each
    component (:func:`_isotropy_params`)."""
    rows = _as_key_rows(keys)
    _, normals, theta = _first_draws(rows, (_isotropy_count(spec),), uniform=spec.kind == "IV")
    return _isotropy_params(spec, normals, theta)


def _params_at(params, k: int):
    """The parameters of key ``k`` of a :func:`random_isotropy_stack` stack."""
    return tuple(x[k] for x in params) if isinstance(params, tuple) else params[k]


def random_isotropy_params(spec: DomainSpec, seed):
    """Random isotropy parameters in the format accepted by :func:`isotropy`:
    the one-key case of :func:`random_isotropy_stack`."""
    return _params_at(random_isotropy_stack(spec, [seed]), 0)


def transvection_type1(z0: Point) -> AutElement:
    """Kind I/II/III automorphism moving the origin to the interior point
    ``z0``: the block [[p, p Z0], [q Z0*, q]] with p = (I - Z0 Z0*)^{-1/2} and
    q = (I - Z0* Z0)^{-1/2}, which keeps the relations of kinds II/III since
    q = conj p when Z0^t = eps Z0.  Blows up as z0 approaches the boundary.
    """
    spec, z = z0.spec, z0.value
    if spec.kind == "IV":
        raise ShapeError("transvection_type1 is defined for kinds I, II and III only")
    if classify_points(spec, z, 1e-8)[0] != "interior":
        raise DomainError("transvection base point must be interior")
    z_star = z.conj().T
    p = psd_inv_sqrt(np.eye(len(z)) - z @ z_star)
    q = psd_inv_sqrt(np.eye(len(z_star)) - z_star @ z)
    return AutElement(spec, np.block([[p, p @ z], [q @ z_star, q]]))


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x) / x for x >= 0, with sinhc(0) = 1."""
    positive = x > 0.0
    return np.where(positive, np.sinh(x) / np.where(positive, x, 1.0), 1.0)


def expm(y: np.ndarray) -> np.ndarray:
    """exp(X) of the Hermitian generator X = [[0, Y], [Y*, 0]] of a k x m block
    Y, or of each block of a stack ``(..., k, m)``; shape ``(..., k + m, k + m)``.

    One stacked ``eigh`` gives Y*Y = V diag(s^2) V*; with W = YV and
    sinhc(x) = sinh(x) / x,

        exp(X) = [[I + W diag(sinhc(s/2)^2 / 2) W*,  W diag(sinhc s) V*],
                  [V diag(sinhc s) W*,               V diag(cosh s) V*]],

    the polar form of a transvection (Helgason 1978): cosh sqrt(YY*) is
    I + Y f(Y*Y) Y* with f(t) = (cosh sqrt(t) - 1) / t, and sinhc, cosh and f
    are entire in s^2, so a zero or repeated s (a rank-deficient Y*Y) needs
    no special case, and Y = 0 gives the identity exactly."""
    k = y.shape[-2]
    w, v = np.linalg.eigh(y.conj().swapaxes(-1, -2) @ y)
    s = np.sqrt(np.maximum(w, 0.0))[..., :, None]
    yv = y @ v
    yv_star, v_star, sinhc = yv.conj().swapaxes(-1, -2), v.conj().swapaxes(-1, -2), _sinhc(s)
    top = yv @ np.concatenate([_sinhc(s / 2.0) ** 2 / 2.0 * yv_star, sinhc * v_star], axis=-1)
    bottom = v @ np.concatenate([sinhc * yv_star, np.cosh(s) * v_star], axis=-1)
    out = np.concatenate([top, bottom], axis=-2)
    out[..., range(k), range(k)] += 1.0
    return out


def _boosts(y: np.ndarray) -> np.ndarray:
    """exp(X) for the noncompact generator X = [[0, Y], [Y*, 0]] of each
    block of the stack ``y`` (:func:`expm`), scaled to operator norm at most
    0.4 (the largest singular value of Y, from one ``eigvalsh`` of Y*Y)."""
    top = np.sqrt(np.linalg.eigvalsh(y.conj().swapaxes(-1, -2) @ y)[..., -1])
    return expm(y * (0.4 / np.maximum(1.0, top))[:, None, None])


def random_automorphisms(spec: DomainSpec, keys) -> AutElement:
    """Random group elements, one per RNG key, as an element stack of shape
    ``(len(keys), N, N)``: an isotropy, or a boost exp(X) times an isotropy
    (every element is one, G = exp(p) K).

    Each key's stream gives, in order, which of the two its element is (one
    raw word: a boost where bit 31 is clear, what ``rng.integers(2) == 0``
    reads from it), the isotropy Gaussians and then the Gaussians of Y, each
    block followed by a uniform for kind IV (the first is the isotropy's
    angle), so an element depends on its key only.  Every kind reads them
    with one ``domains._first_draws`` call, whose block sizes are the
    isotropy's and the boost's normal counts: Y is a complex Gaussian of
    the point shape, shape-projected by ``domains._gaussian_directions``
    for kinds I/II/III, or iB with B a real n x 2 Gaussian for kind IV.
    Within one ``verify.run_all`` the run memo keeps those draws, so the 8
    kind I/II/III reports read one tape of the key stack.  The matrices
    are then built as stacks: one QR per Haar factor, one ``eigvalsh`` of
    Y*Y for the boost scale and one ``eigh`` of Y*Y for :func:`expm`.
    """
    real, iso = spec.kind == "IV", _isotropy_count(spec)
    counts = (iso, 2 * spec.n if real else 2 * math.prod(spec.shape))
    words, normals, uniforms = _first_draws(_as_key_rows(keys), counts, word=True, uniform=real)
    moved = words & 0x80000000 == 0
    if real:
        y = 1j * _cut_blocks(normals[moved, iso:], [(spec.n, 2)], real=True)[0]
    else:
        y = _gaussian_directions(spec, normals[moved, iso:])
    out = isotropy(spec, _isotropy_params(spec, normals, uniforms)).matrix
    out[moved] = _boosts(y) @ out[moved]
    return AutElement(spec, out)


def random_automorphism(spec: DomainSpec, seed) -> AutElement:
    """One random group element, deterministic per seed: the one-key case of
    :func:`random_automorphisms`."""
    return AutElement(spec, random_automorphisms(spec, [seed]).matrix[0])


def automorphy_factor(e: AutElement, p: Point, q: Point):
    """Automorphy factor F_U(Z, W) of the element at a pair of points.

    Kinds I/III return 1 / (det(A+ZC) conj(det(A+WC))).  Kind II returns the
    same ratio, the factor of the squared Pfaffian norm S^2 = det(I - ZW*)
    (the factor of S needs a branch of its square root).  Kind IV returns
    the tuple of candidate values c / (lambda(Z) conj(lambda(W))) for c in
    IV_FACTOR_CANDIDATES, left to the verification harness to adjudicate.
    The shape rule is that of :func:`automorphy_denominator`.
    """
    dz, dw = automorphy_denominator(e, p), automorphy_denominator(e, q)
    if abs(dz) < 1e-14 or abs(dw) < 1e-14:
        raise ActionSingularityError("vanishing automorphy denominator")
    base = 1.0 / (dz * np.conj(dw))
    if e.spec.kind == "IV":
        return tuple(c * base for c in IV_FACTOR_CANDIDATES)
    return base


def automorphy_denominators(e: AutElement, z: np.ndarray) -> np.ndarray:
    """det(A + ZC) for kinds I/II/III, lambda(Z) for kind IV, over the point
    stack ``z`` (and the element stack, if ``e`` is one).  A stack of another
    point shape raises ``ShapeError``."""
    _require_stack(e.spec, z)
    if e.spec.kind == "IV":
        return _iv_lifted_images(e, z)[1]
    a, _, c, _ = e.blocks
    return np.linalg.det(a + z @ c)


def automorphy_denominator(e: AutElement, p: Point) -> complex:
    """det(A + ZC) for kinds I/II/III, lambda(Z) for kind IV.  An element
    stack, or a point of another domain, raises ``ShapeError``."""
    _require_element(e, p)
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
