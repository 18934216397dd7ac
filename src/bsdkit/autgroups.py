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

Defining relations checked for membership:

* kind I   -- M diag(-I_r, I_s) M* = diag(-I_r, I_s)
* kind II  -- the kind I relation (r=s=n) and M^t [[0,I],[I,0]] M = [[0,I],[I,0]]
* kind III -- the kind I relation (r=s=n) and M^t [[0,I],[-I,0]] M = [[0,I],[-I,0]]
* kind IV  -- M^t M = I and M diag(-I_n, I_2) M* = diag(-I_n, I_2)
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .domains import (DomainSpec, Point, borel_lifts, check_shapes, classify_point, parse_spec,
                      sample_point)
from .errors import ActionSingularityError, DomainError, ParameterError, ShapeError
from .linalg import as_matrix, hybrid_tol, psd_inv_sqrt, random_orthogonal, random_unitary

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
    "random_isotropy_params",
    "transvection_type1",
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
    if e.spec.kind == "II":
        k = np.block([[np.zeros((e.spec.n, e.spec.n)), np.eye(e.spec.n)],
                      [np.eye(e.spec.n), np.zeros((e.spec.n, e.spec.n))]])
        residuals["bilinear"] = float(np.linalg.norm(m.T @ k @ m - k))
    elif e.spec.kind == "III":
        k = np.block([[np.zeros((e.spec.n, e.spec.n)), np.eye(e.spec.n)],
                      [-np.eye(e.spec.n), np.zeros((e.spec.n, e.spec.n))]])
        residuals["bilinear"] = float(np.linalg.norm(m.T @ k @ m - k))
    elif e.spec.kind == "IV":
        residuals["orthogonal"] = float(np.linalg.norm(m.T @ m - np.eye(n)))
    worst = max(residuals.values())
    scale = float(np.linalg.norm(m, 2)) ** 2
    return MembershipReport(residuals, worst, tol, worst <= hybrid_tol(tol, scale))


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


def isotropy(spec: DomainSpec, params) -> AutElement:
    """Isotropy element at the origin from its parameters.

    * kind I: params = (U, V) with U in U(r), V in U(s); the element is
      diag(U, V) acting by Z -> U^{-1} Z V.
    * kinds II/III: params = A in U(n); the element is diag(A, conj(A))
      acting by Z -> A* Z conj(A).
    * kind IV: params = (P, theta) with P in O(n) real and a rotation angle;
      the element is diag(P, R_theta).  Only the rotation component of O(2)
      is constructed.
    """
    if spec.kind == "I":
        u, v = (as_matrix(x) for x in params)
        _require_unitary(u, spec.r, "U")
        _require_unitary(v, spec.s, "V")
        m = _direct_sum(u, v)
    elif spec.kind in ("II", "III"):
        a = as_matrix(params)
        _require_unitary(a, spec.n, "A")
        m = _direct_sum(a, a.conj())
    else:
        p, theta = params
        p = as_matrix(p)
        _require_unitary(p, spec.n, "P")
        if np.linalg.norm(p.imag) > 1e-10:
            raise ParameterError("kind IV isotropy needs a real orthogonal P")
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        m = _direct_sum(p.real, rot)
    return AutElement(spec, m)


def _require_unitary(u: np.ndarray, n: int, name: str, tol: float = 1e-10):
    if u.shape != (n, n):
        raise ParameterError(f"{name} must be {n}x{n}, got {u.shape}")
    if np.linalg.norm(u @ u.conj().T - np.eye(n)) > tol:
        raise ParameterError(f"{name} is not unitary within {tol}")


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[:a.shape[0], :a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def random_isotropy_params(spec: DomainSpec, seed):
    """Random isotropy parameters in the format accepted by :func:`isotropy`."""
    rng = np.random.default_rng(seed)
    if spec.kind == "I":
        return (random_unitary(spec.r, rng), random_unitary(spec.s, rng))
    if spec.kind in ("II", "III"):
        return random_unitary(spec.n, rng)
    return (random_orthogonal(spec.n, rng), float(rng.uniform(0.0, 2.0 * np.pi)))


def transvection_type1(z0: Point) -> AutElement:
    """Kind I automorphism moving the origin to the interior point ``z0``.

    Built from the inverse square roots of I - Z0 Z0* and I - Z0* Z0; blows
    up as z0 approaches the boundary.
    """
    if z0.spec.kind != "I":
        raise ShapeError("transvection_type1 is defined for kind I only")
    if classify_point(z0, 1e-8).region != "interior":
        raise DomainError("transvection base point must be interior")
    z = z0.value
    p = psd_inv_sqrt(np.eye(z0.spec.r) - z @ z.conj().T)
    q = psd_inv_sqrt(np.eye(z0.spec.s) - z.conj().T @ z)
    m = np.block([[p, p @ z], [q @ z.conj().T, q]])
    return AutElement(z0.spec, m)


def _random_algebra_element(spec: DomainSpec, rng, strength: float = 0.4) -> np.ndarray:
    """Random element of the Lie algebra of the defining relations."""

    def skew_hermitian(n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (g - g.conj().T) / 2.0

    if spec.kind == "I":
        r, s = spec.r, spec.s
        y = rng.standard_normal((r, s)) + 1j * rng.standard_normal((r, s))
        x = np.block([[skew_hermitian(r), y], [y.conj().T, skew_hermitian(s)]])
    elif spec.kind in ("II", "III"):
        n = spec.n
        s_blk = skew_hermitian(n)
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = (y - y.T) / 2.0 if spec.kind == "II" else (y + y.T) / 2.0
        x = np.block([[s_blk, y], [y.conj().T, s_blk.conj()]])
    else:
        n = spec.n
        r1 = rng.standard_normal((n, n))
        r1 = r1 - r1.T
        r2 = rng.standard_normal((2, 2))
        r2 = r2 - r2.T
        b = rng.standard_normal((n, 2))
        x = np.block([[r1.astype(complex), 1j * b], [-1j * b.T, r2.astype(complex)]])
    return x * (strength / max(1.0, np.linalg.norm(x, 2)))


def random_automorphism(spec: DomainSpec, seed, flavor: str = "mixed") -> AutElement:
    """Random group element: an isotropy, a one-parameter exponential, a
    transvection (kind I), or a product of those, deterministic per seed."""
    rng = np.random.default_rng(seed)
    choices = {"isotropy", "exponential"}
    if spec.kind == "I":
        choices.add("transvection")
    if flavor == "mixed":
        flavor = sorted(choices)[rng.integers(len(choices))]
    if flavor not in choices:
        raise ParameterError(f"unknown automorphism flavor {flavor!r} for {spec}")
    iso = isotropy(spec, random_isotropy_params(spec, rng))
    if flavor == "isotropy":
        return iso
    if flavor == "transvection":
        z0 = sample_point(spec, "interior", rng)
        return product(transvection_type1(z0), iso)
    exp = AutElement(spec, expm(_random_algebra_element(spec, rng)))
    return product(exp, iso)


def automorphy_factor(e: AutElement, p: Point, q: Point):
    """Automorphy factor F_U(Z, W) of the element at a pair of points.

    Kinds I/III return 1 / (det(A+ZC) conj(det(A+WC))).  Kind II returns the
    same ratio, which is the SQUARE of its automorphy factor (the square
    root has a branch ambiguity).  Kind IV returns the tuple of candidate
    values c / (lambda(Z) conj(lambda(W))) for c in IV_FACTOR_CANDIDATES,
    left to the verification harness to adjudicate.
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
    spec = parse_spec(data["spec"])
    n = matrix_size(spec)
    flat = np.array([complex(re, im) for re, im in data["matrix"]])
    if flat.size != n * n:
        raise ShapeError(f"matrix for {spec} must have {n * n} entries, got {flat.size}")
    return AutElement(spec, flat.reshape(n, n))
