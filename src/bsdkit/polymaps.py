"""Sparse holomorphic polynomial maps between classical domains.

A map's ``entries``, its validated constructor input and wire form, hold
for every nonzero target entry a dictionary from monomial exponent vectors
(over the independent source variables) to complex coefficients.
Independent variables are the full entry grid for kind I, the strict upper
triangle for kind II, the inclusive upper triangle for kind III, and the n
coordinates for kind IV; dependent source entries never enter a monomial,
and dependent target entries are stored as mirrors.

Evaluation, conjugation and the coefficient operators of ``invariants``
read one compiled form, built on first use and cached on the instance (so
``entries`` must never change after construction): an exponent matrix E
(monomials x source variables), a coefficient matrix C (row-major target
positions x monomials) and per-degree index arrays.  ``eval_points``
evaluates a stack of source points (leading axes, one sample per row, each
drawn from its own ``[seed, k, ...]`` RNG key by the verification harness)
as ``C @ prod(vals ** E)``; ``eval_map`` is the one-point case.
``conjugate`` turns each degree-d block into ``C_d @ P_d(S)``, S the source
isotropy on the independent variables, and applies the target isotropy as
one product over the full target grid; both isotropies act by
Z -> L Z R with the factors of ``autgroups.isotropy_factors``.

The catalog holds the proper polynomial map families used throughout:
standard block embeddings, ball Whitney and one-parameter ball families,
the generalized Whitney map, two quadratic maps between 2x2-block domains,
and the one-parameter families f_t, g_t, G_t, h_t connecting them.
"""

import inspect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .autgroups import AutElement, act, isotropy_factors
from .domains import DomainSpec, Point, parse_spec
from .errors import BsdkitError, ParameterError, ShapeError

__all__ = [
    "PolyMap",
    "polymap",
    "source_positions",
    "variable_names",
    "monomials_of_degree",
    "catalog",
    "CATALOG_IDS",
    "select_map",
    "eval_points",
    "eval_map",
    "map_constant",
    "homogeneous_parts",
    "conjugate",
    "compose_pointwise",
    "pad_map",
    "embed_map",
    "coeff_distance",
    "polymap_to_json",
    "polymap_from_json",
]


def source_positions(spec: DomainSpec) -> list:
    """Matrix positions of the independent variables of a domain: the upper
    triangle, strict when eps = ``spec.mirror`` < 0, else the full grid."""
    rows, cols = spec.shape
    eps = spec.mirror
    if not eps:
        return [(i, j) for i in range(rows) for j in range(cols)]
    return [(i, j) for i in range(rows) for j in range(i + int(eps < 0), cols)]


def variable_names(spec: DomainSpec) -> list:
    if spec.kind == "IV":
        return [f"z{j + 1}" for j in range(spec.n)]
    return [f"z{i + 1}{j + 1}" for i, j in source_positions(spec)]


@lru_cache(maxsize=None)
def _monomial_table(nvars: int, degree: int) -> tuple:
    """(monomials, rank, var, lower) of one degree.

    ``monomials`` is the fixed enumeration order and ``rank`` its inverse.
    var[beta] lists the distinct variables x_j dividing beta, smallest first,
    and lower[beta] the ranks of beta / x_j among the degree - 1 monomials,
    both padded to the degree with (0, count of degree - 1 monomials).
    """
    combos = list(combinations_with_replacement(range(nvars), degree))
    monomials = tuple(tuple(combo.count(k) for k in range(nvars)) for combo in combos)
    rank = {m: k for k, m in enumerate(monomials)}
    if degree == 0:
        return monomials, rank, None, None
    below = _monomial_table(nvars, degree - 1)[1]
    var, lower = [], []
    for m, combo in zip(monomials, combos):
        js = sorted(set(combo))
        pad = degree - len(js)
        var.append(js + [0] * pad)
        lower.append([below[m[:j] + (m[j] - 1,) + m[j + 1:]] for j in js] + [len(below)] * pad)
    return monomials, rank, np.array(var), np.array(lower)


def monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent vectors over ``nvars`` variables of total degree ``degree``,
    in a fixed deterministic order."""
    return list(_monomial_table(nvars, degree)[0])


def _power_actions(s: np.ndarray, top: int) -> list:
    """[P_0(S), ..., P_top(S)]: P_d(S)[alpha, beta] is the coefficient of x^beta
    in prod_k (S x)_k ** alpha_k.  With t = var[alpha, 0] and the parent
    alpha / x_t = lower[alpha, 0], row alpha of P_d holds
    sum_j P_{d-1}[parent, beta / x_j] S[t, j] at x^beta (``_monomial_table``)."""
    powers = [np.ones((1, 1), dtype=complex)]
    for d in range(1, top + 1):
        _, _, var, lower = _monomial_table(len(s), d)
        prev = np.hstack([powers[-1], np.zeros((len(powers[-1]), 1))])  # padding reads this zero column
        powers.append((prev[lower[:, 0]][:, lower] * s[var[:, 0]][:, var]).sum(axis=-1))
    return powers


def _independent_index(spec: DomainSpec) -> tuple:
    """(rows, cols) index arrays of the independent variables of a domain."""
    rows_cols = np.array(source_positions(spec), dtype=int).reshape(-1, 2)
    return rows_cols[:, 0], rows_cols[:, 1]


@lru_cache(maxsize=None)
def _embedding(spec: DomainSpec) -> np.ndarray:
    """B of shape ``(*spec.shape, nvars)`` with ``Z = B @ x`` for the independent
    variables x: 1 at each independent position, and eps = ``spec.mirror`` at
    its mirror.  Its column norms are the Frobenius weights of the
    independent variables."""
    rows, cols = _independent_index(spec)
    var = np.arange(len(rows))
    b = np.zeros((*spec.shape, len(var)))
    if spec.mirror:
        b[cols, rows, var] = spec.mirror
    b[rows, cols, var] = 1.0
    b.flags.writeable = False
    return b


class _CompiledMap(NamedTuple):
    source_index: tuple     # (rows, cols) of the independent source variables
    exponents: np.ndarray   # E: monomials x source variables
    coeffs: np.ndarray      # C: row-major target positions (mirrors included) x monomials
    target_rows: np.ndarray  # rows of C at the independent target positions, in order
    degrees: tuple          # per degree d: (d, its columns of C, their ranks among its monomials)
    weighted: np.ndarray    # C[target_rows] times Frobenius row and Fischer column weights


@dataclass(frozen=True)
class PolyMap:
    """Immutable-by-convention sparse polynomial map between two domains.

    ``entries`` must not be changed after construction: the compiled form
    that evaluation, conjugation and the coefficient operators read is built
    from it once and cached.
    """

    source: DomainSpec
    target: DomainSpec
    entries: dict  # (row, col) -> {exponent tuple -> complex coefficient}

    @property
    def nvars(self) -> int:
        return len(source_positions(self.source))

    @cached_property
    def _compiled(self) -> _CompiledMap:
        # A cached property, not a field: equality, repr and JSON see entries only.
        source_index = _independent_index(self.source)
        monomials = sorted({exps for terms in self.entries.values() for exps in terms})
        column = {exps: k for k, exps in enumerate(monomials)}
        rows, cols = self.target.shape
        count = len(monomials)
        coeffs = np.zeros((rows * cols, count), dtype=complex)
        np.put(coeffs, [(i * cols + j) * count + column[exps]
                        for (i, j), terms in self.entries.items() for exps in terms],
               [c for terms in self.entries.values() for c in terms.values()])
        exponents = np.array(monomials, dtype=int).reshape(count, len(source_index[0]))
        total = exponents.sum(axis=1)
        degrees = []
        for d in sorted(set(total.tolist())):
            columns = np.flatnonzero(total == d)
            rank = _monomial_table(exponents.shape[1], d)[1]
            degrees.append((d, columns, np.array([rank[monomials[k]] for k in columns])))
        target_rows = np.ravel_multi_index(_independent_index(self.target), self.target.shape)
        w_source, w_target = (np.sqrt(np.square(_embedding(spec)).sum(axis=(0, 1)))
                              for spec in (self.source, self.target))
        factorials = np.cumprod(np.maximum(np.arange(exponents.max(initial=0) + 1), 1), dtype=float)
        # column alpha: sqrt(alpha!) prod(w ** -alpha), w the Frobenius weights (column norms of B)
        fischer = np.sqrt(factorials[exponents].prod(axis=1)) * (w_source ** -exponents).prod(axis=1)
        weighted = coeffs[target_rows] * np.outer(w_target, fischer)
        return _CompiledMap(source_index, exponents, coeffs, target_rows, tuple(degrees), weighted)


def polymap(source: DomainSpec, target: DomainSpec, entries: dict) -> PolyMap:
    """Validated constructor: drops zero coefficients, derives the dependent
    mirror entries for kind II/III targets, and checks structural invariants."""
    nvars = len(source_positions(source))
    clean = {}
    for pos, terms in entries.items():
        kept = {}
        for exps, coeff in terms.items():
            c = complex(coeff)
            if c != 0:
                kept[tuple(exps)] = c
        if kept:
            clean[pos] = kept
    for exps in {exps for terms in entries.values() for exps in terms}:  # each monomial once
        if len(exps) != nvars:
            raise ShapeError(f"monomial {exps} has {len(exps)} exponents, expected {nvars}")
        if any(e < 0 for e in exps):
            raise ShapeError(f"negative exponent in monomial {exps}")
    rows, cols = target.shape
    for i, j in clean:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeError(f"entry position {(i, j)} outside target shape {(rows, cols)}")
    sign = target.mirror
    if sign:
        mirrored = {}
        for (i, j), terms in clean.items():
            if i == j and sign < 0:
                raise ShapeError(f"kind {target.kind} target must have zero diagonal")
            flipped = {e: sign * c for e, c in terms.items()}
            if i > j and clean.get((j, i), flipped) != flipped:
                raise ShapeError(f"kind {target.kind} target entries {(i, j)}/{(j, i)} are inconsistent")
            mirrored[(i, j)], mirrored[(j, i)] = terms, flipped
        clean = mirrored
    return PolyMap(source, target, clean)


def _efmt(t: float) -> float:
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"family parameter t must lie in [0, 1], got {t}")
    return float(t)


def _unit(nvars: int, *slots) -> tuple:
    exps = [0] * nvars
    for k in slots:
        exps[k] += 1
    return tuple(exps)


def _build_standard(r: int, s: int, r2: int, s2: int) -> PolyMap:
    source = DomainSpec("I", r=r, s=s)
    target = DomainSpec("I", r=r2, s=s2)
    if r2 < r or s2 < s:
        raise ParameterError("standard embedding target must contain the source block")
    nv = r * s
    entries = {(i, j): {_unit(nv, i * s + j): 1.0} for i in range(r) for j in range(s)}
    return polymap(source, target, entries)


def _build_whitney_ball(n: int) -> PolyMap:
    if n < 2:
        raise ParameterError("whitney-ball needs n >= 2")
    source = DomainSpec("I", r=1, s=n)
    target = DomainSpec("I", r=1, s=2 * n - 1)
    entries = {}
    for k in range(n - 1):
        entries[(0, k)] = {_unit(n, k): 1.0}
        entries[(0, n - 1 + k)] = {_unit(n, n - 1, k): 1.0}
    entries[(0, 2 * n - 2)] = {_unit(n, n - 1, n - 1): 1.0}
    return polymap(source, target, entries)


def _build_dangelo(n: int, theta: float) -> PolyMap:
    if n < 1:
        raise ParameterError("dangelo needs n >= 1")
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-15:
        raise ParameterError(f"theta must lie in [0, pi/2], got {theta}")
    source = DomainSpec("I", r=1, s=n)
    target = DomainSpec("I", r=1, s=2 * n)
    entries = {}
    for k in range(n - 1):
        entries[(0, k)] = {_unit(n, k): 1.0}
    entries[(0, n - 1)] = {_unit(n, n - 1): math.cos(theta)}
    for k in range(n):
        entries[(0, n + k)] = {_unit(n, k, n - 1): math.sin(theta)}
    return polymap(source, target, entries)


def _build_gen_whitney(r: int, s: int) -> PolyMap:
    source = DomainSpec("I", r=r, s=s)
    target = DomainSpec("I", r=2 * r - 1, s=2 * s - 1)
    nv = r * s

    def var(i, j):
        return i * s + j

    entries = {}
    for i in range(r):
        for j in range(s):
            entries[(i, j)] = {_unit(nv, var(i, 0), var(0, j)): 1.0}
        for j in range(1, s):
            entries[(i, s - 1 + j)] = {_unit(nv, var(i, j)): 1.0}
    for k in range(1, r):
        for j in range(s):
            entries[(r - 1 + k, j)] = {_unit(nv, var(k, j)): 1.0}
    return polymap(source, target, entries)


def _build_f_sec4() -> PolyMap:
    """The quadratic map of I:2,2 into I:3,3, which is gen-whitney(2, 2)."""
    return _build_gen_whitney(2, 2)


def _build_g_sec4() -> PolyMap:
    source = DomainSpec("I", r=2, s=2)
    target = DomainSpec("I", r=3, s=3)
    rt2 = math.sqrt(2.0)
    entries = {
        (0, 0): {_unit(4, 0, 0): 1.0},
        (0, 1): {_unit(4, 0, 1): rt2},
        (0, 2): {_unit(4, 1, 1): 1.0},
        (1, 0): {_unit(4, 0, 2): rt2},
        (1, 1): {_unit(4, 0, 3): 1.0, _unit(4, 1, 2): 1.0},
        (1, 2): {_unit(4, 1, 3): rt2},
        (2, 0): {_unit(4, 2, 2): 1.0},
        (2, 1): {_unit(4, 2, 3): rt2},
        (2, 2): {_unit(4, 3, 3): 1.0},
    }
    return polymap(source, target, entries)


def _build_f_t(t: float) -> PolyMap:
    t = _efmt(t)
    source = DomainSpec("I", r=2, s=2)
    target = DomainSpec("I", r=4, s=4)
    entries = {
        (0, 0): {_unit(4, 0, 0): 1.0},
        (0, 1): {_unit(4, 0, 1): math.sqrt(2.0 - t)},
        (0, 2): {_unit(4, 1, 1): math.sqrt(1.0 - t)},
        (0, 3): {_unit(4, 1): math.sqrt(t)},
        (1, 0): {_unit(4, 0, 2): math.sqrt(2.0 - t)},
        (1, 1): {_unit(4, 0, 3): 2.0 * (1.0 - t) / (2.0 - t), _unit(4, 1, 2): 1.0},
        (1, 2): {_unit(4, 1, 3): 2.0 * math.sqrt((1.0 - t) / (2.0 - t))},
        (1, 3): {_unit(4, 3): math.sqrt(t / (2.0 - t))},
        (2, 0): {_unit(4, 2, 2): math.sqrt(1.0 - t)},
        (2, 1): {_unit(4, 2, 3): 2.0 * math.sqrt((1.0 - t) / (2.0 - t))},
        (2, 2): {_unit(4, 3, 3): 1.0},
        (3, 0): {_unit(4, 2): math.sqrt(t)},
        (3, 1): {_unit(4, 3): math.sqrt(t / (2.0 - t))},
    }
    return polymap(source, target, entries)


def _build_G_t(r: int, s: int, t: float) -> PolyMap:
    t = _efmt(t)
    source = DomainSpec("I", r=r, s=s)
    target = DomainSpec("I", r=2 * r - 1, s=2 * s)
    nv = r * s
    rt, rmt = math.sqrt(t), math.sqrt(1.0 - t)

    def var(i, j):
        return i * s + j

    entries = {}
    for i in range(r):
        for j in range(s):
            entries[(i, j)] = {_unit(nv, var(i, 0), var(0, j)): rt}
        entries[(i, s)] = {_unit(nv, var(i, 0)): rmt}
        for j in range(1, s):
            entries[(i, s + j)] = {_unit(nv, var(i, j)): 1.0}
    for k in range(1, r):
        for j in range(s):
            entries[(r - 1 + k, j)] = {_unit(nv, var(k, j)): 1.0}
    return polymap(source, target, entries)


def _build_g_t(t: float) -> PolyMap:
    """The family of I:2,2 into I:3,4, which is G_t(2, 2, t)."""
    return _build_G_t(2, 2, t)


def _build_h_t(t: float) -> PolyMap:
    t = _efmt(t)
    source = DomainSpec("III", n=2)
    target = DomainSpec("III", n=4)
    # variables z1, z2, z3 = upper-triangle entries (1,1), (1,2), (2,2)
    entries = {
        (0, 0): {_unit(3, 0, 0): 1.0},
        (0, 1): {_unit(3, 0, 1): math.sqrt(2.0 - t)},
        (0, 2): {_unit(3, 1, 1): math.sqrt(1.0 - t)},
        (0, 3): {_unit(3, 1): math.sqrt(t)},
        (1, 1): {_unit(3, 0, 2): 2.0 * (1.0 - t) / (2.0 - t), _unit(3, 1, 1): 1.0},
        (1, 2): {_unit(3, 1, 2): 2.0 * math.sqrt((1.0 - t) / (2.0 - t))},
        (1, 3): {_unit(3, 2): math.sqrt(t / (2.0 - t))},
        (2, 2): {_unit(3, 2, 2): 1.0},
    }
    return polymap(source, target, entries)


_BUILDERS = {
    "standard": _build_standard,
    "whitney-ball": _build_whitney_ball,
    "dangelo": _build_dangelo,
    "gen-whitney": _build_gen_whitney,
    "f-sec4": _build_f_sec4,
    "g-sec4": _build_g_sec4,
    "f_t": _build_f_t,
    "g_t": _build_g_t,
    "G_t": _build_G_t,
    "h_t": _build_h_t,
}
CATALOG_IDS = tuple(_BUILDERS)


def _builder(map_id: str) -> tuple:
    """(catalog id, builder) for an id, accepting ``_`` for ``-`` (``gen_whitney``)."""
    key = map_id if map_id in _BUILDERS else map_id.replace("_", "-")
    if key not in _BUILDERS:
        raise ParameterError(f"unknown catalog map id {map_id!r}")
    return key, _BUILDERS[key]


def catalog(map_id: str, **params) -> PolyMap:
    """Construct a catalog map by id, passing the keyword parameters of its
    ``_build_*`` function, e.g. ``catalog("G_t", r=2, s=3, t=0.5)``."""
    _, builder = _builder(map_id)
    try:
        return builder(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for catalog map {map_id!r}: {exc}") from None


def select_map(selector: str, dims=None, **flags) -> PolyMap:
    """Construct a catalog map from a selector ``name[:v1,v2,...]``.

    The builder's signature gives the parameter names and their int/float
    types.  ``dims`` fills the integer parameters in order, a flag such as
    ``t`` or ``theta`` fills the parameter of that name (flags that are None
    or name a parameter the map does not take are ignored), and the
    selector's values fill the remaining parameters in signature order, so
    ``dangelo:2,0.5``, ``dangelo:0.5`` with ``dims=(2,)`` and ``dangelo:2``
    with ``theta=0.5`` are the same map.
    """
    name, _, text = selector.partition(":")
    key, builder = _builder(name)
    params = inspect.signature(builder).parameters
    ints = [p for p, v in params.items() if v.annotation is int]
    hints = [f"--{p}" for p, v in params.items() if v.annotation is float]
    if ints:
        hints.insert(0, "a dimension" if len(ints) == 1 else f"--dims {','.join(ints)}")
    needs = f"{key} needs {' and '.join(hints)}"
    values = {p: v for p, v in flags.items() if p in params and v is not None}
    if dims is not None:
        if len(dims) != len(ints):
            raise ParameterError(f"{key} takes {len(ints)} dimensions, got {len(dims)} in --dims")
        values.update(zip(ints, dims))
    rest = [p for p in params if p not in values]
    given = text.split(",") if text else []
    if len(given) > len(rest):
        raise ParameterError(f"map selector {selector!r} has more values than {key} takes")
    for p, v in zip(rest, given):
        try:
            values[p] = params[p].annotation(v)
        except ValueError:
            msg = f"malformed {p} {v!r} in map selector {selector!r}; {needs}"
            raise ParameterError(msg) from None
    if len(values) < len(params):
        raise ParameterError(needs)
    return builder(**values)


def eval_points(f: PolyMap, z: np.ndarray) -> np.ndarray:
    """Evaluate the map on the source point stack ``z`` (shape
    ``(..., *f.source.shape)``) through its compiled form,
    ``C @ prod(vals ** E)`` per point (built on the first call and cached);
    returns the target stack."""
    c = f._compiled
    vals = z[(..., *c.source_index)]
    image = np.prod(vals[..., None, :] ** c.exponents, axis=-1) @ c.coeffs.T
    return image.reshape(z.shape[:-2] + f.target.shape)


def eval_map(f: PolyMap, p: Point) -> Point:
    """Evaluate at one point (see :func:`eval_points`); returns a target point."""
    if p.spec != f.source:
        raise ShapeError(f"point of {p.spec} fed to map from {f.source}")
    return Point(f.target, eval_points(f, p.value))


def map_constant(f: PolyMap) -> np.ndarray:
    """The value f(0), the degree-0 coefficients."""
    return eval_points(f, np.zeros(f.source.shape, dtype=complex))


def homogeneous_parts(f: PolyMap) -> dict:
    """Split into homogeneous pieces: degree -> PolyMap.  Parts sum to f."""
    parts = {}
    for pos, terms in f.entries.items():
        for exps, coeff in terms.items():
            d = sum(exps)
            parts.setdefault(d, {}).setdefault(pos, {})[exps] = coeff
    return {d: PolyMap(f.source, f.target, entries) for d, entries in sorted(parts.items())}


def _one_isotropy(spec: DomainSpec, params) -> tuple:
    left, right = isotropy_factors(spec, params)
    if left.ndim != 2 or right.ndim != 2:
        raise ShapeError(f"expected the parameters of one isotropy of {spec}, got a stack")
    return left, right


def conjugate(f: PolyMap, pre_params, post_params) -> PolyMap:
    """Conjugate by origin isotropies: the polynomial map Z -> L' f(L Z R) R'.

    (L, R) are ``autgroups.isotropy_factors`` of the source isotropy
    parameters ``pre_params`` and (L', R') those of the target parameters
    ``post_params`` (see the table in the ``autgroups`` docstring), for all
    four kinds.  Preserves degree profile and the origin; parameter stacks
    raise ``ShapeError``.
    """
    left, right = _one_isotropy(f.source, pre_params)
    c = f._compiled
    s = np.einsum("ia,abv,bj->ijv", left, _embedding(f.source), right)[c.source_index]
    left, right = _one_isotropy(f.target, post_params)
    image = np.einsum("ia,abm,bj->ijm", left, c.coeffs.reshape(*f.target.shape, -1), right)
    image = image.reshape(len(c.coeffs), -1)[c.target_rows]
    powers = _power_actions(s, max((d for d, _, _ in c.degrees), default=0))
    entries = {pos: {} for pos in source_positions(f.target)}
    for d, columns, ranks in c.degrees:
        monomials = _monomial_table(f.nvars, d)[0]
        block = np.zeros((len(entries), len(monomials)), dtype=complex)
        block[:, ranks] = image[:, columns]
        for terms, row in zip(entries.values(), (block @ powers[d]).tolist()):
            terms.update(zip(monomials, row))
    return polymap(f.source, f.target, entries)


def compose_pointwise(f: PolyMap, pre: AutElement, post: AutElement):
    """Pointwise evaluator Z -> act(post, f(act(pre, Z))).

    General automorphisms make the composite rational, so no PolyMap is
    produced; action singularities propagate.
    """
    if pre.spec != f.source:
        raise ShapeError(f"pre-automorphism of {pre.spec} does not match source {f.source}")
    if post.spec != f.target:
        raise ShapeError(f"post-automorphism of {post.spec} does not match target {f.target}")

    def composite(p: Point) -> Point:
        return act(post, eval_map(f, act(pre, p)))

    return composite


def pad_map(f: PolyMap, target: DomainSpec) -> PolyMap:
    """Embed into a larger target by placing the image in the top-left block."""
    rows, cols = f.target.shape
    return embed_map(f, target, list(range(rows)), list(range(cols)))


def embed_map(f: PolyMap, target: DomainSpec, rows: list, cols: list) -> PolyMap:
    """Embed into a larger target along explicit row/column positions."""
    if target.kind != f.target.kind:
        raise ShapeError(f"cannot embed a {f.target.kind}-target map into {target}")
    if target.mirror and list(rows) != list(cols):
        raise ShapeError("embedding a symmetric-kind target needs matching row/col positions")
    entries = {}
    for (i, j), terms in f.entries.items():
        entries[(rows[i], cols[j])] = dict(terms)
    return polymap(f.source, target, entries)


def coeff_distance(f: PolyMap, g: PolyMap) -> float:
    """Max absolute coefficient difference after aligning entries and monomials."""
    if f.source != g.source or f.target != g.target:
        raise ShapeError("coefficient distance needs identical source and target specs")
    worst = 0.0
    for pos in set(f.entries) | set(g.entries):
        ft = f.entries.get(pos, {})
        gt = g.entries.get(pos, {})
        for exps in set(ft) | set(gt):
            worst = max(worst, abs(ft.get(exps, 0j) - gt.get(exps, 0j)))
    return worst


def polymap_to_json(f: PolyMap) -> dict:
    """Wire format with 1-based entry positions and named exponents."""
    names = variable_names(f.source)
    entries = []
    for i, j in sorted(f.entries):
        terms = []
        for exps in sorted(f.entries[(i, j)]):
            coeff = f.entries[(i, j)][exps]
            terms.append({
                "exps": {names[k]: e for k, e in enumerate(exps) if e},
                "re": float(coeff.real),
                "im": float(coeff.imag),
            })
        entries.append({"row": i + 1, "col": j + 1, "terms": terms})
    return {"source": str(f.source), "target": str(f.target), "entries": entries}


def polymap_from_json(data: dict) -> PolyMap:
    """Inverse of :func:`polymap_to_json`; a missing key or a non-numeric or
    non-finite value raises ``ParameterError``, an unknown variable ``ShapeError``."""
    try:
        source = parse_spec(data["source"])
        target = parse_spec(data["target"])
        index = {name: k for k, name in enumerate(variable_names(source))}
        entries = {}
        for item in data["entries"]:
            terms = entries[(int(item["row"]) - 1, int(item["col"]) - 1)] = {}
            for term in item["terms"]:
                exps = [0] * len(index)
                for name, e in term["exps"].items():
                    if name not in index:
                        raise ShapeError(f"unknown variable {name!r} for source {source}")
                    exps[index[name]] = int(e)
                c = terms[tuple(exps)] = complex(term["re"], term.get("im", 0.0))
                if not np.isfinite(c):
                    raise ParameterError(f"non-finite coefficient {c} in map data")
    except BsdkitError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"malformed map data: {exc!r}") from None
    return polymap(source, target, entries)
