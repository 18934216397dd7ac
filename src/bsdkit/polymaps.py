"""Sparse holomorphic polynomial maps between classical domains.

A ``PolyMap`` is its arrays, stored read-only: an exponent matrix E (one
row per monomial over the independent source variables), a coefficient
matrix C (row-major target positions, mirrors included, x monomials) and
per-degree index arrays.  Independent variables are the full entry grid
for kind I, the strict upper triangle for kind II, the inclusive upper
triangle for kind III, and the n coordinates for kind IV; dependent source
entries never enter a monomial, and each mirror row of C is eps times its
row.  ``polymap`` validates dict input and converts it once; ``entries``
is a read-only mapping of the nonzero coefficients derived from the arrays.

``eval_points`` evaluates a stack of source points (leading axes, one
sample per row, each drawn from its own ``[seed, k, ...]`` RNG key by the
verification harness) as ``C @ prod(vals ** E)``; ``eval_map`` is the
one-point case.  ``_conjugations`` conjugates a stack of isotropies at
once: it turns each degree-d block into ``C_d @ P_d(S)``, S the source
isotropy on the independent variables, with one ``P_d(S)`` stack per
degree, and applies the target isotropy over the full target grid as two
contractions, L' then R'; both isotropies act by Z -> L Z R with the
factors of ``autgroups.isotropy_factors``.  ``conjugate`` is its one-trial
case and builds its result from arrays.

The catalog holds the proper polynomial map families used throughout:
standard block embeddings, ball Whitney and one-parameter ball families,
the generalized Whitney map, two quadratic maps between 2x2-block domains,
and the one-parameter families f_t, g_t, G_t, h_t connecting them.
"""

import cmath
import inspect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .autgroups import isotropy_factors
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
    """[P_0(S), ..., P_top(S)] over the leading stack axes of S, if any:
    P_d(S)[alpha, beta] is the coefficient of x^beta in
    prod_k (S x)_k ** alpha_k.  With t = var[alpha, 0] and the parent
    alpha / x_t = lower[alpha, 0], row alpha of P_d holds
    sum_j P_{d-1}[parent, beta / x_j] S[t, j] at x^beta (``_monomial_table``)."""
    powers = [np.ones((*s.shape[:-2], 1, 1), dtype=complex)]
    for d in range(1, top + 1):
        _, _, var, lower = _monomial_table(s.shape[-1], d)
        prev = powers[-1]
        prev = np.concatenate([prev, np.zeros((*prev.shape[:-1], 1))], axis=-1)  # padding reads this zero column
        powers.append((prev[..., lower[:, 0], :][..., lower] * s[..., var[:, 0], :][..., var]).sum(axis=-1))
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


@lru_cache(maxsize=1024)
def _monomial_index(nvars: int, monomials: tuple) -> tuple:
    """(E, degrees) of a monomial list, shared by the maps that have it: E
    with one row per monomial, and per degree d the columns of its
    monomials and their ranks among ``monomials_of_degree``."""
    total = [sum(exps) for exps in monomials]
    degrees = []
    for d in sorted(set(total)):
        rank, columns = _monomial_table(nvars, d)[1], [k for k, t in enumerate(total) if t == d]
        degrees.append((d, np.array(columns), np.array([rank[monomials[k]] for k in columns])))
    return np.array(monomials, dtype=int).reshape(len(monomials), nvars), tuple(degrees)


@dataclass(frozen=True, eq=False)
class PolyMap:
    """Polynomial map between two domains, stored as read-only arrays (see
    the module docstring); equality compares the ``entries`` view."""

    source: DomainSpec
    target: DomainSpec
    exponents: np.ndarray  # E: one distinct monomial per row x source variables
    coeffs: np.ndarray     # C: row-major target positions (mirrors included) x monomials
    degrees: tuple         # per degree d: (d, its columns of C, their ranks among its monomials)

    def __post_init__(self):
        self.exponents.flags.writeable = False
        self.coeffs.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (self.source, self.target, self.entries) == (other.source, other.target, other.entries)

    @property
    def nvars(self) -> int:
        return self.exponents.shape[1]

    @cached_property
    def entries(self) -> MappingProxyType:
        """(row, col) -> {exponent tuple -> complex coefficient}, nonzero only,
        read-only at both levels, so the arrays stay the map's only state."""
        monomials, out = list(map(tuple, self.exponents.tolist())), {}
        for r, k in np.argwhere(self.coeffs).tolist():
            out.setdefault(divmod(r, self.target.shape[1]), {})[monomials[k]] = self.coeffs.item(r, k)
        return MappingProxyType({pos: MappingProxyType(terms) for pos, terms in out.items()})

    @cached_property
    def weighted(self) -> np.ndarray:
        """C at the independent target positions times the Frobenius row and
        Fischer column weights (the operators of ``invariants``)."""
        return _weighted(self.source, self.target, self.exponents, self.coeffs)


def _weighted(source: DomainSpec, target: DomainSpec, exponents: np.ndarray,
              coeffs: np.ndarray) -> np.ndarray:
    """``PolyMap.weighted`` of the coefficient matrix ``coeffs``, with its
    leading stack axes, if any."""
    w_source, w_target = (np.sqrt(np.square(_embedding(spec)).sum(axis=(0, 1)))
                          for spec in (source, target))
    e = exponents
    factorials = np.cumprod(np.maximum(np.arange(e.max(initial=0) + 1), 1), dtype=float)
    # column alpha: sqrt(alpha!) prod(w ** -alpha), w the Frobenius weights (column norms of B)
    fischer = np.sqrt(factorials[e].prod(axis=1)) * (w_source ** -e).prod(axis=1)
    grid = coeffs.reshape(*coeffs.shape[:-2], *target.shape, len(e))
    return grid[(..., *_independent_index(target), slice(None))] * np.outer(w_target, fischer)


def polymap(source: DomainSpec, target: DomainSpec, entries: dict) -> PolyMap:
    """Validated constructor for dict input: drops zero coefficients, rejects
    non-finite ones, derives the dependent mirror entries for kind II/III
    targets, checks structural invariants, and converts to the arrays once."""
    nvars, (rows, cols) = len(source_positions(source)), target.shape
    clean = {}
    for (i, j), terms in entries.items():
        for exps, coeff in terms.items():
            exps, c = tuple(exps), complex(coeff)
            if len(exps) != nvars:
                raise ShapeError(f"monomial {exps} has {len(exps)} exponents, expected {nvars}")
            if min(exps, default=0) < 0:
                raise ShapeError(f"negative exponent in monomial {exps}")
            if c == 0:
                continue
            if not cmath.isfinite(c):
                raise ParameterError(f"non-finite coefficient {c} in map data")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeError(f"entry position {(i, j)} outside target shape {(rows, cols)}")
            clean.setdefault((i, j), {})[exps] = c
    sign = target.mirror
    if sign:
        for (i, j), terms in list(clean.items()):
            if i == j and sign < 0:
                raise ShapeError(f"kind {target.kind} target must have zero diagonal")
            flipped = {e: sign * c for e, c in terms.items()}
            if clean.setdefault((j, i), flipped) != flipped:
                raise ShapeError(f"kind {target.kind} target entries {(i, j)}/{(j, i)} are inconsistent")
    monomials = sorted({exps for terms in clean.values() for exps in terms})
    column, count = dict(zip(monomials, range(len(monomials)))), len(monomials)
    coeffs = np.zeros((rows * cols, count), dtype=complex)
    coeffs.put([(i * cols + j) * count + column[exps]
                for (i, j), terms in clean.items() for exps in terms],
               [c for terms in clean.values() for c in terms.values()])
    exponents, degrees = _monomial_index(nvars, tuple(monomials))
    return PolyMap(source, target, exponents, coeffs, degrees)


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


@lru_cache(maxsize=None)
def _builder(map_id: str) -> tuple:
    """(catalog id, builder, its parameters) for an id, accepting ``_`` for ``-``."""
    key = map_id if map_id in _BUILDERS else map_id.replace("_", "-")
    if key not in _BUILDERS:
        raise ParameterError(f"unknown catalog map id {map_id!r}")
    return key, _BUILDERS[key], inspect.signature(_BUILDERS[key]).parameters


def catalog(map_id: str, **params) -> PolyMap:
    """Construct a catalog map by id, passing the keyword parameters of its
    ``_build_*`` function, e.g. ``catalog("G_t", r=2, s=3, t=0.5)``."""
    _, builder, _ = _builder(map_id)
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
    key, builder, params = _builder(name)
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


def _monomial_values(spec: DomainSpec, z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """prod(vals ** E) per point of the stack ``z`` (shape ``(..., *spec.shape)``)
    and row of E = ``exponents``, vals the independent entries of the point;
    returns shape ``(..., len(E))``."""
    vals = z[(..., *_independent_index(spec))]
    return np.prod(vals[..., None, :] ** exponents, axis=-1)


def eval_points(f: PolyMap, z: np.ndarray) -> np.ndarray:
    """Evaluate the map on the source point stack ``z`` (shape
    ``(..., *f.source.shape)``) as ``C @ prod(vals ** E)`` per point, vals
    the independent source entries; returns the target stack."""
    image = _monomial_values(f.source, z, f.exponents) @ f.coeffs.T
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
    """Split into homogeneous pieces by slicing columns: degree -> PolyMap.  Parts sum to f."""
    return {d: PolyMap(f.source, f.target, f.exponents[columns], f.coeffs[:, columns],
                       ((d, np.arange(len(columns)), ranks),))
            for d, columns, ranks in f.degrees}


def conjugate(f: PolyMap, pre_params, post_params) -> PolyMap:
    """Conjugate by origin isotropies: the polynomial map Z -> L' f(L Z R) R'.

    (L, R) are ``autgroups.isotropy_factors`` of the source isotropy
    parameters ``pre_params`` and (L', R') those of the target parameters
    ``post_params`` (see the table in the ``autgroups`` docstring), for all
    four kinds.  Preserves degree profile and the origin; parameter stacks
    raise ``ShapeError``.  The one-trial case of ``_conjugations``.
    """
    factors = isotropy_factors(f.source, pre_params), isotropy_factors(f.target, post_params)
    if any(m.ndim != 2 for pair in factors for m in pair):
        raise ShapeError("expected the parameters of one source and one target isotropy, got a stack")
    exponents, coeffs, degrees = _conjugations(f, *([m[None] for m in pair] for pair in factors))
    return PolyMap(f.source, f.target, exponents, coeffs[0], degrees)


def _sandwich(left, right, grid):
    """L G[..., m] R for every trial of the stacks (L, R) and every slice m of
    ``grid``, as L's contraction and then R's: two contractions cost far
    fewer operations than one three-operand ``einsum``, which loops over all
    five indices at once."""
    return np.einsum("tibm,tbj->tijm", np.einsum("tia,abm->tibm", left, grid), right)


def _conjugations(f: PolyMap, source_factors, target_factors) -> tuple:
    """(E, C, degrees) of the conjugates Z -> L' f(L Z R) R' of f over a trial
    stack: (L, R) and (L', R') are ``autgroups.isotropy_factors`` with one
    leading trial axis, C holds one coefficient matrix per trial, and E and
    degrees list every monomial of each degree of f.  Each degree-d block
    becomes ``C_d @ P_d(S)``, S the source isotropy on the independent
    variables, and the target isotropy acts on the full coefficient grid;
    both sides go through ``_sandwich``."""
    s = _sandwich(*source_factors, _embedding(f.source))
    s = s[(slice(None), *_independent_index(f.source))]
    grid = f.coeffs.reshape(*f.target.shape, len(f.exponents))
    image = _sandwich(*target_factors, grid)[(slice(None), *_independent_index(f.target))]
    powers = _power_actions(s, max((d for d, _, _ in f.degrees), default=0))
    monomials = sum((_monomial_table(f.nvars, d)[0] for d, _, _ in f.degrees), ())
    exponents, degrees = _monomial_index(f.nvars, monomials)
    independent = np.zeros((*image.shape[:2], len(exponents)), dtype=complex)
    for (d, columns, ranks), (_, out, _) in zip(f.degrees, degrees):
        block = np.zeros((*image.shape[:2], len(out)), dtype=complex)
        block[..., ranks] = image[..., columns]
        independent[..., out] = block @ powers[d]
    # C = B X: B has one entry 0 or +-1 per row, so each mirror row is exactly eps times its row
    return exponents, _embedding(f.target).reshape(-1, independent.shape[1]) @ independent, degrees


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


def _aligned_coeffs(f: PolyMap, g: PolyMap) -> tuple:
    """(monomials, F, G): the union of both maps' monomials (sorted, or the one
    list both maps share) and each map's full-grid coefficient matrix over it."""
    if f.source != g.source or f.target != g.target:
        raise ShapeError("coefficient comparison needs identical source and target specs")
    own = [list(map(tuple, m.exponents.tolist())) for m in (f, g)]
    if own[0] == own[1]:
        return own[0], f.coeffs, g.coeffs
    monomials = sorted({*own[0], *own[1]})
    column = dict(zip(monomials, range(len(monomials))))
    aligned = np.zeros((2, len(f.coeffs), len(monomials)), dtype=complex)
    for a, m, exps in zip(aligned, (f, g), own):
        a[:, [column[e] for e in exps]] = m.coeffs
    return monomials, *aligned


def coeff_distance(f: PolyMap, g: PolyMap) -> float:
    """Max absolute coefficient difference after aligning entries and monomials."""
    _, a, b = _aligned_coeffs(f, g)
    return float(np.abs(a - b).max(initial=0.0))


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
                terms[tuple(exps)] = complex(term["re"], term.get("im", 0.0))
    except BsdkitError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"malformed map data: {exc!r}") from None
    return polymap(source, target, entries)
