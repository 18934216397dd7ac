"""Sparse holomorphic polynomial maps between classical domains.

A ``PolyMap`` is its arrays, stored read-only: an exponent matrix E (one
row per monomial over the independent source variables), a coefficient
matrix C (row-major target positions, mirrors included, x monomials) and
per-degree index arrays.  Independent variables are the full entry grid
for kind I, the strict upper triangle for kind II, the inclusive upper
triangle for kind III, and the n coordinates for kind IV; dependent source
entries never enter a monomial, and each mirror row of C is eps times its
row.  ``_coordinates`` is each domain's one table of them: their positions
and their Frobenius weights; ``_embedding`` builds the embedding B with
Z = B x from it, only for the code that reads B.  ``polymap``
validates dict input and converts it once; ``entries`` is a read-only
mapping of the nonzero coefficients derived from the arrays.

``eval_points`` evaluates a stack of source points (leading axes, one
sample per row, each drawn from its own ``[seed, k, ...]`` RNG key by the
verification harness) as ``C @ prod(vals ** E)``, with each variable's
powers built once per stack by running products (``_monomial_values``);
``eval_map`` is the one-point case.  ``_conjugations`` conjugates a stack
of isotropies at once: it turns each degree-d block into ``C_d @ P_d(S)``,
S the source isotropy on the independent variables, with one ``P_d(S)``
stack per degree, and applies the target isotropy over the full target
grid as two contractions, L' then R'; both isotropies act by Z -> L Z R
with the factors of ``autgroups.isotropy_factors``.  ``conjugate`` is its
one-trial case and builds its result from arrays.

The catalog holds the proper polynomial map families used throughout:
standard block embeddings, the D'Angelo ball family, the ball and
generalized Whitney maps, two quadratic maps between 2x2-block domains,
and the one-parameter families f_t, g_t, G_t, h_t connecting them.  Each
catalog builder gives its map's table (source, target, entries), which
``polymap`` converts.  Four coefficient tables build them all: the
standard, D'Angelo, G_t and f_t tables, and six entries are special cases
of these.  The G_t and f_t tables, and h_t's from f_t's, take a float or
an array of t, so ``verify.check_family_continuity`` reads a family on its
whole grid from one table evaluation, with no map built.  Both Whitney maps are
family endpoints with their zero column dropped: the ball map is the
D'Angelo map (z', cos theta z_n, sin theta z_n z) at theta = pi/2 (built
with cos and sin exactly 0 and 1), and the generalized map is G_t at
t = 1, whose column s + 1 holds sqrt(1 - t) z_i1 = 0.  f-sec4 is
gen-whitney(2, 2) and g_t is G_t(2, 2, t).  g-sec4 is f_t at t = 0, whose
fourth row and column are zero, into I:3,3, and h_t is f_t on the
symmetric source z21 = z12, into III:4.
"""

import cmath
import inspect
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from .autgroups import isotropy_factors
from .domains import MAX_OPERATOR_ENTRIES, DomainSpec, Point, _require_stack, parse_spec
from .errors import BsdkitError, NumericError, ParameterError, ShapeError

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
    rows, cols, _ = _coordinates(spec)
    return list(zip(rows.tolist(), cols.tolist()))


@lru_cache(maxsize=None)
def _coordinates(spec: DomainSpec) -> tuple:
    """(rows, cols, w) of the independent variables x of a domain, all
    read-only: their positions (see ``source_positions``) and w, the column
    norms of the embedding ``_embedding(spec)``: the Frobenius weights,
    sqrt(2) off the diagonal for kinds II/III, else 1."""
    eps = spec.mirror
    rows, cols = (np.triu_indices(spec.shape[0], int(eps < 0)) if eps
                  else np.indices(spec.shape).reshape(2, -1))
    w = np.sqrt(1.0 + eps * eps * (rows != cols))
    for a in (rows, cols, w):
        a.flags.writeable = False
    return rows, cols, w


@lru_cache(maxsize=None)
def _embedding(spec: DomainSpec) -> np.ndarray:
    """B of shape ``(*spec.shape, nvars)`` with ``Z = B @ x`` for the
    independent variables x of ``_coordinates``: 1 at each independent
    position and eps = ``spec.mirror`` at its mirror; read-only.  It has
    ``nvars`` times the carrier's entries (134 MB for I:64,64), so it is
    built only for its readers, ``_conjugations`` and
    ``verify.check_factorization``, never for a position list."""
    rows, cols, _ = _coordinates(spec)
    var = np.arange(len(rows))
    b = np.zeros((*spec.shape, len(var)))
    if spec.mirror:
        b[cols, rows, var] = spec.mirror
    b[rows, cols, var] = 1.0
    b.flags.writeable = False
    return b


def variable_names(spec: DomainSpec) -> list:
    if spec.kind == "IV":
        return [f"z{j + 1}" for j in range(spec.n)]
    return [f"z{i + 1}{j + 1}" for i, j in source_positions(spec)]


@lru_cache(maxsize=None)
def _monomial_table(nvars: int, degree: int) -> tuple:
    """(monomials, rank) of one degree: the fixed enumeration order and its
    inverse."""
    monomials = tuple(tuple(combo.count(k) for k in range(nvars))
                      for combo in combinations_with_replacement(range(nvars), degree))
    return monomials, {m: k for k, m in enumerate(monomials)}


@lru_cache(maxsize=None)
def _power_table(nvars: int, degree: int) -> tuple:
    """(var, lower) of one degree >= 1: var[beta] lists the distinct variables
    x_j dividing beta, smallest first, and lower[beta] the ranks of beta / x_j
    among the degree - 1 monomials, both padded to the degree with (0, count
    of degree - 1 monomials)."""
    below = _monomial_table(nvars, degree - 1)[1]
    var, lower = [], []
    for m in _monomial_table(nvars, degree)[0]:
        js = [j for j, e in enumerate(m) if e]
        pad = degree - len(js)
        var.append(js + [0] * pad)
        lower.append([below[m[:j] + (m[j] - 1,) + m[j + 1:]] for j in js] + [len(below)] * pad)
    return np.array(var), np.array(lower)


def monomials_of_degree(nvars: int, degree: int) -> list:
    """All exponent vectors over ``nvars`` variables of total degree ``degree``,
    in a fixed deterministic order."""
    return list(_monomial_table(nvars, degree)[0])


def _power_actions(s: np.ndarray, top: int) -> list:
    """[P_0(S), ..., P_top(S)] over the leading stack axes of S, if any:
    P_d(S)[alpha, beta] is the coefficient of x^beta in
    prod_k (S x)_k ** alpha_k.  With t = var[alpha, 0] and the parent
    alpha / x_t = lower[alpha, 0], row alpha of P_d holds
    sum_j P_{d-1}[parent, beta / x_j] S[t, j] at x^beta (``_power_table``)."""
    powers = [np.ones((*s.shape[:-2], 1, 1), dtype=complex)]
    for d in range(1, top + 1):
        var, lower = _power_table(s.shape[-1], d)
        prev = powers[-1]
        prev = np.concatenate([prev, np.zeros((*prev.shape[:-1], 1))], axis=-1)  # padding reads this zero column
        powers.append((prev[..., lower[:, 0], :][..., lower] * s[..., var[:, 0], :][..., var]).sum(axis=-1))
    return powers


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
    leading stack axes, if any.  Weighted coefficients past float64 (the
    factorial of a degree above 170 is) raise ``NumericError``."""
    rows, cols, w_target = _coordinates(target)
    e = exponents
    with np.errstate(over="ignore", invalid="ignore"):
        factorials = np.cumprod(np.maximum(np.arange(e.max(initial=0) + 1), 1), dtype=float)
        # column alpha: sqrt(alpha!) prod(w ** -alpha), w the Frobenius weights
        fischer = np.sqrt(factorials[e].prod(axis=1)) * (_coordinates(source)[2] ** -e).prod(axis=1)
        grid = coeffs.reshape(*coeffs.shape[:-2], *target.shape, len(e))
        weighted = grid[..., rows, cols, :] * np.outer(w_target, fischer)
    if not np.isfinite(weighted).all():
        raise NumericError(f"weighted operators of a map of {source} into {target} exceed "
                           f"float64 (its monomials reach degree {e.sum(axis=1).max()})")
    return weighted


def polymap(source: DomainSpec, target: DomainSpec, entries: dict) -> PolyMap:
    """Validated constructor for dict input: takes positions and exponents
    through ``operator.index`` (a non-integer raises ``ParameterError``),
    checks every position against the target shape whatever its terms,
    drops zero coefficients, rejects non-finite ones, derives the dependent
    mirror entries for kind II/III targets, checks structural invariants, and
    converts to the arrays once.
    A map whose operators exceed ``domains.MAX_OPERATOR_ENTRIES`` raises
    ``ParameterError`` before its monomials are enumerated."""
    nvars, (rows, cols) = len(_coordinates(source)[0]), target.shape
    clean = {}
    for pos, terms in entries.items():
        try:
            i, j = map(operator.index, pos)
        except (TypeError, ValueError):
            raise ParameterError(f"non-integer entry position {pos!r}: expected two integers") from None
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeError(f"entry position {(i, j)} outside target shape {(rows, cols)} "
                             f"(1-based: row {i + 1}, col {j + 1})")
        for exps, coeff in terms.items():
            try:
                exps = tuple(map(operator.index, exps))
            except TypeError:
                raise ParameterError(f"non-integer exponents {exps!r}") from None
            c = complex(coeff)
            if len(exps) != nvars:
                raise ShapeError(f"monomial {exps} has {len(exps)} exponents, expected {nvars}")
            if min(exps, default=0) < 0:
                raise ShapeError(f"negative exponent in monomial {exps}")
            if c == 0:
                continue
            if not cmath.isfinite(c):
                raise ParameterError(f"non-finite coefficient {c} in map data")
            clean.setdefault((i, j), {})[exps] = c
    top = max((sum(e) for terms in clean.values() for e in terms), default=0)
    if len(_coordinates(target)[0]) * math.comb(nvars + top, top) > MAX_OPERATOR_ENTRIES:
        raise ParameterError(f"map of {source} into {target} is too large: its operators up to "
                             f"its degree exceed {MAX_OPERATOR_ENTRIES} entries")
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


def _efmt(t):
    """t as a float in [0, 1], or an array of t as a float array of points in
    [0, 1]; the first point outside, NaN included, raises ``ParameterError``."""
    for point in t if np.ndim(t) else [t]:
        if not 0.0 <= point <= 1.0:
            raise ParameterError(f"family parameter t must lie in [0, 1], got {point}")
    return np.asarray(t, dtype=float) if np.ndim(t) else float(t)


def _unit(nvars: int, *slots) -> tuple:
    exps = [0] * nvars
    for k in slots:
        exps[k] += 1
    return tuple(exps)


def _build_standard(r: int, s: int, r2: int, s2: int) -> tuple:
    source = DomainSpec("I", r=r, s=s)
    target = DomainSpec("I", r=r2, s=s2)
    if r2 < r or s2 < s:
        raise ParameterError("standard embedding target must contain the source block")
    nv = r * s
    entries = {(i, j): {_unit(nv, i * s + j): 1.0} for i in range(r) for j in range(s)}
    return source, target, entries


def _ball_entries(n: int, cos: float, sin: float) -> dict:
    """Entries of the D'Angelo map (z', cos z_n, sin z_n z) of I:1,n into I:1,2n."""
    entries = {(0, k): {_unit(n, k): 1.0} for k in range(n - 1)}
    entries[(0, n - 1)] = {_unit(n, n - 1): cos}
    entries.update({(0, n + k): {_unit(n, k, n - 1): sin} for k in range(n)})
    return entries


def _block_entries(r: int, s: int, t) -> dict:
    """Entries of G_t of I:r,s into I:2r-1,2s (1-based): sqrt(t) z_i1 z_1j at
    (i, j), sqrt(1 - t) z_i1 at (i, s + 1), and z_ij at (i, s + j) for j > 1
    and at (r + i - 1, j) for i > 1; t is a float or an array of t, as in
    ``_f_t_entries``."""
    nv, rt, rmt = r * s, np.sqrt(t), np.sqrt(1.0 - t)
    entries = {}
    for i in range(r):
        entries[(i, s)] = {_unit(nv, i * s): rmt}
        for j in range(s):
            entries[(i, j)] = {_unit(nv, i * s, j): rt}
            if j:
                entries[(i, s + j)] = {_unit(nv, i * s + j): 1.0}
            if i:
                entries[(r - 1 + i, j)] = {_unit(nv, i * s + j): 1.0}
    return entries


def _without_column(entries: dict, col: int) -> dict:
    """``entries`` with column ``col`` dropped and the later columns moved left."""
    return {(i, j - (j > col)): terms for (i, j), terms in entries.items() if j != col}


def _build_whitney_ball(n: int) -> tuple:
    """The D'Angelo map at theta = pi/2 without its zero column (index n - 1)."""
    if n < 2:
        raise ParameterError("whitney-ball needs n >= 2")
    source = DomainSpec("I", r=1, s=n)
    target = DomainSpec("I", r=1, s=2 * n - 1)
    return source, target, _without_column(_ball_entries(n, 0.0, 1.0), n - 1)


def _build_dangelo(n: int, theta: float) -> tuple:
    if n < 1:
        raise ParameterError("dangelo needs n >= 1")
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-15:
        raise ParameterError(f"theta must lie in [0, pi/2], got {theta}")
    source = DomainSpec("I", r=1, s=n)
    target = DomainSpec("I", r=1, s=2 * n)
    return source, target, _ball_entries(n, math.cos(theta), math.sin(theta))


def _build_gen_whitney(r: int, s: int) -> tuple:
    """G_t at t = 1 without its zero column (index s)."""
    source = DomainSpec("I", r=r, s=s)
    target = DomainSpec("I", r=2 * r - 1, s=2 * s - 1)
    return source, target, _without_column(_block_entries(r, s, 1.0), s)


def _f_t_entries(t) -> dict:
    """Entries of Seo's f_t of I:2,2 into I:4,4, variables (z11, z12, z21, z22);
    at t = 0 its fourth row and column are zero.  t is a float or an array of
    t, and each coefficient that depends on t is then an array over it."""
    rt, r1, r2 = np.sqrt(t), np.sqrt(1.0 - t), np.sqrt(2.0 - t)
    mixed, corner = 2.0 * np.sqrt((1.0 - t) / (2.0 - t)), np.sqrt(t / (2.0 - t))
    return {
        (0, 0): {_unit(4, 0, 0): 1.0},
        (0, 1): {_unit(4, 0, 1): r2},
        (0, 2): {_unit(4, 1, 1): r1},
        (0, 3): {_unit(4, 1): rt},
        (1, 0): {_unit(4, 0, 2): r2},
        (1, 1): {_unit(4, 0, 3): 2.0 * (1.0 - t) / (2.0 - t), _unit(4, 1, 2): 1.0},
        (1, 2): {_unit(4, 1, 3): mixed},
        (1, 3): {_unit(4, 3): corner},
        (2, 0): {_unit(4, 2, 2): r1},
        (2, 1): {_unit(4, 2, 3): mixed},
        (2, 2): {_unit(4, 3, 3): 1.0},
        (3, 0): {_unit(4, 2): rt},
        (3, 1): {_unit(4, 3): corner},
    }


def _build_g_sec4() -> tuple:
    """f_t at t = 0 into I:3,3, without its zero fourth row and column."""
    entries = {(i, j): terms for (i, j), terms in _f_t_entries(0.0).items() if 3 not in (i, j)}
    return DomainSpec("I", r=2, s=2), DomainSpec("I", r=3, s=3), entries


def _build_f_t(t: float) -> tuple:
    return DomainSpec("I", r=2, s=2), DomainSpec("I", r=4, s=4), _f_t_entries(_efmt(t))


def _build_G_t(r: int, s: int, t: float) -> tuple:
    t = _efmt(t)
    source = DomainSpec("I", r=r, s=s)
    target = DomainSpec("I", r=2 * r - 1, s=2 * s)
    return source, target, _block_entries(r, s, t)


def _build_h_t(t: float) -> tuple:
    """f_t on the symmetric source z21 = z12, variables (z11, z12, z22), into
    III:4; no entry of f_t has two terms that meet there."""
    entries = {pos: {(a, b + c, d): coeff for (a, b, c, d), coeff in terms.items()}
               for pos, terms in _f_t_entries(_efmt(t)).items()}
    return DomainSpec("III", n=2), DomainSpec("III", n=4), entries


# Each builder gives the table (source, target, entries) that ``polymap`` turns into its map.
_BUILDERS = {
    "standard": _build_standard,
    "whitney-ball": _build_whitney_ball,
    "dangelo": _build_dangelo,
    "gen-whitney": _build_gen_whitney,
    "f-sec4": partial(_build_gen_whitney, 2, 2),
    "g-sec4": _build_g_sec4,
    "f_t": _build_f_t,
    "g_t": partial(_build_G_t, 2, 2),
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
        return polymap(*builder(**params))
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
    return polymap(*_selected_table(selector, dims, **flags))


def _selected_table(selector: str, dims=None, **flags) -> tuple:
    """The table (source, target, entries) of the map ``select_map`` builds,
    with its grammar and its errors: the one place a selector, or a family
    id with its dims, meets its builder.  A family's flag ``t`` may also be
    an array of t, which gives each coefficient that depends on t as an
    array over it (see ``_f_t_entries``)."""
    name, _, text = selector.partition(":")
    key, builder, params = _builder(name)
    ints = [p for p, v in params.items() if v.annotation is int]
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
            msg = f"malformed {p} {v!r} in map selector {selector!r}; {_needs(key, params)}"
            raise ParameterError(msg) from None
    if len(values) < len(params):
        raise ParameterError(_needs(key, params))
    return builder(**values)


def _needs(key: str, params) -> str:
    """The error text that names what a selector of ``key`` must give, e.g.
    ``G_t needs --dims r,s and --t``; formatted only for an error."""
    ints = [p for p, v in params.items() if v.annotation is int]
    hints = [f"--{p}" for p, v in params.items() if v.annotation is float]
    if ints:
        hints.insert(0, "a dimension" if len(ints) == 1 else f"--dims {','.join(ints)}")
    return f"{key} needs {' and '.join(hints)}"


def _monomial_values(spec: DomainSpec, z: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """prod(vals ** E) per point of the stack ``z`` (shape ``(..., *spec.shape)``)
    and row of E = ``exponents``, vals the independent entries of the point;
    returns shape ``(..., len(E))``.  The powers 1, x_j, x_j^2, ... of every
    variable up to the largest exponent in E are one table over the stack,
    filled by running products, and each monomial gathers its factors from
    it, so x^0 = 1 also at x = 0.  A map whose largest exponent is at least
    its monomial count (a sparse high-degree map such as z^2000) takes each
    distinct exponent e by repeated squaring instead, one squaring per bit
    of the largest, so no table outgrows the factors it feeds.  That rounds
    about e times the unit roundoff off (running products: about sqrt(e)
    times), where NumPy's complex ``**`` goes through exp and log from
    e = 100 on and is several times further off."""
    rows, cols, _ = _coordinates(spec)
    vals = z[..., rows, cols]
    top = exponents.max(initial=0)
    if top >= len(exponents):
        distinct, index = np.unique(exponents, return_inverse=True)
        powers = np.ones((*vals.shape, len(distinct)), dtype=complex)
        square = vals
        for bit in range(int(top).bit_length()):
            if bit:
                square = square * square
            odd = (distinct >> bit) & 1 == 1
            powers[..., odd] *= square[..., None]
        return powers[..., np.arange(len(rows)), index.reshape(exponents.shape)].prod(axis=-1)
    powers = np.ones((*vals.shape[:-1], top + 1, len(rows)), dtype=complex)
    for p in range(1, top + 1):
        np.multiply(powers[..., p - 1, :], vals, out=powers[..., p, :])
    return powers[..., exponents, np.arange(len(rows))].prod(axis=-1)


def eval_points(f: PolyMap, z: np.ndarray) -> np.ndarray:
    """Evaluate the map on the source point stack ``z`` (shape
    ``(..., *f.source.shape)``) as ``C @ prod(vals ** E)`` per point, vals
    the independent source entries; returns the target stack."""
    _require_stack(f.source, z)
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
    rows, cols, _ = _coordinates(f.source)
    s = _sandwich(*source_factors, _embedding(f.source))[:, rows, cols]
    rows, cols, _ = _coordinates(f.target)
    grid = f.coeffs.reshape(*f.target.shape, len(f.exponents))
    image = _sandwich(*target_factors, grid)[:, rows, cols]
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
    """Embed into a larger target along explicit row/column positions: one
    distinct position per row and per column of the map's target."""
    rows, cols = list(rows), list(cols)
    if target.kind != f.target.kind:
        raise ShapeError(f"cannot embed a {f.target.kind}-target map into {target}")
    if target.mirror and rows != cols:
        raise ShapeError("embedding a symmetric-kind target needs matching row/col positions")
    if (len(set(rows)), len(set(cols)), len(rows), len(cols)) != 2 * f.target.shape:
        raise ShapeError(f"embedding {f.target} needs {f.target.shape[0]} distinct rows and "
                         f"{f.target.shape[1]} distinct columns, got {rows} and {cols}")
    entries = {(rows[i], cols[j]): dict(terms) for (i, j), terms in f.entries.items()}
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
    """Inverse of :func:`polymap_to_json`; a missing key, a non-numeric or
    non-finite value, a row, column or exponent that is not an integer
    (``polymap``'s rule), or a second entry at one position or a second term
    with the same exponents in one entry raises ``ParameterError``, an
    unknown variable, a negative exponent or a position outside the target
    ``ShapeError``; the errors of a position, of an exponent and of a second
    entry or term name the 1-based row and column as written."""
    try:
        source = parse_spec(data["source"])
        target = parse_spec(data["target"])
        index = {name: k for k, name in enumerate(variable_names(source))}
        entries = {}
        for item in data["entries"]:
            row, col = item["row"], item["col"]
            where = f"(row {row!r}, col {col!r})"
            try:
                pos = operator.index(row) - 1, operator.index(col) - 1
            except TypeError:
                raise ParameterError(f"non-integer entry position {where}") from None
            if pos in entries:
                raise ParameterError(f"duplicate entry at {where}")
            terms = entries[pos] = {}
            for term in item["terms"]:
                exps = [0] * len(index)
                for name, e in term["exps"].items():
                    if name not in index:
                        raise ShapeError(f"unknown variable {name!r} for source {source}")
                    try:
                        e = operator.index(e)
                    except TypeError:
                        raise ParameterError(f"non-integer exponent {e!r} of {name} "
                                             f"in the entry at {where}") from None
                    if e < 0:
                        raise ShapeError(f"negative exponent {e} of {name} in the entry at {where}")
                    exps[index[name]] = e
                if tuple(exps) in terms:
                    raise ParameterError(f"duplicate term {term['exps']!r} in the entry at {where}")
                terms[tuple(exps)] = complex(term["re"], term.get("im", 0.0))
    except BsdkitError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParameterError(f"malformed map data: {exc!r}") from None
    return polymap(source, target, entries)
