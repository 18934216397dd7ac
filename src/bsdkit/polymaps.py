"""Sparse holomorphic polynomial maps between classical domains.

A map stores, for every nonzero target entry, a dictionary from monomial
exponent vectors (over the independent source variables) to complex
coefficients.  Independent variables are the full entry grid for kind I,
the strict upper triangle for kind II, the inclusive upper triangle for
kind III, and the n coordinates for kind IV; dependent source entries never
enter a monomial, and dependent target entries are stored as mirrors.

Evaluation uses a compiled form of the map: the source and target index
arrays, an exponent matrix E (monomials x source variables) and a
coefficient matrix C (target entries x monomials), so that the image
entries are ``C @ prod(vals ** E)``.  It is built lazily, on a map's first
evaluation, and cached on the instance; this relies on ``entries`` never
being changed after construction.  ``eval_points`` evaluates a stack of
source points (leading axes, one sample per row, each drawn from its own
``[seed, k, ...]`` RNG key by the verification harness) in one call;
``eval_map`` is the same kernel on one point.

The catalog holds the proper polynomial map families used throughout:
standard block embeddings, ball Whitney and one-parameter ball families,
the generalized Whitney map, two quadratic maps between 2x2-block domains,
and the one-parameter families f_t, g_t, G_t, h_t connecting them.
"""

import inspect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .autgroups import AutElement, act
from .domains import DomainSpec, Point, parse_spec
from .errors import ParameterError, ShapeError

__all__ = [
    "PolyMap",
    "polymap",
    "source_positions",
    "variable_names",
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
    """Matrix positions of the independent variables of a domain."""
    if spec.kind == "I":
        return [(i, j) for i in range(spec.r) for j in range(spec.s)]
    if spec.kind == "II":
        return [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
    if spec.kind == "III":
        return [(i, j) for i in range(spec.n) for j in range(i, spec.n)]
    return [(0, j) for j in range(spec.n)]


def variable_names(spec: DomainSpec) -> list:
    if spec.kind == "IV":
        return [f"z{j + 1}" for j in range(spec.n)]
    return [f"z{i + 1}{j + 1}" for i, j in source_positions(spec)]


class _CompiledMap(NamedTuple):
    source_index: tuple     # (rows, cols) of the independent source variables
    exponents: np.ndarray   # E: monomials x source variables
    coeffs: np.ndarray      # C: target entries x monomials
    target_index: tuple     # (rows, cols) of the stored target entries


def _index_arrays(positions) -> tuple:
    rows_cols = np.array(positions, dtype=int).reshape(-1, 2)
    return rows_cols[:, 0], rows_cols[:, 1]


@dataclass(frozen=True)
class PolyMap:
    """Immutable-by-convention sparse polynomial map between two domains.

    ``entries`` must not be changed after construction: the compiled form
    that :func:`eval_map` uses is built from it once and cached.
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
        monomials = sorted({exps for terms in self.entries.values() for exps in terms})
        column = {exps: k for k, exps in enumerate(monomials)}
        coeffs = np.zeros((len(self.entries), len(monomials)), dtype=complex)
        for row, terms in enumerate(self.entries.values()):
            for exps, coeff in terms.items():
                coeffs[row, column[exps]] = coeff
        exponents = np.array(monomials, dtype=int).reshape(len(monomials), self.nvars)
        return _CompiledMap(_index_arrays(source_positions(self.source)), exponents, coeffs,
                            _index_arrays(list(self.entries)))


def polymap(source: DomainSpec, target: DomainSpec, entries: dict) -> PolyMap:
    """Validated constructor: drops zero coefficients, derives the dependent
    mirror entries for kind II/III targets, and checks structural invariants."""
    nvars = len(source_positions(source))
    clean = {}
    for pos, terms in entries.items():
        kept = {}
        for exps, coeff in terms.items():
            if len(exps) != nvars:
                raise ShapeError(f"monomial {exps} has {len(exps)} exponents, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ShapeError(f"negative exponent in monomial {exps}")
            c = complex(coeff)
            if c != 0:
                kept[tuple(exps)] = c
        if kept:
            clean[pos] = kept
    rows, cols = target.shape
    for i, j in clean:
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeError(f"entry position {(i, j)} outside target shape {(rows, cols)}")
    if target.kind in ("II", "III"):
        sign = -1.0 if target.kind == "II" else 1.0
        mirrored = {}
        for (i, j), terms in clean.items():
            if i == j and target.kind == "II":
                raise ShapeError("kind II target must have zero diagonal")
            if i <= j:
                mirrored[(i, j)] = terms
                if i != j:
                    mirrored[(j, i)] = {e: sign * c for e, c in terms.items()}
        for (i, j), terms in clean.items():
            if i > j:
                expect = {e: sign * c for e, c in clean.get((j, i), {}).items()}
                if (j, i) not in clean:
                    mirrored[(j, i)] = {e: sign * c for e, c in terms.items()}
                    mirrored[(i, j)] = terms
                elif expect != terms:
                    raise ShapeError(f"kind {target.kind} target entries {(i, j)}/{(j, i)} are inconsistent")
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
    source = DomainSpec("I", r=2, s=2)
    target = DomainSpec("I", r=3, s=3)
    # variables z1..z4 = row-major entries of the 2x2 source
    entries = {
        (0, 0): {_unit(4, 0, 0): 1.0},
        (0, 1): {_unit(4, 0, 1): 1.0},
        (0, 2): {_unit(4, 1): 1.0},
        (1, 0): {_unit(4, 0, 2): 1.0},
        (1, 1): {_unit(4, 1, 2): 1.0},
        (1, 2): {_unit(4, 3): 1.0},
        (2, 0): {_unit(4, 2): 1.0},
        (2, 1): {_unit(4, 3): 1.0},
    }
    return polymap(source, target, entries)


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


def _build_g_t(t: float) -> PolyMap:
    t = _efmt(t)
    source = DomainSpec("I", r=2, s=2)
    target = DomainSpec("I", r=3, s=4)
    rt, rmt = math.sqrt(t), math.sqrt(1.0 - t)
    entries = {
        (0, 0): {_unit(4, 0, 0): rt},
        (0, 1): {_unit(4, 0, 1): rt},
        (0, 2): {_unit(4, 0): rmt},
        (0, 3): {_unit(4, 1): 1.0},
        (1, 0): {_unit(4, 0, 2): rt},
        (1, 1): {_unit(4, 1, 2): rt},
        (1, 2): {_unit(4, 2): rmt},
        (1, 3): {_unit(4, 3): 1.0},
        (2, 0): {_unit(4, 2): 1.0},
        (2, 1): {_unit(4, 3): 1.0},
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
    out = np.zeros(z.shape[:-2] + f.target.shape, dtype=complex)
    out[(..., *c.target_index)] = np.prod(vals[..., None, :] ** c.exponents, axis=-1) @ c.coeffs.T
    return out


def eval_map(f: PolyMap, p: Point) -> Point:
    """Evaluate at one point (see :func:`eval_points`); returns a target point."""
    if p.spec != f.source:
        raise ShapeError(f"point of {p.spec} fed to map from {f.source}")
    return Point(f.target, eval_points(f, p.value))


def map_constant(f: PolyMap) -> np.ndarray:
    """The value f(0), read off the degree-0 coefficients."""
    zero = tuple([0] * f.nvars)
    out = np.zeros(f.target.shape, dtype=complex)
    for (i, j), terms in f.entries.items():
        out[i, j] = terms.get(zero, 0j)
    return out


def homogeneous_parts(f: PolyMap) -> dict:
    """Split into homogeneous pieces: degree -> PolyMap.  Parts sum to f."""
    parts = {}
    for pos, terms in f.entries.items():
        for exps, coeff in terms.items():
            d = sum(exps)
            parts.setdefault(d, {}).setdefault(pos, {})[exps] = coeff
    return {d: PolyMap(f.source, f.target, entries) for d, entries in sorted(parts.items())}


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0j) + ca * cb
    return out


def _substitute(terms: dict, linear_forms: list, nvars: int) -> dict:
    """Substitute degree-1 polynomials for each variable of a polynomial."""
    result = {}
    for exps, coeff in terms.items():
        prod = {tuple([0] * nvars): 1.0 + 0j}
        for var, e in enumerate(exps):
            for _ in range(e):
                prod = _poly_mul(prod, linear_forms[var])
        for ev, cv in prod.items():
            result[ev] = result.get(ev, 0j) + coeff * cv
    return result


def _isotropy_matrices(spec: DomainSpec, params):
    """(L, R) such that the origin-fixing action is Z -> L Z R."""
    if spec.kind == "I":
        u, v = params
        return np.asarray(u, dtype=complex).conj().T, np.asarray(v, dtype=complex)
    if spec.kind in ("II", "III"):
        a = np.asarray(params, dtype=complex)
        return a.conj().T, a.conj()
    raise ShapeError("linear isotropy action is implemented for kinds I/II/III only")


def _substitution_forms(spec: DomainSpec, params) -> list:
    """Degree-1 polynomials expressing sigma(Z) entries over the independent variables."""
    left, right = _isotropy_matrices(spec, params)
    positions = source_positions(spec)
    var_of = {pos: k for k, pos in enumerate(positions)}
    nvars = len(positions)
    forms = []
    for i, j in positions:
        form = {}

        def add(a, b, coeff):
            if coeff == 0:
                return
            key = _unit(nvars, var_of[(a, b)])
            form[key] = form.get(key, 0j) + coeff

        for a in range(spec.shape[0]):
            for b in range(spec.shape[1]):
                coeff = left[i, a] * right[b, j]
                if spec.kind == "II":
                    if a < b:
                        add(a, b, coeff)
                    elif a > b:
                        add(b, a, -coeff)
                elif spec.kind == "III":
                    if a <= b:
                        add(a, b, coeff)
                    else:
                        add(b, a, coeff)
                else:
                    add(a, b, coeff)
        forms.append(form)
    return forms


def conjugate(f: PolyMap, pre_params, post_params) -> PolyMap:
    """Conjugate by origin isotropies: the polynomial map Z -> L f(sigma(Z)) M.

    ``pre_params`` are source isotropy parameters (sigma is the linear action
    Z -> U^{-1} Z V for kind I, Z -> A* Z conj(A) for kinds II/III), and
    ``post_params`` are target isotropy parameters applied the same way to
    the image.  Preserves degree profile and the origin.
    """
    if f.source.kind == "IV" or f.target.kind == "IV":
        raise ShapeError("conjugation by isotropies is implemented for kinds I/II/III only")
    forms = _substitution_forms(f.source, pre_params)
    nvars = f.nvars
    substituted = {pos: _substitute(terms, forms, nvars) for pos, terms in f.entries.items()}
    left, right = _isotropy_matrices(f.target, post_params)
    rows, cols = f.target.shape
    out_positions = (
        [(i, j) for i in range(rows) for j in range(i, cols)]
        if f.target.kind in ("II", "III")
        else [(i, j) for i in range(rows) for j in range(cols)]
    )
    entries = {}
    for i, j in out_positions:
        acc = {}
        for (k, l), poly in substituted.items():
            w = left[i, k] * right[l, j]
            if w == 0:
                continue
            for exps, coeff in poly.items():
                acc[exps] = acc.get(exps, 0j) + w * coeff
        if acc:
            entries[(i, j)] = acc
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
    if target.kind in ("II", "III") and list(rows) != list(cols):
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
    source = parse_spec(data["source"])
    target = parse_spec(data["target"])
    names = variable_names(source)
    index = {name: k for k, name in enumerate(names)}
    nvars = len(names)
    entries = {}
    for item in data["entries"]:
        pos = (int(item["row"]) - 1, int(item["col"]) - 1)
        terms = {}
        for term in item["terms"]:
            exps = [0] * nvars
            for name, e in term["exps"].items():
                if name not in index:
                    raise ShapeError(f"unknown variable {name!r} for source {source}")
                exps[index[name]] = int(e)
            terms[tuple(exps)] = complex(term["re"], term.get("im", 0.0))
        entries[pos] = terms
    return polymap(source, target, entries)
