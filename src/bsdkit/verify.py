"""Numerical verification harness.

Every check draws its randomness from substreams keyed by (seed, sample
index), so a report is a pure function of its arguments.  Every check hands
its full residual array to one builder, ``_report``, which is the one place
the pass rule is written: ``max_residual`` is the largest residual (0.0 for
none), and a report passes exactly when it is at most its tolerance.  The
one exception is kind IV of ``check_F_U_lemma``, which also fails when more
than one candidate constant fits, whatever its residual.

The factorization check draws no random pairs to find its coefficients:
the norm ratio is a polynomial of bounded degree, so its exact coefficients
are one 2-D DFT of its values on all pairs of a rank-1 (Korobov) lattice
(Kaemmerer, SIAM J. Numer. Anal. 51, 2013), and the norms of those pairs
are Gram products of ``domains.norm_features``.  Only its held-out residual
is sampled.

The sampling checks (properness, factorization's held-out pairs, F_U,
composition and the coefficient lemma) draw all samples of a report as one
stack and push it through the stacked kernels of ``domains``, ``polymaps``
and ``autgroups`` (arrays with a leading sample axis) in one call each.
Every sample still has its own RNG key, ``[seed, k, ...]``, and a rejected
sample is redrawn from its own key's stream only, through
``domains._redraw``, so a sample is the same whatever else is in its
stack.  The random automorphisms of the F_U check come the same way, as one
element stack from ``autgroups.random_automorphisms``, and the isotropy
check draws every trial's parameters as one stack from
``autgroups.random_isotropy_stack``, conjugates the whole stack at once
(``polymaps._conjugations``) and takes its spectra with one SVD per degree.
Keys are flat rows (``[seed, stream, k, 2a]``), ``uint32`` arrays where
every entry fits; ``SeedSequence`` flattens a nested key to the same words,
so a row gives the same stream as the nested key ``[[[seed, stream], k],
2a]``.  The samplers seed a whole ``uint32`` key array at once through
``domains.key_generators``, each row bit for bit as ``default_rng(row)``; a
seed of 2**32 or more keeps ``object`` rows, which go through
``default_rng`` one at a time.  Each key then draws a group of Gaussians
(a sample's direction, an element's isotropy or Lie algebra sources) in one
``standard_normal`` call through ``linalg.gaussian_blocks``, bit for bit the
draws of one call per real and imaginary block.  A negative seed raises
``ParameterError``.

Within one ``run_all`` each key stack is sampled once: ``domains`` keeps a
sample memo open while the checks run, and a later check that asks for the
same spec, region and ``uint32`` key stack gets the same points, read-only.
This is exact, since a stack is a pure function of its spec, region and
keys; ``object`` rows are sampled on every call.
"""

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .autgroups import (
    IV_FACTOR_CANDIDATES,
    act_points,
    automorphy_denominators,
    random_automorphisms,
    random_isotropy_stack,
)
from .domains import (
    DomainSpec,
    _redraw,
    _sample_memo,
    classify_points,
    generic_norms,
    norm_features,
    norm_gram,
    parse_spec,
    polarized_norms,
    sample_points,
)
from .errors import ConfigurationError, ParameterError, ShapeError
from .invariants import (
    _conjugate_spectra,
    _require_origin,
    _spectrum_distance,
    invariant_spectrum,
)
from .linalg import _negative_key_error
from .polymaps import (
    PolyMap,
    _aligned_coeffs,
    _embedding,
    _monomial_values,
    catalog,
    coeff_distance,
    embed_map,
    eval_points,
    monomials_of_degree,
    pad_map,
    select_map,
    source_positions,
    variable_names,
)

__all__ = [
    "VerificationReport",
    "check_properness",
    "check_factorization",
    "check_F_U_lemma",
    "check_composition_rule",
    "check_coefficient_lemma",
    "check_isotropy_consistency",
    "check_family_continuity",
    "run_all",
    "summarize",
]


@dataclass
class VerificationReport:
    check_id: str
    specs: list
    samples: int
    seed: int
    max_residual: float
    tolerance: float
    passed: bool
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "specs": list(self.specs),
            "samples": int(self.samples),
            "seed": int(self.seed),
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
            "notes": list(self.notes),
        }


def summarize(reports) -> dict:
    passed = sum(1 for r in reports if r.passed)
    return {"total": len(reports), "passed": passed, "failed": len(reports) - passed}


def _report(check_id, specs, samples, seed, residuals, tol, notes=()) -> VerificationReport:
    """The report of a check with these residuals: its ``max_residual`` is the
    largest (0.0 for none), and it passes exactly when that is at most
    ``tol``.  Each spec is recorded as its string."""
    worst = float(np.max(residuals, initial=0.0))
    return VerificationReport(check_id, [str(s) for s in specs], samples, seed, worst, tol,
                              worst <= tol, list(notes))


def _relative(value, reference):
    """|value - reference| / max(1, |reference|), elementwise."""
    return np.abs(value - reference) / np.maximum(1.0, np.abs(reference))


def _key_rows(seed, *columns) -> np.ndarray:
    """Sample keys as the rows ``[seed, c1[k], c2[k], ...]`` over the broadcast
    integer columns (nonnegative counters), ``uint32`` when the seed fits.  A
    negative integer seed raises ``linalg._negative_key_error``, the error a
    negative key gets in the one-key samplers; a seed that does not fit
    (at least 2**32, or not an integer) stays a Python object, so
    ``default_rng`` reads it, or rejects it, as it would in a list key."""
    integer = isinstance(seed, (int, np.integer))
    if integer and seed < 0:
        raise _negative_key_error(int(seed))
    fits = integer and seed < 2**32
    cols = np.broadcast_arrays(*(np.asarray(c) for c in columns))
    rows = np.empty((cols[0].size, 1 + len(cols)), dtype=np.uint32 if fits else object)
    rows[:, 0] = seed
    for j, col in enumerate(cols, 1):
        rows[:, j] = col
    return rows


def _append_column(rows: np.ndarray, value: int) -> np.ndarray:
    return np.concatenate([rows, np.full((len(rows), 1), value, dtype=rows.dtype)], axis=1)


def _require_positive(name: str, count: int) -> None:
    if count <= 0:  # a report over no samples would pass with max_residual 0.0
        raise ParameterError(f"{name} must be positive, got {count}")


def check_properness(f: PolyMap, n_samples: int = 500, tol: float = 1e-7, seed: int = 42,
                     check_id: str = "properness") -> VerificationReport:
    """Boundary points of the source must map to boundary points of the target.

    Residual per sample is |generic norm of the image|, widened by the
    classification margin when the image is not classified as boundary at
    10x the tolerance.
    """
    _require_positive("n_samples", n_samples)
    z = sample_points(f.source, "boundary", _key_rows(seed, np.arange(n_samples)))
    y = eval_points(f, z)
    res = np.abs(generic_norms(f.target, y))
    regions, margins = classify_points(f.target, y, 10.0 * tol)
    off = regions != "boundary"
    res[off] = np.maximum(res[off], np.abs(margins[off]))
    misclassified = int(np.count_nonzero(off))
    notes = []
    if misclassified:
        notes.append(f"{misclassified} images not classified as boundary at {10.0 * tol:g}")
    return _report(check_id, [f.source, f.target], n_samples, seed, res, tol, notes)


def _sample_pairs(spec: DomainSpec, prefixes, threshold: float) -> tuple:
    """Interior pairs (z, w) with |S1(z, w)| >= threshold, stacked, and their
    S1 values: for each key row p of ``prefixes``, attempt a draws z from
    ``[*p, 2a]`` and w from ``[*p, 2a + 1]``, and ``domains._redraw`` takes
    only the prefixes still rejected on to the next attempt."""

    def draw(pending, attempt):
        rows = prefixes[pending]
        z = sample_points(spec, "interior", _append_column(rows, 2 * attempt))
        w = sample_points(spec, "interior", _append_column(rows, 2 * attempt + 1))
        s1 = polarized_norms(spec, z, w)
        ok = np.abs(s1) >= threshold
        return ok, (z[ok], w[ok], s1[ok])

    error = ConfigurationError(f"could not sample a pair with |S1| >= {threshold}")
    return _redraw(len(prefixes), draw, error)


@lru_cache(maxsize=None)
def _korobov_lattice(nvars: int, degree: int, size: int = None) -> tuple:
    """(N, g, exponents) of the rank-1 lattice that separates the monomials
    x^alpha of degree <= ``degree`` in ``nvars`` variables (``exponents``, one
    row each): lattice point k has the phases exp(2 pi i (k g mod N) / N), so
    x^alpha has the frequency alpha.g mod N, and the Korobov generator g = (1,
    a, a^2, ...) mod N with the smallest such a gives every monomial its own
    frequency.  N is ``size`` if given, else the smallest size that has such
    a generator; a size with none (every size below the monomial count)
    raises ``ConfigurationError``."""
    exponents = np.array([e for d in range(degree + 1) for e in monomials_of_degree(nvars, d)],
                         dtype=np.int64).reshape(-1, nvars)
    count = len(exponents)
    if size is None:
        sizes = itertools.count(count)
    else:
        sizes = [size] if size >= count else []
    for n in sizes:
        a = np.arange(n)
        generators = np.ones((nvars, n), dtype=np.int64)  # column a is (1, a, a^2, ...) mod n
        for j in range(1, nvars):
            generators[j] = generators[j - 1] * a % n
        spread = np.sort(exponents @ generators % n, axis=0)
        distinct = np.all(spread[1:] != spread[:-1], axis=0)
        if distinct.any():
            generator = generators[:, np.argmax(distinct)]
            exponents.flags.writeable = generator.flags.writeable = False
            return n, generator, exponents
    raise ConfigurationError(f"no rank-1 lattice of size {size} separates the {count} monomials "
                             f"of degree <= {degree} in {nvars} variables")


def check_factorization(f: PolyMap, degree_bound: int = 4, grid_size: int = None,
                        tol: float = 1e-7, seed: int = 42,
                        check_id: str = "factorization"):
    """Exact coefficients of the norm ratio h(Z, conj W) = S2(f(Z), f(W)) /
    S1(Z, W) as a polynomial of total degree <= ``degree_bound`` in the source
    variables of Z and the conjugated source variables of W.

    The source variables run over a rank-1 lattice of ``grid_size`` points
    (default: the smallest that separates the monomials, see
    :func:`_korobov_lattice`) at modulus rho, which puts every lattice point at
    Frobenius norm 0.9 (0.9 / sqrt 2 for kind IV).  The norms of all lattice
    pairs are one Gram product of ``domains.norm_features``, and the
    coefficients are the 2-D DFT of the ratios H, C = V^H H V / (N^2
    rho^(|a| + |b|)) with V[k, a] the lattice phase of x^a; those of degree
    above the bound are zeroed.  The residuals are those of the lattice
    reconstruction, |V C V^H - H| / max(1, |H|) (phases only), which is the
    content of H outside degree <= D, together with those of held-out random
    pairs with |S1| >= 0.01, keyed ``[seed, 1, k, ...]``, whose prediction
    is sum C[a, b] z^a conj(w^b) over the same exponent table.  A lattice
    point that is not interior, or a lattice pair with |S1| < 0.01, raises
    ``ConfigurationError``.  Returns (report, coefficients): the coefficients
    are the entries of C above 1e-9, each named by its joint monomial z^a
    conj(w)^b.
    """
    n_hold = max(20, 3 * math.comb(2 * f.nvars + degree_bound, degree_bound) // 4)
    z, w, s1 = _sample_pairs(f.source, _key_rows(seed, 1, np.arange(n_hold)), 0.01)

    size, generator, exponents = _korobov_lattice(f.nvars, degree_bound, grid_size)
    embedding = _embedding(f.source)
    rho = 0.9 / np.linalg.norm(embedding) / (math.sqrt(2.0) if f.source.kind == "IV" else 1.0)
    k = np.arange(size)[:, None]
    x = rho * np.exp(2j * np.pi / size * (k * generator % size))
    lattice = np.einsum("kv,rcv->krc", x, embedding)
    if np.any(classify_points(f.source, lattice)[0] != "interior"):
        raise ConfigurationError(f"a point of the size-{size} lattice is not interior "
                                 f"to {f.source}")
    phi, sigma = norm_features(f.source, lattice)
    s1_grid = (phi * sigma) @ np.conj(phi).T
    if np.min(np.abs(s1_grid)) < 0.01:
        raise ConfigurationError(f"a pair of the size-{size} lattice has |S1| < 0.01")
    phi, sigma = norm_features(f.target, eval_points(f, lattice))
    ratios = (phi * sigma) @ np.conj(phi).T / s1_grid

    phases = np.exp(2j * np.pi / size * (k * (exponents @ generator % size) % size))
    scaled = np.conj(phases).T @ ratios @ phases / size**2
    degrees = exponents.sum(axis=1)
    joint_degrees = degrees[:, None] + degrees[None, :]
    scaled[joint_degrees > degree_bound] = 0.0
    rebuilt = phases @ scaled @ np.conj(phases).T
    coeffs = scaled / rho ** joint_degrees

    held = polarized_norms(f.target, eval_points(f, z), eval_points(f, w)) / s1
    predicted = np.sum((_monomial_values(f.source, z, exponents) @ coeffs)
                       * np.conj(_monomial_values(f.source, w, exponents)), axis=1)
    residuals = np.concatenate([_relative(rebuilt, ratios).ravel(), _relative(predicted, held)])

    names = variable_names(f.source)
    names += [f"conj(w{n[1:]})" for n in names]
    monomials = exponents.tolist()

    def monomial_name(exps) -> str:
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e) or "1"

    found = {monomial_name(monomials[a] + monomials[b]): complex(coeffs[a, b])
             for a, b in np.argwhere(np.abs(coeffs) > 1e-9).tolist()}
    notes = [f"{name}: {c.real:.12g}{c.imag:+.3e}j" for name, c in sorted(found.items())]
    return _report(check_id, [f.source, f.target], size**2 + n_hold, seed, residuals, tol,
                   notes), found


def check_F_U_lemma(spec: DomainSpec, n_samples: int = 200, tol: float = 1e-9,
                    seed: int = 42, check_id: str = None) -> VerificationReport:
    """Transformation law of the polarized norm under random automorphisms.

    Every kind computes one quantity per sample, S(MZ, MW) d(Z) conj d(W)
    against S(Z, W), with d the automorphy denominator (det(A+ZC) for kinds
    I/II/III, lambda(Z) for kind IV).  Kinds I/II/III check that the two are
    equal, kind II with both Pfaffian norms squared (its unsquared law needs
    a branch of the square root of det(A+ZC)).  Kind IV takes W = Z and
    adjudicates which candidate constant c makes the quantity equal c S(Z, Z)
    on every sample, with residuals |quantity - c S(Z, Z)| / max(1, |S(Z,
    Z)|): the report carries the residuals of the best candidate, so it
    passes when exactly one candidate fits.  It also fails when more than one
    fits, although its max residual is then within ``tol``: the one exception
    to the pass rule of ``_report``.  The notes record the empirically fitted
    constant, the median ratio over the samples with |S(Z, Z)| > 0.1, either
    way.
    """
    check_id = check_id or f"fu:{spec}"
    _require_positive("n_samples", n_samples)
    notes = []
    ks = np.arange(n_samples)
    e = random_automorphisms(spec, _key_rows(seed, ks, 0))
    period = 4 if spec.kind == "IV" else 5
    on_boundary = ks % period == period - 1
    z = np.empty((n_samples, *spec.shape), dtype=complex)
    keys = _key_rows(seed, ks, 1)
    for region, mask in (("boundary", on_boundary), ("interior", ~on_boundary)):
        z[mask] = sample_points(spec, region, keys[mask])
    w = z if spec.kind == "IV" else sample_points(spec, "interior", _key_rows(seed, ks, 2))
    mz, dz = act_points(e, z), automorphy_denominators(e, z)
    mw, dw = (mz, dz) if w is z else (act_points(e, w), automorphy_denominators(e, w))
    s_before, s_after = polarized_norms(spec, z, w), polarized_norms(spec, mz, mw)
    if spec.kind == "II":
        s_before, s_after = s_before ** 2, s_after ** 2
        notes.append(f"kind {spec.kind} identity verified in squared (determinant) form")
    moved = s_after * dz * np.conj(dw)
    if spec.kind != "IV":
        return _report(check_id, [spec], n_samples, seed, _relative(moved, s_before), tol, notes)

    zz = np.real(z @ np.conj(z).swapaxes(-1, -2))[:, 0, 0]
    flat = on_boundary & (zz >= 1.0 - 1e-9) & (s_before.real >= -1e-9)
    scale = np.maximum(1.0, np.abs(s_before))
    residuals = {c: np.abs(moved - c * s_before) / scale for c in IV_FACTOR_CANDIDATES}
    cand_worst = {c: float(np.max(r, initial=0.0)) for c, r in residuals.items()}
    kept = np.abs(s_before) > 0.1
    fits = [c for c in IV_FACTOR_CANDIDATES if cand_worst[c] <= tol]
    notes.append(f"boundary samples with ZZ* = 1 and nonnegative norm: "
                 f"{int(np.count_nonzero(flat))} of {int(np.count_nonzero(on_boundary))}")
    notes.append(f"empirical constant: {float(np.median((moved[kept] / s_before[kept]).real)):.12g}"
                 if kept.any() else "empirical constant: none (no sample has |S(Z, Z)| > 0.1)")
    notes += [f"candidate {c:g}: max residual {cand_worst[c]:.6e}" for c in IV_FACTOR_CANDIDATES]
    notes.append(f"adjudicated constant: {fits[0]:g}" if len(fits) == 1
                 else "multiple candidate constants fit" if fits
                 else "no candidate constant fits all samples")
    best = min(cand_worst, key=cand_worst.get)
    report = _report(check_id, [spec], n_samples, seed, residuals[best], tol, notes)
    # The one exception to the pass rule: an ambiguous adjudication fails.
    return replace(report, passed=False) if len(fits) > 1 else report


def check_composition_rule(f: PolyMap, g: PolyMap, n_samples: int = 100, tol: float = 1e-8,
                           seed: int = 42, check_id: str = "composition") -> VerificationReport:
    """Multiplicativity of norm-ratio factors under composition: with
    g mapping into the source of f, F_{f o g}(Z, W) = F_g(Z, W) * F_f(gZ, gW)
    at interior pairs kept away from the norm zero sets.

    The identity holds by the definition of the norm ratios: the check
    compares f_total = S3 / S1 with (S2 / S1) * (S3 / S2), which are equal in
    exact arithmetic for any maps with S2 != 0.  So its residual is
    floating-point roundoff only, and the report confirms no more than that
    pairs with |S1| >= 0.1 and |S2(gZ, gW)| >= 0.01 could be drawn."""
    if g.target != f.source:
        raise ShapeError(f"maps do not compose: {g.target} vs {f.source}")
    _require_positive("n_samples", n_samples)

    def draw(pending, attempt):
        z, w, s1 = _sample_pairs(g.source, _key_rows(seed, pending, attempt), 0.1)
        gz, gw = eval_points(g, z), eval_points(g, w)
        s2 = polarized_norms(g.target, gz, gw)
        ok = np.abs(s2) >= 0.01
        return ok, (s1[ok], gz[ok], gw[ok], s2[ok])

    error = ConfigurationError("could not sample a pair with |S2(gZ, gW)| >= 0.01")
    s1, gz, gw, s2 = _redraw(n_samples, draw, error)
    s3 = polarized_norms(f.target, eval_points(f, gz), eval_points(f, gw))
    return _report(check_id, [g.source, g.target, f.target], n_samples, seed,
                   _relative((s2 / s1) * (s3 / s2), s3 / s1), tol)


def _minor(value: np.ndarray, drop_rows, drop_cols) -> np.ndarray:
    keep_r = [r for r in range(value.shape[-2]) if r not in drop_rows]
    keep_c = [c for c in range(value.shape[-1]) if c not in drop_cols]
    return value[(..., *np.ix_(keep_r, keep_c))]


def _norm_square_poly_values(value: np.ndarray) -> np.ndarray:
    return np.real(np.linalg.det(norm_gram(value, value)))


def check_coefficient_lemma(spec: DomainSpec, i: int, j: int, n_bases: int = 20,
                            tol: float = 1e-6, seed: int = 42,
                            check_id: str = None) -> VerificationReport:
    """Leading coefficient of det(I - ZZ*) as a polynomial in Re z_ij.

    At random interior base points, the norm polynomial is fitted in the
    single real variable Re z_ij and its leading coefficient is compared to
    the predicted signed minor determinant: degree 4 with +det(I - Z''Z''*)
    when (i, j) is off the diagonal and its mirror z_ji = eps z_ij moves too
    (eps = ``spec.mirror`` != 0; Z'' drops rows and columns i and j), else
    degree 2 with -det(I - Z'Z'*) (Z' the (i, j) minor).  Kind II uses the
    square of its generic norm, which is the determinant itself.
    """
    check_id = check_id or f"coeff:{spec}:({i + 1},{j + 1})"
    if spec.kind == "IV":
        raise ParameterError("coefficient lemma applies to kinds I/II/III")
    if (i, j) not in source_positions(spec):
        raise ParameterError(f"invalid index ({i}, {j}) for {spec}")
    _require_positive("n_bases", n_bases)
    mirror = spec.mirror if i != j else 0.0
    degree, sign, drops = (4, 1.0, ({i, j}, {i, j})) if mirror else (2, -1.0, ({i}, {j}))

    nodes = np.linspace(-0.7, 0.7, degree + 3)
    rejected = []

    def draw(pending, attempt):
        # Base a draws from [seed, a]; a degenerate base redraws from [seed, a, attempt].
        keys = _key_rows(seed, pending, *([attempt] if attempt else []))
        drawn = sample_points(spec, "interior", keys)
        minors = sign * _norm_square_poly_values(_minor(drawn, *drops))
        ok = np.abs(minors) >= 1e-2
        rejected.append(int(np.count_nonzero(~ok)))
        return ok, (drawn[ok], minors[ok])

    error = ConfigurationError("too many degenerate bases while sampling")
    bases, expected = _redraw(n_bases, draw, error)
    resamples = sum(rejected)
    z = np.repeat(bases[:, None], len(nodes), axis=1)
    z[:, :, i, j] = nodes + 1j * z[:, :, i, j].imag
    if mirror:
        z[:, :, j, i] = mirror * z[:, :, i, j]
    lead = np.polyfit(nodes, _norm_square_poly_values(z).T, degree)[0]
    notes = [f"{resamples} degenerate bases resampled"] if resamples else []
    return _report(check_id, [spec], n_bases, seed, np.abs(lead - expected) / np.abs(expected),
                   tol, notes)


def check_isotropy_consistency(f: PolyMap, n_trials: int = 100, tol: float = 1e-10,
                               seed: int = 42, check_id: str = "isotropy") -> VerificationReport:
    """Conjugating by random origin isotropies must leave every per-degree
    spectrum unchanged: a trial whose spectra lie more than ``tol`` from f's
    (the distance of ``invariants.distinguish``) counts as one the
    distinguisher declares inequivalent."""
    _require_positive("n_trials", n_trials)
    _require_origin("first", f)
    trials = np.arange(n_trials)
    pre = random_isotropy_stack(f.source, _key_rows(seed, trials, 0))
    post = random_isotropy_stack(f.target, _key_rows(seed, trials, 1))
    spectra = invariant_spectrum(f)
    distance = np.zeros(n_trials)
    for d, trial_spectra in _conjugate_spectra(f, pre, post).items():
        distance = np.maximum(distance, _spectrum_distance(spectra[d], trial_spectra))
    failures = int(np.count_nonzero(distance > tol))
    notes = [f"{failures} conjugations declared inequivalent"] if failures else []
    return _report(check_id, [f.source, f.target], n_trials, seed, distance, tol, notes)


_FAMILIES = ("f_t", "g_t", "G_t", "h_t")  # also the choices of ``bsdkit sweep --family``


def check_family_continuity(family: str, t_grid, tol: float = 3.0, dims=None,
                            check_id: str = None) -> VerificationReport:
    """Hoelder-1/2 continuity of family coefficients along a parameter grid
    of at least two distinct points (fewer raise ``ParameterError``).

    The residual is the max over adjacent grid maps of
    coefficient distance / sqrt(dt) (square-root coefficients are only
    Hoelder-1/2 at the ends of [0, 1]).  For f_t the endpoint maps are also
    compared against the two quadratic catalog maps embedded in the 4x4
    target, with every coefficient discrepancy listed but not judged.
    """
    if family not in _FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    grid = sorted(float(t) for t in t_grid)
    if len(set(grid)) < 2:  # a report over no adjacent pair would pass with max_residual 0.0
        raise ParameterError(f"parameter grid needs two distinct points, got {len(set(grid))}")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ParameterError("grid must lie in [0, 1]")
    maps = [select_map(family, dims=dims, t=t) for t in grid]
    steps = [coeff_distance(m0, m1) / math.sqrt(t1 - t0)
             for t0, t1, m0, m1 in zip(grid, grid[1:], maps, maps[1:]) if t1 > t0]
    notes = []
    if family == "f_t" and math.isclose(grid[0], 0.0) and math.isclose(grid[-1], 1.0):
        notes.extend(_f_t_endpoint_notes(maps[0], maps[-1]))
    return _report(check_id or f"continuity:{family}", [maps[0].source, maps[0].target],
                   len(grid), 0, steps, tol, notes)


def _discrepancies(a: PolyMap, b: PolyMap) -> list:
    names = variable_names(a.source)
    monomials, ca, cb = _aligned_coeffs(a, b)
    cols = a.target.shape[1]
    out = []
    for r, k in np.argwhere(np.abs(ca - cb) > 1e-15).tolist():
        mono = "*".join(n for n, e in zip(names, monomials[k]) for _ in range(e)) or "1"
        out.append(f"({r // cols + 1},{r % cols + 1}) {mono}: {ca[r, k]:.12g} vs {cb[r, k]:.12g}")
    return out


def _f_t_endpoint_notes(f0: PolyMap, f1: PolyMap) -> list:
    notes = []
    target = f0.target
    padded_g = pad_map(catalog("g-sec4"), target)
    d0 = _discrepancies(f0, padded_g)
    notes.append(f"t=0 vs padded g-sec4: {'exact match' if not d0 else f'{len(d0)} discrepancies'}")
    notes.extend(f"  t=0 {line}" for line in d0)
    embedded_f = embed_map(catalog("f-sec4"), target, [0, 1, 3], [0, 1, 3])
    d1 = _discrepancies(f1, embedded_f)
    notes.append(f"t=1 vs f-sec4 embedded at rows/cols (1,2,4): {len(d1)} discrepancies")
    notes.extend(f"  t=1 {line}" for line in d1)
    for label, m in (("t=1 family end", f1), ("embedded f-sec4", embedded_f)):
        spec_m = invariant_spectrum(m)
        flat = {d: [round(float(v), 12) for v in vals] for d, vals in spec_m.items()}
        notes.append(f"  spectra of {label}: {flat}")
    return notes


def _plan(seed: int, properness_samples: int, fu_samples: int) -> list:
    """The reports of ``run_all`` in order, one ``(check_id, check, args,
    kwargs)`` row each: the report is ``check(*args, check_id=check_id,
    **kwargs)``, so every id can be read without running a check.  The rows
    are built on each call from this module's ``check_*`` names, so a check
    rebound on the module (a timing hook, a recorder) is the one that runs."""
    # The 22 properness targets, which the later rows also take their maps from.
    maps = {"standard(2,2,3,3)": catalog("standard", r=2, s=2, r2=3, s2=3),
            "f-sec4": catalog("f-sec4"), "g-sec4": catalog("g-sec4"),
            "gen-whitney(2,2)": catalog("gen-whitney", r=2, s=2),
            "gen-whitney(3,3)": catalog("gen-whitney", r=3, s=3),
            "G_t(2,2,0.5)": catalog("G_t", r=2, s=2, t=0.5),
            "G_t(3,3,0.5)": catalog("G_t", r=3, s=3, t=0.5)}
    for n in (2, 3, 4):
        maps[f"whitney-ball({n})"] = catalog("whitney-ball", n=n)
        maps[f"dangelo({n},pi/4)"] = catalog("dangelo", n=n, theta=math.pi / 4)
    for t in (0.0, 0.5, 1.0):
        for family in ("f_t", "g_t", "h_t"):
            maps[f"{family}({t})"] = catalog(family, t=t)
    rows = [(f"fu:{text}", check_F_U_lemma, (parse_spec(text),),
             {"n_samples": fu_samples, "seed": seed})
            for text in ("I:2,2", "I:2,3", "I:3,3", "III:2", "III:3",
                         "II:3", "II:4", "II:5", "IV:3", "IV:4")]
    rows += [(f"properness:{label}", check_properness, (f,),
              {"n_samples": properness_samples, "seed": seed}) for label, f in maps.items()]
    for spec in map(parse_spec, ("I:2,2", "I:2,3", "I:3,3", "II:4", "II:5", "III:2", "III:3")):
        rows += [(f"coeff:{spec}:({i + 1},{j + 1})", check_coefficient_lemma, (spec, i, j),
                  {"seed": seed}) for i, j in source_positions(spec)]
    pairs = (("standard.whitney-ball", catalog("standard", r=1, s=3, r2=1, s2=5),
              maps["whitney-ball(2)"]),
             ("whitney-ball.whitney-ball", maps["whitney-ball(3)"], maps["whitney-ball(2)"]),
             ("gen-whitney.gen-whitney", maps["gen-whitney(3,3)"], maps["gen-whitney(2,2)"]))
    rows += [(f"composition:{label}", check_composition_rule, (f, g), {"seed": seed})
             for label, f, g in pairs]
    rows += [(f"factorization:{label}", check_factorization, (maps[label],),
              {"degree_bound": bound, "seed": seed})
             for label, bound in (("whitney-ball(2)", 2), ("standard(2,2,3,3)", 2), ("f-sec4", 4))]
    rows += [(f"isotropy:{label}", check_isotropy_consistency, (f,), {"seed": seed})
             for label, f in (("f_t(0.3)", catalog("f_t", t=0.3)),
                              ("gen-whitney(2,2)", maps["gen-whitney(2,2)"]))]
    grid = [k / 20.0 for k in range(21)]
    rows += [(f"continuity:{family}", check_family_continuity, (family, grid), {})
             for family in ("f_t", "g_t", "h_t")]
    rows.append(("continuity:G_t(2,2)", check_family_continuity, ("G_t", grid), {"dims": (2, 2)}))
    return rows


def run_all(seed: int = 42, properness_samples: int = 500, fu_samples: int = 200) -> list:
    """The aggregate verification suite: every check at its default scale,
    one report per row of :func:`_plan`.

    The sample memo of ``domains`` is open while the checks run, so a key
    stack that several reports sample (the same source and keys in many
    properness reports, the same bases in every coefficient lemma report of
    a domain) is sampled once and shared read-only; every report is what the
    check gives alone."""
    with _sample_memo():
        outs = [check(*args, check_id=check_id, **kwargs)
                for check_id, check, args, kwargs in _plan(seed, properness_samples, fu_samples)]
    # factorization returns (report, coefficients)
    return [out[0] if isinstance(out, tuple) else out for out in outs]
