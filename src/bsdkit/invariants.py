"""Spectral invariants of origin-preserving polynomial maps.

Each homogeneous piece of a map is flattened into a coefficient operator:
rows are the independent target entries, columns are the degree-d monomials
over the source variables, in coordinates that make origin isotropies act
unitarily on both sides.  Concretely the columns carry the Fischer
normalization sqrt(alpha!) and, for kinds II/III, source variables and
target entries are rescaled by sqrt(2) on off-diagonal positions so that
the independent-entry coordinates are orthonormal for the Frobenius inner
product (under which the isotropy substitutions are honest unitaries).
Kinds I and IV have unit weights: every entry is independent.

The per-degree singular values of these operators are therefore invariant
under isotropic conjugation, which makes mismatched spectra a sound
certificate of inequivalence for origin-preserving proper polynomial maps
between domains of any of the four kinds; matching spectra certify nothing.
Soundness: two origin-preserving proper polynomial maps are equivalent
exactly when they are isotropically equivalent, and by H. Cartan's theorem
an automorphism fixing 0 of a bounded circular domain is linear, so the
isotropies are the maps Z -> L Z R of ``autgroups.isotropy_factors`` with
L, R unitary.  For kind IV these are Z -> e^{-i theta} Z P, the group
e^{i theta} O(n) inside U(n), which acts unitarily on the n unit-weight
coordinates.  On the degree-d block such a source isotropy acts by P_d(S),
which is unitary in these coordinates, and a target isotropy by a unitary
on the rows, so the singular values do not change.  The Fischer inner
product is that of H. S. Shapiro, "An algebraic theorem of E. Fischer, and
the holomorphic Goursat problem", Bull. LMS 21 (1989).

The operators are read from a map's stored arrays: each degree's columns of
``PolyMap.weighted`` (C with these weights, built on first use) are
scattered into the columns of ``monomials_of_degree``, one scatter per degree.
Spectra are taken over a coefficient stack, one SVD per degree: a map's own
spectrum is the no-stack case, and the isotropy check of ``verify`` takes
the spectra of all its conjugation trials (``polymaps._conjugations``) in
one stacked call per degree.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autgroups import isotropy_factors
from .errors import ParameterError, ShapeError
from .polymaps import PolyMap, _conjugations, _weighted, monomials_of_degree

__all__ = [
    "monomials_of_degree",
    "coefficient_operator",
    "invariant_spectrum",
    "DistinguishResult",
    "distinguish",
    "INEQUIVALENT",
    "INDISTINGUISHABLE",
]

INEQUIVALENT = "inequivalent"
INDISTINGUISHABLE = "indistinguishable-by-invariants"


def coefficient_operator(f_d: PolyMap, degree: int = None) -> np.ndarray:
    """Coefficient operator of a homogeneous map piece.

    Entry (row, alpha) is the coefficient of monomial alpha in the row's
    target entry, times sqrt(alpha!) and the Frobenius weights described in
    the module docstring.  Raises on non-homogeneous input.
    """
    blocks = f_d.degrees
    if len(blocks) > 1:
        raise ShapeError(f"map is not homogeneous (degrees {[d for d, _, _ in blocks]})")
    if degree is None:
        if not blocks:
            raise ShapeError("empty map needs an explicit degree")
        degree = blocks[0][0]
    elif blocks and blocks[0][0] != degree:
        raise ShapeError(f"map has degree {blocks[0][0]}, not {degree}")

    return _operator(f_d.weighted, f_d.nvars, degree, *(blocks[0][1:] if blocks else ([], [])))


def _operator(weighted: np.ndarray, nvars: int, degree: int, columns: np.ndarray,
              ranks: np.ndarray) -> np.ndarray:
    """The degree-``degree`` operator of the weighted coefficients (leading
    stack axes kept): their ``columns`` scattered into the monomial ``ranks``."""
    op = np.zeros((*weighted.shape[:-1], math.comb(nvars + degree - 1, degree)), dtype=complex)
    op[..., ranks] = weighted[..., columns]
    return op


def _spectra(weighted: np.ndarray, nvars: int, degrees) -> dict:
    """Per-degree descending singular values of the operators of a weighted
    coefficient matrix or stack: one SVD per degree."""
    return {d: np.linalg.svd(_operator(weighted, nvars, d, columns, ranks), compute_uv=False)
            for d, columns, ranks in degrees}


def invariant_spectrum(f: PolyMap) -> dict:
    """Per-degree descending singular values of the coefficient operators."""
    return _spectra(f.weighted, f.nvars, f.degrees)


def _conjugate_spectra(f: PolyMap, pre_params, post_params) -> dict:
    """Per-degree spectra of the conjugates of f by stacks of source and
    target isotropy parameters, as (trials, k) arrays."""
    exponents, coeffs, degrees = _conjugations(f, isotropy_factors(f.source, pre_params),
                                               isotropy_factors(f.target, post_params))
    return _spectra(_weighted(f.source, f.target, exponents, coeffs), f.nvars, degrees)


@dataclass(frozen=True)
class DistinguishResult:
    verdict: str
    distances: dict  # degree -> sup distance between sorted spectra
    max_distance: float

    @property
    def inequivalent(self) -> bool:
        return self.verdict == INEQUIVALENT


def _spectrum_distance(a, b) -> np.ndarray:
    """Sup distance between descending spectra zero-padded to a common length
    along the last axis; broadcasts over leading (trial) axes."""
    (*lead_a, m), (*lead_b, k) = np.shape(a), np.shape(b)
    pa, pb = np.zeros((*lead_a, max(m, k))), np.zeros((*lead_b, max(m, k)))
    pa[..., :m] = a
    pb[..., :k] = b
    return np.abs(pa - pb).max(axis=-1, initial=0.0)


def _require_origin(name: str, f: PolyMap) -> None:
    if any(d == 0 for d, _, _ in f.degrees):
        raise ParameterError(f"{name} map does not preserve the origin")


def distinguish(f: PolyMap, g: PolyMap, tol: float = 1e-8) -> DistinguishResult:
    """Compare spectral invariants of two origin-preserving maps.

    ``inequivalent`` is a sound verdict for proper polynomial maps fixing the
    origin (equivalence would force isotropic equivalence, which preserves
    the spectra); ``indistinguishable-by-invariants`` is not an equivalence
    certificate.  A degree present in one map but absent in the other is an
    immediate mismatch.  A negative or non-finite ``tol`` raises
    ``ParameterError``: with a negative one, every map would be inequivalent
    to itself.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tol must be nonnegative and finite, got {tol}")
    if f.source != g.source or f.target != g.target:
        raise ShapeError("maps must share source and target specs")
    _require_origin("first", f)
    _require_origin("second", g)
    spec_f = invariant_spectrum(f)
    spec_g = invariant_spectrum(g)
    distances = {d: float(_spectrum_distance(spec_f.get(d, ()), spec_g.get(d, ())))
                 for d in sorted(set(spec_f) | set(spec_g))}
    worst = max(distances.values(), default=0.0)
    mismatch = set(spec_f) != set(spec_g)
    verdict = INEQUIVALENT if (mismatch or worst > tol) else INDISTINGUISHABLE
    return DistinguishResult(verdict, distances, worst)
