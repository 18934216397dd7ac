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
scattered into the columns of ``monomials_of_degree``, one scatter per map
and degree.  ``distinguish`` stacks its two maps' operators, one
``(maps, rows, k)`` stack per degree, and takes one SVD per stack; a map's
own spectrum is the one-map stack.  ``bsdkit sweep`` takes the spectrum of
each grid map as it builds it, so it holds one map at a time.
NumPy evaluates a stacked SVD with the same LAPACK call per matrix, so each
spectrum is bit for bit the one its map gets alone; a map that lacks a
degree present in the stack has the zero operator there, whose singular
values are zeros.  The isotropy check of ``verify`` takes the spectra of
all its conjugation trials (``polymaps._conjugations``) in one stacked call
per degree in the same way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autgroups import isotropy_factors
from .errors import ParameterError, ShapeError
from .linalg import _require_tolerance
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


def _map_spectra(maps) -> dict:
    """Per-degree descending singular values of maps that share source and
    target, as ``(maps, k)`` arrays over the sorted union of their degrees:
    each map's operators are scattered into one ``(maps, rows, k)`` zero
    stack per degree, and each stack takes one SVD.  A map that lacks a
    degree has the zero operator there, whose singular values are zeros."""
    rows, nvars = maps[0].weighted.shape[0], maps[0].nvars
    degrees = sorted({d for m in maps for d, _, _ in m.degrees})
    ops = {d: np.zeros((len(maps), rows, math.comb(nvars + d - 1, d)), dtype=complex)
           for d in degrees}
    for i, m in enumerate(maps):
        for d, columns, ranks in m.degrees:
            ops[d][i][:, ranks] = m.weighted[:, columns]
    return {d: np.linalg.svd(op, compute_uv=False) for d, op in ops.items()}


def invariant_spectrum(f: PolyMap) -> dict:
    """Per-degree descending singular values of the coefficient operators."""
    return {d: s[0] for d, s in _map_spectra([f]).items()}


def _conjugate_spectra(f: PolyMap, pre_params, post_params) -> dict:
    """Per-degree spectra of the conjugates of f by stacks of source and
    target isotropy parameters, as (trials, k) arrays."""
    exponents, coeffs, degrees = _conjugations(f, isotropy_factors(f.source, pre_params),
                                               isotropy_factors(f.target, post_params))
    weighted = _weighted(f.source, f.target, exponents, coeffs)
    return {d: np.linalg.svd(_operator(weighted, f.nvars, d, columns, ranks), compute_uv=False)
            for d, columns, ranks in degrees}


@dataclass(frozen=True)
class DistinguishResult:
    verdict: str
    distances: dict  # degree -> sup distance between sorted spectra
    max_distance: float

    @property
    def inequivalent(self) -> bool:
        return self.verdict == INEQUIVALENT


def _spectrum_distance(a, b) -> np.ndarray:
    """Sup distance between descending spectra of equal length along the last
    axis; broadcasts over leading (map or trial) axes."""
    return np.abs(a - b).max(axis=-1, initial=0.0)


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
    _require_tolerance(tol)
    for name, m in (("first", f), ("second", g)):
        if (m.source, m.target) != (f.source, f.target):
            raise ShapeError("maps must share source and target specs")
        _require_origin(name, m)
    spectra = _map_spectra([f, g])
    distances = {d: float(_spectrum_distance(s[0], s[1])) for d, s in spectra.items()}
    worst = max(distances.values(), default=0.0)
    mismatch = {d for d, _, _ in f.degrees} != {d for d, _, _ in g.degrees}
    verdict = INEQUIVALENT if (mismatch or worst > tol) else INDISTINGUISHABLE
    return DistinguishResult(verdict, distances, worst)
