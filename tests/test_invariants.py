import math

import numpy as np
import pytest

from bsdkit.autgroups import random_isotropy_params
from bsdkit.domains import DomainSpec, parse_spec
from bsdkit.errors import ParameterError, ShapeError
from bsdkit.invariants import (
    INDISTINGUISHABLE,
    INEQUIVALENT,
    coefficient_operator,
    distinguish,
    invariant_spectrum,
    monomials_of_degree,
)
from bsdkit.polymaps import (catalog, conjugate, homogeneous_parts, pad_map, polymap,
                             source_positions)

CATALOG_MAPS = [
    catalog("standard", r=2, s=2, r2=3, s2=3),
    catalog("whitney-ball", n=3),
    catalog("dangelo", n=3, theta=0.7),
    catalog("gen-whitney", r=2, s=3),
    catalog("f-sec4"),
    catalog("g-sec4"),
    catalog("f_t", t=0.35),
    catalog("g_t", t=0.35),
    catalog("G_t", r=2, s=3, t=0.35),
    catalog("h_t", t=0.35),
]


def reference_operator(f_d, degree):
    """The coefficient operator term by term: coefficient times sqrt(alpha!),
    prod(w ** -alpha) over the source weights and the row's target weight,
    with w = sqrt(2) at off-diagonal kind II/III positions."""
    def weights(spec):
        return [math.sqrt(2.0) if spec.kind in ("II", "III") and i != j else 1.0
                for i, j in source_positions(spec)]

    w_src, w_tgt = weights(f_d.source), weights(f_d.target)
    column = {m: k for k, m in enumerate(monomials_of_degree(f_d.nvars, degree))}
    op = np.zeros((len(w_tgt), len(column)), dtype=complex)
    for row, pos in enumerate(source_positions(f_d.target)):
        for exps, coeff in f_d.entries.get(pos, {}).items():
            fischer = math.sqrt(math.prod(math.factorial(e) for e in exps))
            rescale = math.prod(w ** -e for w, e in zip(w_src, exps))
            op[row, column[exps]] = coeff * fischer * rescale * w_tgt[row]
    return op


def f_t_degree1_expected(t):
    return np.sort([math.sqrt(2 * t / (2 - t)), math.sqrt(t), math.sqrt(t), 0.0])[::-1]


class TestCoefficientOperator:
    def test_zero_map_needs_degree_and_is_zero(self):
        spec = parse_spec("I:2,2")
        empty = polymap(spec, spec, {})
        op = coefficient_operator(empty, degree=2)
        assert op.shape == (4, len(monomials_of_degree(4, 2)))
        assert not np.any(op)

    def test_single_square_slot_gets_sqrt2(self):
        spec = parse_spec("I:1,2")
        f = polymap(spec, spec, {(0, 0): {(2, 0): 1.0}})
        op = coefficient_operator(f)
        assert sorted(np.abs(op[np.nonzero(op)])) == pytest.approx([math.sqrt(2.0)])

    def test_f_t_linear_part_pattern(self):
        parts = homogeneous_parts(catalog("f_t", t=0.5))
        op = coefficient_operator(parts[1])
        # rows follow the row-major target entries; nonzero rows are the four
        # linear slots (1,4), (2,4), (4,1), (4,2) of the displayed family
        nonzero_rows = sorted(set(np.nonzero(op)[0]))
        assert nonzero_rows == [3, 7, 12, 13]

    def test_rejects_non_homogeneous(self):
        with pytest.raises(ShapeError):
            coefficient_operator(catalog("f_t", t=0.5))


    @pytest.mark.parametrize("f", CATALOG_MAPS, ids=lambda f: f"{f.source}->{f.target}")
    def test_matches_term_by_term_reference(self, f):
        g = conjugate(f, random_isotropy_params(f.source, [41, 0]),
                      random_isotropy_params(f.target, [41, 1]))
        for m in (f, g):
            spectrum = invariant_spectrum(m)
            parts = homogeneous_parts(m)
            assert sorted(spectrum) == sorted(parts)
            for d, part in parts.items():
                reference = reference_operator(part, d)
                assert np.max(np.abs(coefficient_operator(part, d) - reference)) <= 1e-13
                assert np.max(np.abs(spectrum[d] - np.linalg.svd(reference, compute_uv=False))) <= 1e-12


class TestInvariantSpectrum:
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9, 1.0])
    def test_f_t_degree1_closed_form(self, t):
        spectrum = invariant_spectrum(catalog("f_t", t=t))
        assert spectrum[1] == pytest.approx(f_t_degree1_expected(t), abs=1e-12)

    def test_standard_embedding_degree1_is_all_ones(self):
        f = catalog("standard", r=2, s=2, r2=3, s2=3)
        spectrum = invariant_spectrum(f)
        assert list(spectrum) == [1]
        assert spectrum[1] == pytest.approx(np.ones(4))

    def test_f_t_degree1_monotone_in_t(self):
        ts = np.linspace(0.05, 1.0, 12)
        tops = [invariant_spectrum(catalog("f_t", t=t))[1][0] for t in ts]
        mids = [invariant_spectrum(catalog("f_t", t=t))[1][1] for t in ts]
        assert all(a < b for a, b in zip(tops, tops[1:]))
        assert all(a < b for a, b in zip(mids, mids[1:]))

    @pytest.mark.parametrize("map_id,params", [
        ("f_t", {"t": 0.3}),
        ("gen-whitney", {"r": 2, "s": 2}),
        ("h_t", {"t": 0.3}),
    ])
    def test_isotropy_conjugation_invariance(self, map_id, params):
        f = catalog(map_id, **params)
        base = invariant_spectrum(f)
        for k in range(30):
            g = conjugate(f, random_isotropy_params(f.source, [1, k]),
                          random_isotropy_params(f.target, [2, k]))
            other = invariant_spectrum(g)
            assert sorted(base) == sorted(other)
            for d in base:
                assert np.max(np.abs(base[d] - other[d])) <= 1e-10

    def test_kind_ii_padding_map_invariance(self):
        # exercises antisymmetric source AND target through the same machinery
        f = polymap(parse_spec("II:3"), parse_spec("II:4"), {
            (0, 1): {(1, 0, 0): 1.0},
            (0, 2): {(0, 1, 0): 1.0},
            (1, 2): {(0, 0, 1): 1.0},
        })
        base = invariant_spectrum(f)
        for k in range(20):
            g = conjugate(f, random_isotropy_params(f.source, [3, k]),
                          random_isotropy_params(f.target, [4, k]))
            other = invariant_spectrum(g)
            for d in base:
                assert np.max(np.abs(base[d] - other[d])) <= 1e-10

    def test_padding_adds_zero_singular_values_only(self):
        f = catalog("g-sec4")
        padded = pad_map(f, DomainSpec("I", r=4, s=4))
        sf = invariant_spectrum(f)
        sp = invariant_spectrum(padded)
        for d in sf:
            trimmed = sp[d][np.abs(sp[d]) > 1e-14]
            assert trimmed == pytest.approx(sf[d][np.abs(sf[d]) > 1e-14])

    def test_kind_iv_unit_weights(self):
        # every kind IV coordinate has Frobenius weight 1: swapping the two
        # coordinates gives the operator [[0, 1], [1, 0]], and z1 z2 one entry 1
        spec = parse_spec("IV:2")
        f = polymap(spec, spec, {(0, 0): {(0, 1): 1.0}, (0, 1): {(1, 0): 1.0, (1, 1): 1.0}})
        spectrum = invariant_spectrum(f)
        assert sorted(spectrum) == [1, 2]
        assert np.array_equal(spectrum[1], [1.0, 1.0])
        assert np.array_equal(spectrum[2], [1.0, 0.0])


class TestDistinguish:
    def test_separates_family_members(self):
        result = distinguish(catalog("f_t", t=0.2), catalog("f_t", t=0.8), tol=1e-6)
        assert result.verdict == INEQUIVALENT
        assert result.distances[1] >= abs(math.sqrt(0.8) - math.sqrt(0.2))

    def test_map_is_indistinguishable_from_itself(self):
        f = catalog("g_t", t=0.4)
        result = distinguish(f, f)
        assert result.verdict == INDISTINGUISHABLE
        assert result.max_distance == 0.0

    def test_conjugate_is_indistinguishable(self):
        f = catalog("f_t", t=0.4)
        g = conjugate(f, random_isotropy_params(f.source, 5), random_isotropy_params(f.target, 6))
        result = distinguish(f, g, tol=1e-10)
        assert result.verdict == INDISTINGUISHABLE

    def test_degree_support_mismatch_is_inequivalent(self):
        result = distinguish(catalog("f_t", t=0.0), catalog("f_t", t=0.5), tol=1e-6)
        assert result.verdict == INEQUIVALENT
        assert result.distances[1] == pytest.approx(f_t_degree1_expected(0.5)[0])

    def test_separates_kind_iv_inclusion_from_added_terms(self):
        source, target = parse_spec("IV:3"), parse_spec("IV:4")
        linear = {(0, 0): {(1, 0, 0): 1.0}, (0, 1): {(0, 1, 0): 1.0}, (0, 2): {(0, 0, 1): 1.0}}
        inclusion = polymap(source, target, linear)
        one_term = polymap(source, target, {**linear, (0, 3): {(1, 1, 0): 0.5}})
        f = polymap(source, target, {**linear, (0, 3): {(1, 1, 0): 0.5, (0, 0, 2): 0.25j}})
        assert distinguish(inclusion, f, tol=1e-8).verdict == INEQUIVALENT
        result = distinguish(one_term, f, tol=1e-8)
        assert result.verdict == INEQUIVALENT and result.distances[1] == 0.0
        g = conjugate(f, random_isotropy_params(f.source, 7), random_isotropy_params(f.target, 8))
        assert distinguish(f, g, tol=1e-10).verdict == INDISTINGUISHABLE

    def test_rejects_spec_mismatch(self):
        with pytest.raises(ShapeError):
            distinguish(catalog("f_t", t=0.5), catalog("g_t", t=0.5))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tolerance(self, tol):
        # a negative tolerance would declare every map inequivalent to itself
        f = catalog("f_t", t=0.3)
        with pytest.raises(ParameterError, match="tol must be nonnegative and finite"):
            distinguish(f, f, tol=tol)

    def test_zero_tolerance_keeps_a_map_indistinguishable_from_itself(self):
        f = catalog("f_t", t=0.3)
        assert distinguish(f, f, tol=0.0).verdict == INDISTINGUISHABLE

    def test_rejects_non_origin_preserving(self):
        spec = parse_spec("I:1,1")
        affine = polymap(spec, spec, {(0, 0): {(0,): 0.5, (1,): 0.25}})
        with pytest.raises(ParameterError):
            distinguish(affine, affine)

    def test_gap_lower_bound_on_grid(self):
        # the sqrt(t) component alone separates parameters
        for t, s in [(0.1, 0.2), (0.5, 0.6), (0.9, 1.0)]:
            result = distinguish(catalog("f_t", t=t), catalog("f_t", t=s), tol=1e-8)
            assert result.distances[1] >= abs(math.sqrt(t) - math.sqrt(s)) - 1e-12
