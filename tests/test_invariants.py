import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from bsdkit import cli
from bsdkit.autgroups import random_isotropy_params
from bsdkit.cli import main
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
                             select_map, source_positions)

try:
    import resource
except ImportError:  # not on every platform
    resource = None

SRC = Path(__file__).resolve().parent.parent / "src"

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


def reference_spectra(f, degrees):
    """One ``np.linalg.svd`` per map and degree, of the map's own operator
    (the zero operator at a degree the map lacks)."""
    parts = homogeneous_parts(f)
    empty = polymap(f.source, f.target, {})
    return {d: np.linalg.svd(coefficient_operator(parts.get(d, empty), d), compute_uv=False)
            for d in degrees}


def reference_distance(a, b):
    """Sup distance over the degrees of two reference spectra."""
    return max((float(np.max(np.abs(a[d] - b[d]))) for d in a), default=0.0)


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


class TestStackedSpectra:
    """Spectra come from one SVD per degree over every map a query compares,
    and equal one SVD per map and degree bit for bit."""

    PAIRS = [(catalog("f_t", t=a), catalog("f_t", t=b))
             for a, b in [(0.0, 0.5), (0.2, 0.8), (0.4, 0.4)]]
    PAIRS += [(f, conjugate(f, random_isotropy_params(f.source, [9, k]),
                            random_isotropy_params(f.target, [10, k])))
              for k, f in enumerate(CATALOG_MAPS)]

    @pytest.mark.parametrize("f", CATALOG_MAPS)
    def test_invariant_spectrum_equals_the_per_map_reference(self, f):
        spectrum = invariant_spectrum(f)
        reference = reference_spectra(f, [d for d, _, _ in f.degrees])
        assert list(spectrum) == list(reference)
        for d in reference:
            assert spectrum[d].tobytes() == reference[d].tobytes()

    @pytest.mark.parametrize("f,g", PAIRS)
    def test_distinguish_equals_the_per_map_reference(self, f, g):
        degrees = sorted({d for m in (f, g) for d, _, _ in m.degrees})
        ref_f, ref_g = reference_spectra(f, degrees), reference_spectra(g, degrees)
        result = distinguish(f, g)
        assert result.distances == {d: float(np.max(np.abs(ref_f[d] - ref_g[d]))) for d in degrees}
        assert result.max_distance == reference_distance(ref_f, ref_g)

    @pytest.mark.parametrize("argv", [
        ["--family", "f_t", "--grid", "0:1:0.1"],
        ["--family", "G_t", "--dims", "2,2", "--grid", "0:1:0.05"],
        ["--family", "G_t", "--dims", "2,3", "--grid", "0:1:0.1"],
        ["--family", "h_t", "--grid", "0:1:0.1"],
        ["--family", "G_t", "--dims", "5,6", "--grid", "0:1:0.05"],
    ])
    def test_sweep_csv_equals_the_per_map_reference(self, tmp_path, argv):
        out = tmp_path / "m.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        grid = [float(t) for t in header.split(",")[1:]]
        dims = tuple(map(int, argv[argv.index("--dims") + 1].split(","))) if "--dims" in argv \
            else None
        maps = [select_map(argv[1], dims=dims, t=t) for t in grid]
        degrees = sorted({d for m in maps for d, _, _ in m.degrees})
        spectra = [reference_spectra(m, degrees) for m in maps]
        expected = [f"{t:.17g}," + ",".join(f"{reference_distance(a, b):.17g}" for b in spectra)
                    for t, a in zip(grid, spectra)]
        assert rows == expected

    def test_a_sweep_holds_one_grid_map_at_a_time(self, tmp_path, monkeypatch):
        argv = ["--family", "G_t", "--dims", "2,2", "--grid", "0:1:0.05"]
        built, alive, select_map, spectrum = [], [], cli.select_map, cli.invariant_spectrum

        def tracked(family, dims=None, t=None):
            m = select_map(family, dims=dims, t=t)
            built.append(weakref.ref(m))
            return m

        def counted(f):
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))
            return spectrum(f)

        monkeypatch.setattr(cli, "select_map", tracked)
        monkeypatch.setattr(cli, "invariant_spectrum", counted)
        assert main(["sweep", *argv, "--out", str(tmp_path / "m.csv")]) == 0
        assert len(built) == 22 and alive == [1] * 21  # the range pre-check's map is gone too

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_a_sweep_peak_stops_growing_past_one_block(self, tmp_path):
        # a sweep holds one grid map at a time; building every grid map before
        # the spectra peaked 19.5 MB higher at 201 points than at 101
        code = ("import resource, sys; from bsdkit.cli import main; "
                "main(['sweep', '--family', 'G_t', '--dims', '5,6', '--grid', sys.argv[1], "
                "'--out', sys.argv[2]]); print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs = [subprocess.Popen([sys.executable, "-c", code, grid, str(tmp_path / f"{k}.csv")],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for k, grid in enumerate(["0:1:0.01", "0:1:0.005"])]
        peaks = []
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            peaks.append(int(out) / (2**20 if sys.platform == "darwin" else 2**10))  # in MB
        assert peaks[1] - peaks[0] < 4.0, peaks

    def test_a_degree_one_map_lacks_compares_with_zeros(self):
        # degree 1 only against degrees 1 and 2, both I:1,2 -> I:1,3
        f, g = catalog("standard", r=1, s=2, r2=1, s2=3), catalog("whitney-ball", n=2)
        assert (f.source, f.target) == (g.source, g.target)
        for a, b in [(f, g), (g, f)]:
            result = distinguish(a, b)
            assert result.verdict == INEQUIVALENT
            assert result.distances == {1: 1.0, 2: 1.4142135623730951}

    def test_one_svd_per_degree(self, tmp_path, monkeypatch):
        stacks = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            stacks.append(np.shape(a)[:-2])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        f, g = catalog("f_t", t=0.2), catalog("f_t", t=0.8)
        invariant_spectrum(f)
        assert stacks == [(1,), (1,)]
        stacks.clear()
        distinguish(f, g)
        assert stacks == [(2,), (2,)]
        stacks.clear()
        argv = ["sweep", "--family", "f_t", "--grid", "0:1:0.1", "--out", str(tmp_path / "m.csv")]
        assert main(argv) == 0
        assert stacks == [(1,)] * 21  # per grid map and degree; f_t at t = 0 lacks degree 1
