import json
import math

import numpy as np
import pytest

import bsdkit.polymaps
import bsdkit.verify
from bsdkit.autgroups import (
    IV_FACTOR_CANDIDATES,
    _params_at,
    act_points,
    automorphy_denominators,
    random_automorphisms,
    random_isotropy_stack,
)
from bsdkit.domains import (generic_norms, key_generators, norm_gram, parse_spec, polarized_norm,
                            polarized_norms, sample_point, sample_points)
from bsdkit.errors import ConfigurationError, ParameterError, ShapeError
from bsdkit.invariants import INDISTINGUISHABLE, distinguish, invariant_spectrum
from bsdkit.polymaps import (catalog, coeff_distance, conjugate, embed_map, monomials_of_degree,
                             pad_map, polymap, select_map, source_positions, variable_names)
from bsdkit.verify import (
    _key_rows,
    _korobov_lattice,
    _least_squares_lead,
    _plan,
    _sample_pairs,
    check_F_U_lemma,
    check_coefficient_lemma,
    check_composition_rule,
    check_factorization,
    check_family_continuity,
    check_isotropy_consistency,
    check_properness,
    run_all,
    summarize,
)


class TestProperness:
    def test_standard_embedding_residual_is_roundoff(self):
        rep = check_properness(catalog("standard", r=2, s=2, r2=3, s2=3), n_samples=100, seed=1)
        assert rep.passed and rep.max_residual <= 1e-12

    @pytest.mark.parametrize("map_id,params", [
        ("gen-whitney", {"r": 2, "s": 2}),
        ("dangelo", {"n": 3, "theta": math.pi / 4}),
    ])
    def test_catalog_maps_send_boundary_to_boundary(self, map_id, params):
        rep = check_properness(catalog(map_id, **params), n_samples=500, tol=1e-7, seed=2)
        assert rep.passed

    def test_report_shape(self):
        rep = check_properness(catalog("whitney-ball", n=2), n_samples=50, seed=3)
        data = rep.to_dict()
        assert set(data) == {"check_id", "specs", "samples", "seed", "max_residual",
                             "tolerance", "pass", "notes"}
        assert data["pass"] == (data["max_residual"] <= data["tolerance"])


# The specs whose spectral values have a closed form: kind IV, Grams ZZ* of
# size 1 or 2 (I:1,n, I:2,s, III:1, III:2) and kind II of rank one (II:2, II:3).
CLOSED_FORM_SPECS = ("I:1,1", "I:1,4", "I:2,2", "I:2,3", "II:2", "II:3", "III:1", "III:2",
                     "IV:1", "IV:4")


class TestNoSvdOnTheSamplingPath:
    """Sampling, classification and the properness check read every point
    through ``domains._spectral_squares``: no SVD, no ``det``, and one
    ``eigvalsh`` per sampler attempt or image stack, none for the specs
    of ``CLOSED_FORM_SPECS``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        for name in ("svd", "eigvalsh", "eigh", "det"):
            def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                made.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return made

    @pytest.mark.parametrize("text", [*CLOSED_FORM_SPECS, "I:3,3", "I:3,5", "II:4", "II:5",
                                      "III:3"])
    def test_sample_and_classify(self, text, calls, monkeypatch):
        spec = parse_spec(text)
        per_stack = [] if text in CLOSED_FORM_SPECS else ["eigvalsh"]
        keys = _key_rows(7, np.arange(30))
        for region in ("interior", "boundary"):
            calls.clear()
            z = sample_points(spec, region, keys)
            assert calls == per_stack
            calls.clear()
            bsdkit.domains.classify_points(spec, z)
            assert calls == per_stack
        # Rejecting every other key once makes a second attempt.
        accepted, rounds = bsdkit.domains._accepted, []

        def second_attempt(region, z, margin):
            rounds.append(len(z))
            ok = accepted(region, z, margin)
            if len(rounds) == 1:
                ok[::2] = False
            return ok

        monkeypatch.setattr(bsdkit.domains, "_accepted", second_attempt)
        calls.clear()
        sample_points(spec, "boundary", keys)
        assert rounds == [30, 15] and calls == 2 * per_stack

    @pytest.mark.parametrize("map_id,params,expected", [
        ("whitney-ball", {"n": 2}, []),                               # I:1,2 -> I:1,3
        ("dangelo", {"n": 3, "theta": math.pi / 4}, []),              # I:1,3 -> I:1,6
        ("gen-whitney", {"r": 2, "s": 2}, ["eigvalsh"]),              # I:2,2 -> I:3,3
        ("h_t", {"t": 0.5}, ["eigvalsh"]),                            # III:2 -> III:4
        ("G_t", {"r": 3, "s": 3, "t": 0.5}, ["eigvalsh", "eigvalsh"]),  # I:3,3 -> I:5,6
    ])
    def test_properness(self, map_id, params, expected, calls):
        f = catalog(map_id, **params)
        calls.clear()
        check_properness(f, n_samples=40, seed=3)
        assert calls == expected  # the boundary samples, then their images

    def test_lie_algebra_scale(self, calls):
        # keys whose element is a boost: the first raw word of a key's stream
        # picks its type, and a clear bit 31 (what integers(2) == 0 reads) is
        # a boost; each boost stack takes its scale from one eigvalsh of Y*Y
        # and its exponential from one eigh of Y*Y
        for text in ("I:2,3", "II:4", "III:2", "IV:3"):
            rows = _key_rows(5, np.arange(12))
            rows = rows[[np.random.default_rng(row).integers(2) == 0 for row in rows]]
            random_automorphisms(parse_spec(text), rows)
        assert calls == ["eigvalsh", "eigh"] * 4


class TestFactorization:
    def test_whitney_ball_2_recovers_hand_expanded_factor(self):
        # 1 - |z1|^2 - |z1 z2|^2 - |z2^2|^2 = (1 - |z1|^2 - |z2|^2)(1 + |z2|^2),
        # so the ratio polynomial is 1 + z2 conj(w2)
        rep, coeffs = check_factorization(catalog("whitney-ball", n=2), degree_bound=2, seed=4)
        assert rep.passed
        assert coeffs["1"].real == pytest.approx(1.0, abs=1e-8)
        assert coeffs["z12*conj(w12)"].real == pytest.approx(1.0, abs=1e-8)
        assert all(abs(v) <= 1e-8 for k, v in coeffs.items() if k not in ("1", "z12*conj(w12)"))

    def test_standard_embedding_recovers_unit_factor(self):
        rep, coeffs = check_factorization(catalog("standard", r=2, s=2, r2=3, s2=3),
                                          degree_bound=2, seed=5)
        assert rep.passed
        assert set(coeffs) == {"1"}
        assert coeffs["1"].real == pytest.approx(1.0, abs=1e-10)

    def test_f_sec4_fit_converges(self):
        rep, _ = check_factorization(catalog("f-sec4"), degree_bound=4, tol=1e-7, seed=6)
        assert rep.passed

    def test_too_few_samples_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            check_factorization(catalog("whitney-ball", n=2), degree_bound=2, grid_size=3)

    def test_samples_are_lattice_pairs_plus_held_out_pairs(self):
        # 6 monomials of degree <= 2 in 2 variables: N = 7; 15 joint coefficients: 20 held out
        rep, _ = check_factorization(catalog("whitney-ball", n=2), degree_bound=2, seed=4)
        assert rep.samples == 7**2 + 20

    def test_grid_size_is_the_lattice_size(self):
        rep, coeffs = check_factorization(catalog("whitney-ball", n=2), degree_bound=2,
                                          grid_size=11, seed=4)
        assert rep.passed and rep.samples == 11**2 + 20
        assert set(coeffs) == {"1", "z12*conj(w12)"}
        # 6 = the monomial count, but no generator (1, a) mod 6 separates them
        with pytest.raises(ConfigurationError, match="^no rank-1 lattice of size 6 "):
            check_factorization(catalog("whitney-ball", n=2), degree_bound=2, grid_size=6)

    @staticmethod
    def inclusion(source_text, target_text):
        """The map that sends Z to itself, mirror entries included."""
        source, target = parse_spec(source_text), parse_spec(target_text)
        positions = source_positions(source)
        entries = {}
        for v, (i, j) in enumerate(positions):
            unit = tuple(int(u == v) for u in range(len(positions)))
            entries[(i, j)] = {unit: 1.0}
            if source.mirror and i != j:
                entries[(j, i)] = {unit: source.mirror}
        return polymap(source, target, entries)

    @pytest.mark.parametrize("source, target", [("III:2", "I:2,2"), ("IV:3", "IV:3")])
    def test_norm_preserving_inclusion_recovers_unit_factor(self, source, target):
        rep, coeffs = check_factorization(self.inclusion(source, target), degree_bound=2, seed=5)
        assert rep.passed and rep.max_residual <= 1e-13
        assert set(coeffs) == {"1"} and abs(coeffs["1"] - 1.0) <= 1e-12

    def test_kind_ii_in_kind_i_recovers_the_pfaffian_norm(self):
        # det(I - ZW*) = S_II(Z, W)^2 on II:3, so h = S_II = 1 - sum_{i<j} z_ij conj(w_ij)
        rep, coeffs = check_factorization(self.inclusion("II:3", "I:3,3"), degree_bound=2, seed=5)
        assert rep.passed and rep.max_residual <= 1e-13
        oracle = {"1": 1.0, "z12*conj(w12)": -1.0, "z13*conj(w13)": -1.0, "z23*conj(w23)": -1.0}
        assert set(coeffs) == set(oracle)
        assert all(abs(coeffs[k] - v) <= 1e-12 for k, v in oracle.items())

    def test_non_polynomial_ratio_fails(self):
        rep, _ = check_factorization(catalog("f_t", t=0.3), degree_bound=4, seed=6)
        assert not rep.passed and rep.max_residual > 1e-2

    def test_too_low_degree_bound_fails(self):
        # h = 1 + z12 conj(w12) has degree 2
        rep, coeffs = check_factorization(catalog("whitney-ball", n=2), degree_bound=1, seed=6)
        assert not rep.passed and rep.max_residual > 0.1
        assert set(coeffs) == {"1"}

    def test_non_interior_lattice_is_configuration_error(self, monkeypatch):
        classify_points = bsdkit.verify.classify_points

        def nowhere_interior(spec, z, tol=1e-9):
            regions, margins = classify_points(spec, z, tol)
            return np.full_like(regions, "boundary"), margins

        monkeypatch.setattr(bsdkit.verify, "classify_points", nowhere_interior)
        with pytest.raises(ConfigurationError, match="is not interior"):
            check_factorization(catalog("whitney-ball", n=2), degree_bound=2)

    def test_small_source_norm_on_the_lattice_is_configuration_error(self, monkeypatch):
        # Shrinking the source features by 0.05 scales every S1 by 0.0025.
        f = catalog("whitney-ball", n=2)
        features = bsdkit.verify.norm_features

        def shrunk(spec, z):
            phi, sigma = features(spec, z)
            return (0.05 * phi if spec == f.source else phi), sigma

        monkeypatch.setattr(bsdkit.verify, "norm_features", shrunk)
        with pytest.raises(ConfigurationError, match=r"\|S1\| < 0\.01"):
            check_factorization(f, degree_bound=2)


class TestKorobovLattice:
    # (nvars, D) of run_all's three factorization reports, and a 6-variable source
    @pytest.mark.parametrize("nvars, degree", [(2, 2), (4, 2), (4, 4), (6, 2)])
    def test_every_monomial_has_its_own_frequency(self, nvars, degree):
        size, g, exponents = _korobov_lattice(nvars, degree)
        expected = [e for d in range(degree + 1) for e in monomials_of_degree(nvars, d)]
        assert exponents.tolist() == [list(e) for e in expected]
        frequencies = exponents @ g % size
        assert len(set(frequencies.tolist())) == len(expected)
        a = int(g[1]) if nvars > 1 else 0
        assert g.tolist() == [pow(a, j, size) for j in range(nvars)]
        for smaller in range(len(expected), size):  # N is the smallest size with a generator
            with pytest.raises(ConfigurationError):
                _korobov_lattice(nvars, degree, smaller)

    def test_f_sec4_lattice_is_smaller_than_the_tensor_grid(self):
        assert _korobov_lattice(4, 4)[0] == 171 < 5**4

    def test_sizes_below_the_monomial_count_raise(self):
        for size in (-1, 0, 1, 5):
            with pytest.raises(ConfigurationError):
                _korobov_lattice(2, 2, size)


class TestFULemma:
    @pytest.mark.parametrize("text", ["I:2,2", "III:2"])
    def test_kind_i_iii_identity(self, text):
        rep = check_F_U_lemma(parse_spec(text), n_samples=200, tol=1e-9, seed=7)
        assert rep.passed

    def test_kind_ii_squared_identity(self):
        rep = check_F_U_lemma(parse_spec("II:3"), n_samples=200, tol=1e-9, seed=8)
        assert rep.passed
        assert any("squared" in n for n in rep.notes)

    def test_kind_iv_adjudication_finds_no_candidate(self):
        # The transformation constant measured on real group elements is 4
        # (the identity already forces it: lambda = 2i), so neither offered
        # candidate fits and the check reports that honestly.
        rep = check_F_U_lemma(parse_spec("IV:3"), n_samples=100, tol=1e-9, seed=9)
        assert not rep.passed
        assert any(n.startswith("empirical constant: 4") for n in rep.notes)
        assert any("no candidate constant fits" in n for n in rep.notes)

    @pytest.mark.parametrize("tol,passed,verdict", [
        (1e-9, False, "no candidate constant fits all samples"),
        (3.5, True, "adjudicated constant: 1"),
        # Both candidates (residuals 2.997 and 4.495) fit: the one report
        # that fails with its max residual within tolerance.
        (10.0, False, "multiple candidate constants fit"),
    ])
    def test_kind_iv_adjudication_outcomes(self, tol, passed, verdict):
        rep = check_F_U_lemma(parse_spec("IV:3"), n_samples=20, tol=tol, seed=42)
        assert rep.passed is passed
        assert rep.notes[-1] == verdict
        assert [n for n in rep.notes if n.startswith("candidate ")] == [
            "candidate 1: max residual 2.996636e+00", "candidate -0.5: max residual 4.494954e+00"]
        assert rep.max_residual == pytest.approx(2.996636, abs=1e-6)

    @pytest.mark.parametrize("text", ["IV:1", "IV:3", "IV:4"])
    def test_kind_iv_matches_the_diagonal_law(self, text):
        # The diagonal form of the law, from the public kernels:
        # |S(MZ) |lambda(Z)|^2 - c S(Z)| / max(1, |S(Z)|) for each candidate c,
        # on the check's own keys [seed, k, 0] (elements) and [seed, k, 1] (points).
        spec, n, seed = parse_spec(text), 200, 42
        ks = np.arange(n)

        def keys(stream):
            return np.stack([np.full(n, seed), ks, np.full(n, stream)], axis=1).astype(np.uint32)

        e = random_automorphisms(spec, keys(0))
        on_boundary = ks % 4 == 3
        z = np.empty((n, *spec.shape), dtype=complex)
        for region, mask in (("boundary", on_boundary), ("interior", ~on_boundary)):
            z[mask] = sample_points(spec, region, keys(1)[mask])
        s_z = generic_norms(spec, z)
        scaled = generic_norms(spec, act_points(e, z)) * np.abs(automorphy_denominators(e, z)) ** 2
        worst = {c: float(np.max(np.abs(scaled - c * s_z) / np.maximum(1.0, np.abs(s_z))))
                 for c in IV_FACTOR_CANDIDATES}
        rep = check_F_U_lemma(spec, n_samples=n, tol=1e-9, seed=seed)
        assert rep.max_residual == pytest.approx(min(worst.values()), rel=1e-14, abs=0.0)
        assert [note for note in rep.notes if note.startswith("candidate ")] == [
            f"candidate {c:g}: max residual {worst[c]:.6e}" for c in IV_FACTOR_CANDIDATES]

    def test_kind_iv_with_no_large_norm_sample_says_so(self):
        # seed 2's one sample has |S(Z, Z)| <= 0.1, so no ratio enters the median
        rep = check_F_U_lemma(parse_spec("IV:3"), n_samples=1, seed=2)
        [note] = [n for n in rep.notes if n.startswith("empirical constant:")]
        assert note == "empirical constant: none (no sample has |S(Z, Z)| > 0.1)"

    @pytest.mark.parametrize("n", range(2, 7))
    def test_kind_ii_determinant_is_the_squared_pfaffian_norm(self, n):
        # S(Z, W)^2 = det(I - ZW*) (Loos 1977): the squared law that the check
        # reads from det(I - ZW*) is the Pfaffian norm's, on interior and
        # boundary Z against interior W.
        spec, ks = parse_spec(f"II:{n}"), np.arange(100)
        z = np.concatenate([sample_points(spec, region, _key_rows(11, ks, 1))
                            for region in ("interior", "boundary")])
        w = np.concatenate([sample_points(spec, "interior", _key_rows(11, ks, 2))] * 2)
        squared = polarized_norms(spec, z, w) ** 2
        det = np.linalg.det(norm_gram(z, w))
        assert np.all(np.abs(det - squared) <= 1e-13 * np.abs(squared))

    def test_run_all_makes_no_pfaffian_call(self, monkeypatch):
        calls = []
        for module in (bsdkit.domains, bsdkit.linalg):
            def counted(*args, _real=module.pfaffian, **kwargs):
                calls.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "pfaffian", counted)
        polarized_norms(parse_spec("II:4"), np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))
        assert len(calls) == 1  # the counter sees the kind II polarized norm
        calls.clear()
        run_all(42)
        assert calls == []

    @pytest.mark.parametrize("text", ["I:1,1", "I:2,3", "II:2", "II:5", "III:1", "III:3", "IV:1",
                                      "IV:4"])
    def test_one_action_and_one_denominator_call_per_report(self, text, monkeypatch):
        spec, calls = parse_spec(text), []
        for name in ("act_points", "automorphy_denominators", "polarized_norms", "norm_gram"):
            def counted(*args, _name=name, _real=getattr(bsdkit.verify, name)):
                calls.append((_name, args[-1].shape))
                return _real(*args)

            monkeypatch.setattr(bsdkit.verify, name, counted)
        assert check_F_U_lemma(spec, n_samples=30, seed=12).passed is (spec.kind != "IV")
        # Z and W as one (sample, 2) stack for every kind (kind IV's W is Z);
        # the norms of (Z, MZ) against (W, MW), kind II's as det(I - ZW*)
        points = (30, 2, *spec.shape)
        norm = "norm_gram" if spec.kind == "II" else "polarized_norms"
        assert calls == [("act_points", points), ("automorphy_denominators", points),
                         (norm, points)]

    def test_every_report_samples_z_from_one_boundary_and_one_interior_key_stack(self,
                                                                                 monkeypatch):
        sampler, stacks = bsdkit.verify.sample_points, []

        def record(spec, region, keys):
            stacks[-1].append((region, keys.tolist()))
            return sampler(spec, region, keys)

        monkeypatch.setattr(bsdkit.verify, "sample_points", record)
        rows = [row for row in _plan(42, 10, 20) if row[0].startswith("fu:")]
        assert len(rows) == 10
        for check_id, check, args, kwargs in rows:
            stacks.append([])
            check(*args, check_id=check_id, **kwargs)
        # Z of every kind from the keys [seed, k, 1]: boundary where k % 4 == 3
        ks = np.arange(20)
        z_keys = [("boundary", _key_rows(42, ks[ks % 4 == 3], 1).tolist()),
                  ("interior", _key_rows(42, ks[ks % 4 != 3], 1).tolist())]
        assert [calls[:2] for calls in stacks] == [z_keys] * 10
        # W of kinds I/II/III from [seed, k, 2]; kind IV's W is Z
        w_keys = [("interior", _key_rows(42, ks, 2).tolist())]
        assert [calls[2:] for calls in stacks] == [w_keys] * 8 + [[]] * 2

    def test_deterministic_reports(self):
        a = check_F_U_lemma(parse_spec("I:2,2"), n_samples=50, seed=10).to_dict()
        b = check_F_U_lemma(parse_spec("I:2,2"), n_samples=50, seed=10).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestCompositionRule:
    def test_unit_inner_factor(self):
        rep = check_composition_rule(
            catalog("standard", r=1, s=3, r2=1, s2=5), catalog("whitney-ball", n=2),
            n_samples=100, tol=1e-10, seed=11)
        assert rep.passed

    def test_whitney_chain(self):
        rep = check_composition_rule(
            catalog("whitney-ball", n=3), catalog("whitney-ball", n=2),
            n_samples=100, tol=1e-9, seed=12)
        assert rep.passed

    def test_gen_whitney_chain(self):
        rep = check_composition_rule(
            catalog("gen-whitney", r=3, s=3), catalog("gen-whitney", r=2, s=2),
            n_samples=100, tol=1e-8, seed=13)
        assert rep.passed

    def test_rejects_non_composable(self):
        with pytest.raises(ShapeError):
            check_composition_rule(catalog("whitney-ball", n=2), catalog("whitney-ball", n=2))


class TestCoefficientLemma:
    def test_disc_coefficient_is_minus_one(self):
        rep = check_coefficient_lemma(parse_spec("I:1,1"), 0, 0, n_bases=5, seed=14)
        assert rep.passed and rep.max_residual <= 1e-10

    def test_kind_i_2x2(self):
        rep = check_coefficient_lemma(parse_spec("I:2,2"), 1, 0, n_bases=20, tol=1e-6, seed=15)
        assert rep.passed

    def test_kind_iii_diagonal(self):
        rep = check_coefficient_lemma(parse_spec("III:2"), 0, 0, n_bases=20, tol=1e-6, seed=16)
        assert rep.passed

    def test_kind_ii_quartic(self):
        rep = check_coefficient_lemma(parse_spec("II:4"), 0, 1, n_bases=20, tol=1e-6, seed=17)
        assert rep.passed

    def test_rejects_bad_index(self):
        with pytest.raises(ParameterError):
            check_coefficient_lemma(parse_spec("II:4"), 2, 1)
        with pytest.raises(ParameterError):
            check_coefficient_lemma(parse_spec("I:2,2"), 2, 0)

    @pytest.mark.parametrize("text,i,j", [("II:3", 1, 1), ("III:3", 2, 0), ("IV:3", 0, 0)])
    def test_rejects_dependent_positions_and_kind_iv(self, text, i, j):
        with pytest.raises(ParameterError):
            check_coefficient_lemma(parse_spec(text), i, j)


def force_degenerate_bases(monkeypatch, bases, every_draw=False):
    """Make the bases ``bases`` of a coefficient lemma check on I:2,2 at (1, 1)
    degenerate on their first draw (or on every draw): their z22 becomes 1,
    so the minor det(1 - |z22|^2) vanishes.  Returns the (keys, points) of
    every ``sample_points`` call the check makes."""
    sampler = bsdkit.verify.sample_points
    calls = []

    def forced(spec, region, keys):
        points = sampler(spec, region, keys).copy()
        points[np.isin(keys[:, 1], bases) & (every_draw or keys.shape[1] == 2)] = np.diag([0, 1])
        calls.append((keys, points))
        return points

    monkeypatch.setattr(bsdkit.verify, "sample_points", forced)
    return calls


class TestCoefficientLemmaRedraw:
    def test_a_degenerate_base_redraws_from_its_own_key(self, monkeypatch):
        spec = parse_spec("I:2,2")
        assert check_coefficient_lemma(spec, 0, 0, n_bases=8, seed=5).notes == []
        calls = force_degenerate_bases(monkeypatch, [2, 5])
        report = check_coefficient_lemma(spec, 0, 0, n_bases=8, seed=5)
        (first, _), (again, redrawn) = calls
        assert first.tolist() == [[5, a] for a in range(8)]
        assert again.tolist() == [[5, 2, 1], [5, 5, 1]]
        for key, base in zip(again.tolist(), redrawn):
            assert np.array_equal(base, sample_point(spec, "interior", key).value)
        assert report.notes == ["2 degenerate bases resampled"] and report.passed

    def test_a_check_whose_every_draw_is_degenerate_raises(self, monkeypatch):
        force_degenerate_bases(monkeypatch, np.arange(8), every_draw=True)
        with pytest.raises(ConfigurationError, match="too many degenerate bases while sampling"):
            check_coefficient_lemma(parse_spec("I:2,2"), 0, 0, n_bases=8, seed=5)


class TestLemmaIndices:
    SPEC = parse_spec("I:2,2")

    @pytest.mark.parametrize("i,j", [(0.0, 1), (1, 0.0), ("1", 0), (None, 0), (1.5, 0)])
    def test_non_integer_indices_are_a_parameter_error(self, i, j):
        with pytest.raises(ParameterError, match="not an integer pair"):
            check_coefficient_lemma(self.SPEC, i, j, n_bases=4)

    def test_integer_like_indices_give_the_integer_report(self):
        ints = check_coefficient_lemma(self.SPEC, 1, 0, n_bases=4, seed=3)
        for i, j in ((np.int64(1), np.int32(0)), (True, 0)):
            assert check_coefficient_lemma(self.SPEC, i, j, n_bases=4, seed=3) == ints
        assert ints.check_id == "coeff:I:2,2:(2,1)"


class TestLeastSquaresRow:
    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    @pytest.mark.parametrize("degree", [2, 4])
    def test_the_row_gives_polyfits_leading_coefficient(self, degree, noise):
        nodes, row = _least_squares_lead(degree)
        assert np.array_equal(nodes, np.linspace(-0.7, 0.7, degree + 3))
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-2.0, 2.0, (50, degree + 1))
        coeffs[:, 0] = rng.choice([-1.0, 1.0], 50) * rng.uniform(0.5, 2.0, 50)
        values = np.array([np.polyval(c, nodes) for c in coeffs])
        values += noise * rng.standard_normal(values.shape)
        lead = values @ row
        np.testing.assert_allclose(lead, np.polyfit(nodes, values.T, degree)[0], rtol=1e-12, atol=0)
        if not noise:
            np.testing.assert_allclose(lead, coeffs[:, 0], rtol=1e-12, atol=0)

    def test_the_row_is_built_once_and_read_only(self):
        assert _least_squares_lead(4) is _least_squares_lead(4)
        for a in _least_squares_lead(4):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestZeroPaddedMinor:
    @pytest.mark.parametrize("text", ["I:1,1", "I:1,3", "I:2,3", "I:3,3", "I:4,5", "II:2", "II:3",
                                      "II:4", "II:6", "III:1", "III:2", "III:3"])
    def test_the_padded_member_has_the_dropped_minors_determinant(self, text, monkeypatch):
        """Member 0 of each base's determinant stack is the base with the dropped
        rows and columns zeroed, and its determinant is that of the minor
        without them, at every independent position of the spec."""
        spec = parse_spec(text)
        real = bsdkit.verify._norm_square_poly_values
        stacks = []

        def recorded(z):
            values = real(z)
            stacks.append((z.copy(), values))
            return values

        monkeypatch.setattr(bsdkit.verify, "_norm_square_poly_values", recorded)
        for i, j in source_positions(spec):
            stacks.clear()
            check_coefficient_lemma(spec, i, j, n_bases=4, seed=9)
            [(z, values)] = stacks
            rows, cols = ([i, j], [i, j]) if spec.mirror and i != j else ([i], [j])
            base = z[:, 1]  # the minor does not read z_ij or its mirror
            kept = np.delete(np.delete(base, rows, axis=1), cols, axis=2)
            padded = base.copy()
            padded[:, rows] = 0.0
            padded[:, :, cols] = 0.0
            assert np.array_equal(z[:, 0], padded)
            minor = np.eye(kept.shape[1]) - kept @ np.conj(kept).swapaxes(1, 2)
            np.testing.assert_allclose(values[:, 0], np.linalg.det(minor).real, rtol=0, atol=1e-14)


class TestOneDetPerCoefficientAttempt:
    """A coefficient lemma report takes one ``det`` stack per sampling attempt,
    the minors with the grid, and fits with the cached least-squares row: no
    ``lstsq``, ``svd`` or ``np.polyfit`` once the row is built."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        for owner, name in ((np.linalg, "det"), (np.linalg, "lstsq"), (np.linalg, "svd"),
                            (np, "polyfit")):
            def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
                made.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return made

    @pytest.mark.parametrize("text,i,j", [("I:2,2", 0, 0), ("I:2,3", 1, 2), ("II:4", 0, 1),
                                          ("III:3", 1, 1), ("III:3", 0, 2)])
    def test_one_det_without_a_redraw(self, text, i, j, calls):
        check_coefficient_lemma(parse_spec(text), i, j, n_bases=8, seed=5)  # builds the row
        calls.clear()
        report = check_coefficient_lemma(parse_spec(text), i, j, n_bases=8, seed=5)
        assert report.notes == [] and calls == ["det"]

    def test_two_dets_under_one_redraw(self, calls, monkeypatch):
        force_degenerate_bases(monkeypatch, [2, 5])
        check_coefficient_lemma(parse_spec("I:2,2"), 0, 0, n_bases=8, seed=5)  # builds the row
        calls.clear()
        report = check_coefficient_lemma(parse_spec("I:2,2"), 0, 0, n_bases=8, seed=5)
        assert report.notes == ["2 degenerate bases resampled"] and calls == ["det", "det"]


class TestSampleCounts:
    CHECKS = {
        "properness": lambda k: check_properness(catalog("f-sec4"), n_samples=k),
        "isotropy": lambda k: check_isotropy_consistency(catalog("f_t", t=0.3), n_trials=k),
        "coeff": lambda k: check_coefficient_lemma(parse_spec("I:2,2"), 0, 0, n_bases=k),
        "fu": lambda k: check_F_U_lemma(parse_spec("I:2,2"), n_samples=k),
        "composition": lambda k: check_composition_rule(
            catalog("standard", r=1, s=3, r2=1, s2=5), catalog("whitney-ball", n=2), n_samples=k),
    }

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_non_positive_count_is_a_parameter_error(self, check, count):
        with pytest.raises(ParameterError, match="must be positive"):
            self.CHECKS[check](count)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_one_sample_runs(self, check):
        assert self.CHECKS[check](1).samples == 1

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_a_non_integer_count_is_a_parameter_error(self, check):
        # 2.5 used to draw 3 samples and record 2.5, or to raise an untyped TypeError
        for count in (2.5, 2.0, "2", None):
            with pytest.raises(ParameterError, match=r"^n_\w+ must be an integer, got "):
                self.CHECKS[check](count)

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_an_integer_count_is_recorded_as_an_int(self, check):
        for count, want in ((np.int64(2), 2), (True, 1)):
            report = self.CHECKS[check](count)
            assert type(report.samples) is int and report.samples == want
            assert report.to_dict() == self.CHECKS[check](want).to_dict()

    def test_run_all_takes_its_counts_through_the_same_rule(self):
        with pytest.raises(ParameterError, match="^n_samples must be an integer, got 2.5$"):
            run_all(42, properness_samples=2.5, fu_samples=2)


class TestFactorizationCounts:
    WHITNEY = catalog("whitney-ball", n=2)

    @pytest.mark.parametrize("kwargs,message", [
        ({"degree_bound": -1}, "degree_bound must be nonnegative, got -1"),
        ({"degree_bound": 1.5}, "degree_bound must be an integer, got 1.5"),
        ({"degree_bound": None}, "degree_bound must be an integer, got None"),
        ({"grid_size": 100.0}, "grid_size must be an integer, got 100.0"),
        ({"grid_size": 0}, "grid_size must be positive, got 0"),
    ])
    def test_a_bad_count_is_a_parameter_error(self, kwargs, message):
        # not the ValueError of math.comb or an untyped TypeError
        with pytest.raises(ParameterError, match=f"^{message}$"):
            check_factorization(self.WHITNEY, **kwargs)

    def test_integer_counts_give_the_int_report(self):
        report, coeffs = check_factorization(self.WHITNEY, degree_bound=np.int64(1),
                                             grid_size=np.int32(11), seed=6)
        want, want_coeffs = check_factorization(self.WHITNEY, degree_bound=1, grid_size=11, seed=6)
        assert type(report.samples) is int
        assert report.to_dict() == want.to_dict() and coeffs == want_coeffs


class TestIsotropyConsistency:
    def test_f_t_invariance(self):
        rep = check_isotropy_consistency(catalog("f_t", t=0.3), n_trials=100, tol=1e-10, seed=18)
        assert rep.passed

    def test_negative_control_nearby_parameters(self):
        from bsdkit.invariants import distinguish

        result = distinguish(catalog("f_t", t=0.30), catalog("f_t", t=0.31), tol=1e-8)
        assert result.verdict == "inequivalent"
        assert result.distances[1] >= abs(math.sqrt(0.31) - math.sqrt(0.30)) - 1e-12


def reference_isotropy_report(f, n_trials, tol, seed, check_id):
    """The isotropy check one trial at a time: ``distinguish`` against one
    ``conjugate`` per trial, over the same parameter stacks."""
    trials = np.arange(n_trials)
    pre = random_isotropy_stack(f.source, _key_rows(seed, trials, 0))
    post = random_isotropy_stack(f.target, _key_rows(seed, trials, 1))
    worst, failures = 0.0, 0
    for k in trials:
        result = distinguish(f, conjugate(f, _params_at(pre, k), _params_at(post, k)), tol)
        worst = max(worst, result.max_distance)
        failures += result.verdict != INDISTINGUISHABLE
    return {"check_id": check_id, "specs": [str(f.source), str(f.target)], "samples": n_trials,
            "seed": seed, "max_residual": worst, "tolerance": tol,
            "pass": worst <= tol and failures == 0,
            "notes": [f"{failures} conjugations declared inequivalent"] if failures else []}


STACKED_ISOTROPY_MAPS = {
    "f_t(0.3)": catalog("f_t", t=0.3),
    "gen-whitney(2,2)": catalog("gen-whitney", r=2, s=2),
    "IV:3->I:1,3": polymap(parse_spec("IV:3"), parse_spec("I:1,3"), {
        (0, 0): {(1, 0, 0): 0.8}, (0, 1): {(0, 1, 0): 0.8, (1, 0, 1): 0.3},
        (0, 2): {(0, 0, 1): 0.6j, (2, 0, 0): -0.2}}),
}


class TestStackedIsotropyCheck:
    @pytest.mark.parametrize("tol", [1e-10, 0.0])
    @pytest.mark.parametrize("seed", [42, 7, 2**32 + 5])  # 2**32 + 5 has two seed words
    @pytest.mark.parametrize("name", sorted(STACKED_ISOTROPY_MAPS))
    def test_equals_one_conjugate_and_distinguish_per_trial(self, name, seed, tol):
        f = STACKED_ISOTROPY_MAPS[name]
        report = check_isotropy_consistency(f, n_trials=30, tol=tol, seed=seed, check_id=name)
        assert report.to_dict() == reference_isotropy_report(f, 30, tol, seed, name)
        if tol == 0.0:  # roundoff distances: the failure count and its note are compared too
            assert not report.passed and report.notes

    def test_a_map_with_a_constant_term_raises(self):
        f = polymap(parse_spec("I:1,1"), parse_spec("I:1,2"), {(0, 0): {(0,): 0.1, (1,): 1.0}})
        with pytest.raises(ParameterError, match="^first map does not preserve the origin$"):
            check_isotropy_consistency(f, n_trials=3)

    def test_one_svd_per_degree_for_the_map_and_for_the_trial_stack(self, monkeypatch):
        # 400 calls with one conjugate and distinguish per trial (100 trials, 2 degrees, 2 maps)
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        f = catalog("f_t", t=0.3)
        check_isotropy_consistency(f)
        assert len(f.degrees) == 2
        assert len(calls) <= 2 * len(f.degrees)


class TestFamilyContinuity:
    def test_f_t_holder_continuity(self):
        rep = check_family_continuity("f_t", [k / 100 for k in range(101)])
        assert rep.passed and rep.notes == []

    def test_f_t_at_zero_is_g_sec4_padded(self):
        assert catalog("f_t", t=0) == pad_map(catalog("g-sec4"), parse_spec("I:4,4"))

    def test_f_t_at_one_is_f_sec4_embedded_but_for_one_term(self):
        # f_t(1) has z22^2 at (3,3) (1-based), which f-sec4 embedded at rows
        # and columns 1, 2 and 4 has not; the degree-1 parts agree.
        end = catalog("f_t", t=1)
        embedded = embed_map(catalog("f-sec4"), parse_spec("I:4,4"), [0, 1, 3], [0, 1, 3])
        terms = [{(pos, exps): c for pos, row in m.entries.items() for exps, c in row.items()}
                 for m in (end, embedded)]
        differ = {key: [t.get(key, 0) for t in terms]
                  for key in {*terms[0], *terms[1]} if terms[0].get(key) != terms[1].get(key)}
        z22 = tuple(int(name == "z22") * 2 for name in variable_names(end.source))
        assert differ == {((2, 2), z22): [1, 0]}
        spectra = [invariant_spectrum(m) for m in (end, embedded)]
        assert np.allclose(spectra[0][1], spectra[1][1], rtol=0, atol=1e-12)
        assert not np.allclose(spectra[0][2], spectra[1][2], rtol=0, atol=1e-3)

    def test_h_t_symmetry_note(self):
        rep = check_family_continuity("h_t", [k / 10 for k in range(11)])
        assert rep.passed

    @pytest.mark.parametrize("family,grid", [("f_t", []), ("f_t", [0.3]), ("g_t", [0.5, 0.5])])
    def test_a_grid_of_fewer_than_two_distinct_points_is_rejected(self, family, grid):
        # such a grid compares no maps, so its report would pass with max_residual 0.0
        with pytest.raises(ParameterError, match="needs two distinct points"):
            check_family_continuity(family, grid)

    @pytest.mark.parametrize("family,dims", [("f_t", None), ("g_t", None), ("h_t", None),
                                             ("G_t", (2, 2)), ("G_t", (2, 3))])
    def test_residual_is_the_coefficient_distance_of_adjacent_maps(self, family, dims):
        grid = [0.7, 0, 0.35, 0.35, 1, 0.05]
        points = sorted(set(grid))
        maps = [select_map(family, dims, t=t) for t in points]
        expected = max(coeff_distance(m0, m1) / math.sqrt(t1 - t0)
                       for t0, t1, m0, m1 in zip(points, points[1:], maps, maps[1:]))
        rep = check_family_continuity(family, grid, dims=dims)
        assert rep.max_residual == expected
        assert (rep.specs, rep.samples) == ([str(maps[0].source), str(maps[0].target)], 6)

    @pytest.mark.parametrize("family,dims", [("f_t", None), ("h_t", None), ("G_t", (2, 2))])
    def test_a_report_builds_at_most_one_map(self, family, dims, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return polymap(*args)

        monkeypatch.setattr(bsdkit.polymaps, "polymap", counted)
        check_family_continuity(family, [k / 100 for k in range(101)], dims=dims)
        assert len(built) <= 1

    @pytest.mark.parametrize("family,dims,grid,offending", [
        ("f_t", None, [0.0, 1.5], 1.5), ("g_t", None, [0.0, 1.5], 1.5),
        ("h_t", None, [0.0, 1.5], 1.5), ("G_t", (2, 3), [0.2, 1.5, 0.5], 1.5),
        ("f_t", None, [0.5, -0.1, 0.2], -0.1), ("h_t", None, [1.5, 0.5, -0.1], -0.1),
        ("f_t", None, [0.0, float("nan"), 0.5], float("nan")),
    ])
    def test_a_grid_point_outside_the_unit_interval_gets_the_builder_error(
            self, family, dims, grid, offending):
        with pytest.raises(ParameterError) as builder:
            select_map(family, dims, t=offending)
        assert "family parameter t must lie in [0, 1]" in str(builder.value)
        with pytest.raises(ParameterError) as info:
            check_family_continuity(family, grid, dims=dims)
        assert str(info.value) == str(builder.value)

    @pytest.mark.parametrize("family,dims,message", [
        ("f_t", (2, 2), "f_t takes 0 dimensions, got 2 in --dims"),
        ("G_t", None, "G_t needs --dims r,s and --t"),
        ("G_t", (2, 2, 2), "G_t takes 2 dimensions, got 3 in --dims"),
    ])
    def test_bad_dims_get_the_selector_error(self, family, dims, message):
        with pytest.raises(ParameterError) as builder:
            select_map(family, dims, t=0.5)
        assert str(builder.value) == message
        with pytest.raises(ParameterError) as info:
            check_family_continuity(family, [0.0, 1.5], dims=dims)
        assert str(info.value) == message

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError, match="^unknown family 'q_t'$"):
            check_family_continuity("q_t", [0.0, 1.0])


class TestSuite:
    def test_summarize_counts(self):
        reports = [check_properness(catalog("whitney-ball", n=2), n_samples=20, seed=19)]
        s = summarize(reports)
        assert s == {"total": 1, "passed": 1, "failed": 0}

    def test_every_report_passes_exactly_when_its_max_residual_is_within_tolerance(self):
        reports = run_all(seed=42)
        assert len(reports) == 88
        for r in reports:
            assert r.passed == (r.max_residual <= r.tolerance), r.check_id

    def test_the_plan_states_every_report_id_in_report_order(self):
        ids = [check_id for check_id, _, _, _ in _plan(42, 500, 200)]
        assert len(set(ids)) == len(ids) == 88
        assert ids == [r.check_id for r in run_all(7, properness_samples=10, fu_samples=10)]

    def test_run_all_is_deterministic(self):
        a = run_all(seed=123, properness_samples=20, fu_samples=20)
        b = run_all(seed=123, properness_samples=20, fu_samples=20)
        ja = json.dumps([r.to_dict() for r in a], sort_keys=True)
        jb = json.dumps([r.to_dict() for r in b], sort_keys=True)
        assert ja == jb


def recorded_run_all(monkeypatch, seed):
    """run_all(seed) at 10 properness and F_U samples, and every check call it
    made, as (check, args, kwargs, result) in call order."""
    calls = []
    with monkeypatch.context() as patch:
        for name in [n for n in bsdkit.verify.__all__ if n.startswith("check_")]:
            def record(*args, _check=getattr(bsdkit.verify, name), **kwargs):
                out = _check(*args, **kwargs)
                calls.append((_check, args, kwargs, out))
                return out

            patch.setattr(bsdkit.verify, name, record)
        reports = run_all(seed, properness_samples=10, fu_samples=10)
    return reports, calls


def record_hashed_stacks(monkeypatch):
    """A list that gains each key stack ``domains._pool_states`` hashes from
    now on, as ``(shape, bytes)``."""
    stacks = []
    pool_states = bsdkit.domains._pool_states

    def recorded(rows):
        stacks.append((rows.shape, rows.tobytes()))
        return pool_states(rows)

    monkeypatch.setattr(bsdkit.domains, "_pool_states", recorded)
    return stacks


def count_sampled_keys(monkeypatch):
    """A list that gains the number of generators ``domains.key_generators``
    builds on each call from now on: for every draw of ``sample_points``,
    ``random_isotropy_stack`` and ``random_automorphisms``, which all read
    their keys' streams through ``domains._first_draws``."""
    counts = []
    build = bsdkit.domains.key_generators

    def counted(keys):
        rngs = build(keys)
        counts.append(len(rngs))
        return rngs

    monkeypatch.setattr(bsdkit.domains, "key_generators", counted)
    return counts


class TestSampleMemo:
    @pytest.mark.parametrize("seed", [42, 2**32 + 5])
    def test_run_all_equals_the_checks_called_one_at_a_time(self, monkeypatch, seed):
        reports, calls = recorded_run_all(monkeypatch, seed)
        assert len(calls) == len(reports) == 88
        for report, (check, args, kwargs, out) in zip(reports, calls):
            alone = check(*args, **kwargs)
            if isinstance(alone, tuple):  # factorization: (report, coefficients)
                assert alone[1] == out[1]
                alone = alone[0]
            assert alone.to_dict() == report.to_dict()

    def test_a_repeated_stack_is_one_read_only_array(self, monkeypatch):
        sampler = bsdkit.verify.sample_points
        stacks = {}

        def record(spec, region, keys):
            points = sampler(spec, region, keys)
            stacks.setdefault((spec, region, keys.shape, keys.tobytes()), []).append(points)
            return points

        monkeypatch.setattr(bsdkit.verify, "sample_points", record)
        run_all(42, properness_samples=10, fu_samples=10)
        repeated = [calls for calls in stacks.values() if len(calls) > 1]
        assert len(repeated) >= 13  # 22 properness reports on 6 stacks, 44 coefficient on 7
        for first, *later in repeated:
            assert all(points is first for points in later)
            assert not first.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 0.0

    def test_memo_closes_when_run_all_returns_or_raises(self, monkeypatch):
        counts = count_sampled_keys(monkeypatch)
        run_all(7, properness_samples=10, fu_samples=10)
        first = sum(counts)
        assert bsdkit.domains._SAMPLE_MEMO.get() is None
        keys = _key_rows(7, np.arange(10))
        a = sample_points(parse_spec("I:2,2"), "boundary", keys)
        b = sample_points(parse_spec("I:2,2"), "boundary", keys)
        assert a is not b and a.flags.writeable and np.array_equal(a, b)
        counts.clear()
        run_all(7, properness_samples=10, fu_samples=10)
        assert sum(counts) == first > 0

        def stop(*args, **kwargs):
            raise ConfigurationError("stop")

        monkeypatch.setattr(bsdkit.verify, "check_composition_rule", stop)
        with pytest.raises(ConfigurationError, match="^stop$"):
            run_all(7, properness_samples=10, fu_samples=10)
        assert bsdkit.domains._SAMPLE_MEMO.get() is None
        # no seed states outlive the run: each call hashes its stack again
        hashed = record_hashed_stacks(monkeypatch)
        key_generators(keys), key_generators(keys)
        assert len(hashed) == 2

    def test_run_all_builds_one_generator_per_distinct_sample_key(self, monkeypatch):
        # Every key is seeded by domains._first_draws.  The points seed each
        # row of a boundary stack once (its tape is 100 normals deep, and no
        # boundary spec reads more): 50 + 500 = 550.  An interior stack
        # seeds each row once per normal count: the 150 F_U Z rows under 6
        # counts (8, 12, 18, 32, 50, 6), the 200 F_U W rows under 5, 20 under
        # 5, two stacks of 100 under 2 (4, 8), and two each of 20, 33 and 371
        # under 1: 3,248, so 3,798 in all.  The 200 keys of the 8 kind
        # I/II/III F_U reports' element tape are seeded once (100 normals
        # deep, as deep as II:5 reads), the 2 x 100 keys of the two isotropy
        # reports' stacks once, since both read prefixes of the same tapes,
        # and the 200 keys of each of the 2 kind IV F_U reports once: 4,598.
        counts = count_sampled_keys(monkeypatch)
        run_all(42)
        assert sum(counts) == 4598

    def test_no_generator_outlives_a_sampler_call(self, monkeypatch):
        memos = []

        def generators_in(value):
            if isinstance(value, np.random.Generator):
                return 1
            if isinstance(value, dict):
                value = [*value.keys(), *value.values()]
            if isinstance(value, (list, tuple)):
                return sum(map(generators_in, value))
            return 0

        def checked(sampler):
            def call(*args):
                out = sampler(*args)
                memos.append(bsdkit.domains._SAMPLE_MEMO.get())
                assert generators_in(memos[-1]) == 0
                return out

            return call

        for name in ("sample_points", "random_automorphisms"):
            monkeypatch.setattr(bsdkit.verify, name, checked(getattr(bsdkit.verify, name)))
        run_all(42, properness_samples=10, fu_samples=10)
        memo = memos[0]
        assert all(m is memo for m in memos)
        assert generators_in(memo) == 0
        # the first draws: (words, normals, uniforms), arrays or None
        draws = [v for k, v in memo.items() if k[0] == "draws"]
        assert len(draws) >= 10
        assert all(a is None or isinstance(a, np.ndarray) for v in draws for a in v)
        # one element tape, a raw word and then normals per key
        [(words, tape, none)] = [v for k, v in memo.items() if k[:3] == ("draws", True, False)]
        assert words.dtype == np.uint64 and tape.ndim == 2 and none is None

    def test_run_all_hashes_each_distinct_key_stack_once(self, monkeypatch):
        # the samplers, random_automorphisms and random_isotropy_stack share
        # 16 stacks
        hashed = record_hashed_stacks(monkeypatch)
        run_all(42)
        assert len(set(hashed)) == len(hashed) == 16
        assert sum(shape[0] for shape, _ in hashed) == 2368


class TestFirstAttempts:
    @pytest.mark.parametrize("seed", [42, 7, 1234])
    def test_run_all_accepts_every_sampler_candidate_on_its_first_attempt(self, seed,
                                                                         monkeypatch):
        # So no report of run_all reads a redraw, the one draw whose stream
        # rule differs after a zero direction (whose candidate never reaches
        # _accepted, so the blocks each read asks for are checked too).
        accepted, first_draws = bsdkit.domains._accepted, bsdkit.domains._first_draws
        verdicts, read_blocks = [], set()

        def recorded(region, candidates, margin):
            out = accepted(region, candidates, margin)
            verdicts.append(bool(out.all()))
            return out

        def counted(rows, counts, word=False, uniform=False):
            read_blocks.add(len(counts))
            return first_draws(rows, counts, word, uniform)

        monkeypatch.setattr(bsdkit.domains, "_accepted", recorded)
        # the samplers' reads only: autgroups calls its own imported name
        monkeypatch.setattr(bsdkit.domains, "_first_draws", counted)
        run_all(seed)
        assert len(verdicts) > 40 and all(verdicts)
        assert read_blocks == {1}


def reference_pair(spec, seed, k, threshold):
    """One key at a time: attempt a draws z from [seed, k, 2a] and w from
    [seed, k, 2a + 1] until |S1(z, w)| reaches the threshold."""
    for attempt in range(64):
        z = sample_point(spec, "interior", [seed, k, 2 * attempt])
        w = sample_point(spec, "interior", [seed, k, 2 * attempt + 1])
        s1 = polarized_norm(z, w)
        if abs(s1) >= threshold:
            return z.value, w.value, s1, attempt
    raise ConfigurationError(f"could not sample a pair with |S1| >= {threshold}")


class TestStackedPairSampler:
    @pytest.mark.parametrize("text", ["I:1,1", "I:2,2", "II:4", "III:2", "IV:3"])
    def test_matches_per_key_rule_where_first_attempts_are_rejected(self, text):
        spec = parse_spec(text)
        seed, threshold = [42, 0], 0.9
        # flat uint32 rows [42, 0, k] against the reference's nested keys [[42, 0], k, 2a]
        z, w, s1 = _sample_pairs(spec, _key_rows(42, 0, np.arange(60)), threshold)
        retried = 0
        for k in range(60):
            ref_z, ref_w, ref_s1, attempt = reference_pair(spec, seed, k, threshold)
            assert np.array_equal(z[k], ref_z) and np.array_equal(w[k], ref_w)
            assert s1[k] == ref_s1
            retried += attempt > 0
        assert retried > 0

    def test_exhausted_attempts_raise(self):
        with pytest.raises(ConfigurationError):
            _sample_pairs(parse_spec("I:2,2"), _key_rows(1, [0]), 5.0)  # |det(I - ZW*)| < 4


SEED_CHECKS = {
    "properness": lambda seed: check_properness(
        catalog("whitney-ball", n=2), n_samples=5, seed=seed),
    "fu": lambda seed: check_F_U_lemma(parse_spec("I:2,2"), n_samples=5, seed=seed),
    "coeff": lambda seed: check_coefficient_lemma(parse_spec("I:2,2"), 0, 0, n_bases=3, seed=seed),
    "composition": lambda seed: check_composition_rule(
        catalog("whitney-ball", n=3), catalog("whitney-ball", n=2), n_samples=3, seed=seed),
    "factorization": lambda seed: check_factorization(
        catalog("whitney-ball", n=2), degree_bound=1, seed=seed)[0],
    "isotropy": lambda seed: check_isotropy_consistency(
        catalog("f_t", t=0.3), n_trials=2, seed=seed),
}


class TestKeyRows:
    @pytest.mark.parametrize("text", ["I:1,1", "I:2,3", "II:4", "III:2", "IV:3"])
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_flat_rows_sample_as_the_nested_keys(self, text, region):
        spec = parse_spec(text)
        ks = range(40)
        for seed, words in ((0, [0]), (42, [42]), (2**32 - 1, [2**32 - 1]), (2**32, [0, 1]),
                            (2**40 + 3, [3, 256]), (2**64 + 5, [5, 0, 1])):
            rows = _key_rows(seed, 1, np.arange(40), 6)
            assert rows.dtype == np.uint32 and rows[:, :-3].tolist() == [words] * 40
            nested = [[[[seed, 1], k], 6] for k in ks]
            assert np.array_equal(sample_points(spec, region, rows),
                                  sample_points(spec, region, nested))

    @pytest.mark.parametrize("check", sorted(SEED_CHECKS))
    def test_negative_or_non_integer_seed_fails_as_a_list_key_does(self, check):
        # A negative seed fails as a ValueError, as a negative list key does, but
        # typed and named: the check rejects it before any key is hashed, with
        # the error a negative key gets in the one-key samplers.
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 0])
        with pytest.raises(ParameterError) as one_key:
            sample_point(parse_spec("I:2,2"), "interior", -1)
        with pytest.raises(ParameterError, match="^RNG key must be nonnegative, got -1$") as seed:
            SEED_CHECKS[check](-1)
        assert str(seed.value) == str(one_key.value)
        # A seed that is not an integer (numpy would draw unseeded for None,
        # raise an untyped TypeError for a float, and read "7" as 7) gets the
        # one error the same key gets in the one-key samplers.
        for bad in (None, 1.5, 3.0, "7", [1.5]):
            with pytest.raises(ParameterError) as one_key:
                sample_point(parse_spec("I:2,2"), "interior", bad)
            with pytest.raises(ParameterError, match="^RNG key must be a nonnegative integer or a "
                                                     "list of them, got ") as seed:
                SEED_CHECKS[check](bad)
            assert str(seed.value) == str(one_key.value)

    def test_every_seed_hands_key_generators_uint32_stacks_only(self, monkeypatch):
        seen, build = [], bsdkit.domains.key_generators

        def recorded(keys):
            seen.append(keys)
            return build(keys)

        monkeypatch.setattr(bsdkit.domains, "key_generators", recorded)
        run_all(2**40 + 3)
        assert seen and all(isinstance(keys, np.ndarray) for keys in seen)
        assert all(keys.ndim == 2 and keys.dtype == np.uint32 for keys in seen)
        assert all(keys[:, :2].tolist() == [[3, 256]] * len(keys) for keys in seen)

    @pytest.mark.parametrize("check", sorted(SEED_CHECKS))
    def test_seed_beyond_32_bits_runs(self, check):
        assert SEED_CHECKS[check](2**40 + 3).samples > 0


TOL_CHECKS = {
    "properness": lambda tol: check_properness(catalog("whitney-ball", n=2), n_samples=5, tol=tol),
    "factorization": lambda tol: check_factorization(
        catalog("whitney-ball", n=2), degree_bound=1, tol=tol),
    "fu": lambda tol: check_F_U_lemma(parse_spec("I:2,2"), n_samples=5, tol=tol),
    "composition": lambda tol: check_composition_rule(
        catalog("whitney-ball", n=3), catalog("whitney-ball", n=2), n_samples=3, tol=tol),
    "coeff": lambda tol: check_coefficient_lemma(parse_spec("I:2,2"), 0, 0, n_bases=3, tol=tol),
    "isotropy": lambda tol: check_isotropy_consistency(catalog("f_t", t=0.3), n_trials=2, tol=tol),
    "continuity": lambda tol: check_family_continuity("f_t", [0.2, 0.4], tol=tol),
}


class TestTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    @pytest.mark.parametrize("check", sorted(TOL_CHECKS))
    def test_negative_or_non_finite_tol_is_a_parameter_error(self, check, tol):
        message = f"^tol must be nonnegative and finite, got {tol}$"
        with pytest.raises(ParameterError, match=message):
            TOL_CHECKS[check](tol)

    @pytest.mark.parametrize("check", sorted(TOL_CHECKS))
    def test_zero_tol_builds_a_report(self, check):
        report = TOL_CHECKS[check](0.0)
        report = report[0] if isinstance(report, tuple) else report
        assert report.tolerance == 0.0 and report.passed == (report.max_residual == 0.0)


class TestCompositionExhaustion:
    def test_inner_map_with_small_s2_everywhere_raises(self):
        # A constant inner map g = 0.999 has S2(gZ, gW) = 1 - 0.999**2 < 0.01 at every pair.
        spec = parse_spec("I:1,1")
        g = polymap(spec, spec, {(0, 0): {(0,): 0.999}})
        f = catalog("standard", r=1, s=1, r2=1, s2=1)
        with pytest.raises(ConfigurationError,
                           match=r"^could not sample a pair with \|S2\(gZ, gW\)\| >= 0\.01$"):
            check_composition_rule(f, g)
