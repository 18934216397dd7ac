import json
import math

import numpy as np
import pytest

from bsdkit.domains import parse_spec, polarized_norm, sample_point
from bsdkit.errors import ConfigurationError, ParameterError, ShapeError
from bsdkit.polymaps import catalog
from bsdkit.verify import (
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


class TestIsotropyConsistency:
    def test_f_t_invariance(self):
        rep = check_isotropy_consistency(catalog("f_t", t=0.3), n_trials=100, tol=1e-10, seed=18)
        assert rep.passed

    def test_negative_control_nearby_parameters(self):
        from bsdkit.invariants import distinguish

        result = distinguish(catalog("f_t", t=0.30), catalog("f_t", t=0.31), tol=1e-8)
        assert result.verdict == "inequivalent"
        assert result.distances[1] >= abs(math.sqrt(0.31) - math.sqrt(0.30)) - 1e-12


class TestFamilyContinuity:
    def test_f_t_holder_continuity_and_endpoints(self):
        rep = check_family_continuity("f_t", [k / 100 for k in range(101)])
        assert rep.passed
        assert any("t=0 vs padded g-sec4: exact match" in n for n in rep.notes)
        t1_lines = [n for n in rep.notes if n.startswith("  t=1 (")]
        assert len(t1_lines) == 1 and "(3,3)" in t1_lines[0]
        assert any("spectra of" in n for n in rep.notes)

    def test_h_t_symmetry_note(self):
        rep = check_family_continuity("h_t", [k / 10 for k in range(11)])
        assert rep.passed
        assert any("symmetric target structure maintained" in n for n in rep.notes)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            check_family_continuity("f_t", [])

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            check_family_continuity("q_t", [0.0, 1.0])


class TestSuite:
    def test_summarize_counts(self):
        reports = [check_properness(catalog("whitney-ball", n=2), n_samples=20, seed=19)]
        s = summarize(reports)
        assert s == {"total": 1, "passed": 1, "failed": 0}

    def test_run_all_is_deterministic(self):
        a = run_all(seed=123, properness_samples=20, fu_samples=20)
        b = run_all(seed=123, properness_samples=20, fu_samples=20)
        ja = json.dumps([r.to_dict() for r in a], sort_keys=True)
        jb = json.dumps([r.to_dict() for r in b], sort_keys=True)
        assert ja == jb


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
        z, w, s1 = _sample_pairs(spec, [[seed, k] for k in range(60)], threshold)
        retried = 0
        for k in range(60):
            ref_z, ref_w, ref_s1, attempt = reference_pair(spec, seed, k, threshold)
            assert np.array_equal(z[k], ref_z) and np.array_equal(w[k], ref_w)
            assert s1[k] == ref_s1
            retried += attempt > 0
        assert retried > 0

    def test_exhausted_attempts_raise(self):
        with pytest.raises(ConfigurationError):
            _sample_pairs(parse_spec("I:2,2"), [[1, 0]], 5.0)  # |det(I - ZW*)| < 4
