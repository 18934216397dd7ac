import json

import numpy as np
import pytest

from bsdkit.autgroups import (
    AutElement,
    act,
    act_points,
    aut_element,
    aut_from_json,
    aut_to_json,
    automorphy_denominator,
    automorphy_denominators,
    automorphy_factor,
    check_membership,
    identity_element,
    isotropy,
    iv_action_denominator,
    product,
    random_automorphism,
    random_isotropy_params,
    transvection_type1,
)
from bsdkit.domains import (
    Point, borel_lift_iv, classify_point, origin, parse_spec, point, polarized_norm, sample_point,
    sample_points,
)
from bsdkit.errors import ActionSingularityError, DomainError, ParameterError, ShapeError
from bsdkit.linalg import random_unitary

ALL_SPECS = ["I:2,2", "I:2,3", "II:3", "II:4", "III:2", "III:3", "IV:2", "IV:3"]


class TestMembership:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_identity_residual_zero(self, text):
        rep = check_membership(identity_element(parse_spec(text)))
        assert rep.max_residual == 0.0
        assert rep.passed

    def test_kind_i_block_unitary(self):
        spec = parse_spec("I:2,3")
        e = isotropy(spec, (random_unitary(2, 1), random_unitary(3, 2)))
        assert check_membership(e, 1e-11).passed

    def test_kind_ii_conjugate_pair(self):
        spec = parse_spec("II:3")
        e = isotropy(spec, random_unitary(3, 3))
        assert check_membership(e, 1e-11).passed

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_random_elements_pass(self, text):
        spec = parse_spec(text)
        for k in range(5):
            e = random_automorphism(spec, [1, k])
            assert check_membership(e, 1e-9).passed

    def test_isotropy_closure_within_twice_component_residuals(self):
        spec = parse_spec("I:2,2")
        e1 = isotropy(spec, random_isotropy_params(spec, 4))
        e2 = isotropy(spec, random_isotropy_params(spec, 5))
        r1 = check_membership(e1).max_residual
        r2 = check_membership(e2).max_residual
        r12 = check_membership(product(e1, e2)).max_residual
        assert r12 <= 2 * max(r1, r2) + 1e-14

    def test_general_closure(self):
        spec = parse_spec("III:3")
        e1 = random_automorphism(spec, 6)
        e2 = random_automorphism(spec, 7)
        norms = np.linalg.norm(e1.matrix, 2) * np.linalg.norm(e2.matrix, 2)
        r12 = check_membership(product(e1, e2)).max_residual
        r1 = check_membership(e1).max_residual
        r2 = check_membership(e2).max_residual
        assert r12 <= 10 * (r1 + r2 + 1e-15 * norms**2)

    def test_rejects_wrong_size(self):
        with pytest.raises(ShapeError):
            aut_element(parse_spec("I:2,2"), np.eye(3))


class TestAct:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_identity_acts_trivially(self, text):
        spec = parse_spec(text)
        z = sample_point(spec, "interior", 8)
        assert np.allclose(act(identity_element(spec), z).value, z.value, atol=1e-14)

    def test_kind_i_isotropy_formula(self):
        spec = parse_spec("I:2,3")
        u, v = random_unitary(2, 9), random_unitary(3, 10)
        z = sample_point(spec, "interior", 11)
        image = act(isotropy(spec, (u, v)), z)
        assert np.allclose(image.value, np.linalg.inv(u) @ z.value @ v, atol=1e-12)

    def test_kind_iii_isotropy_is_symmetric_congruence(self):
        spec = parse_spec("III:3")
        a = random_unitary(3, 12)
        z = sample_point(spec, "interior", 13)
        image = act(isotropy(spec, a), z)
        expected = a.conj().T @ z.value @ a.conj()
        assert np.allclose(image.value, expected, atol=1e-12)
        assert np.linalg.norm(image.value - image.value.T) <= 1e-12

    def test_kind_iv_identity_denominator(self):
        spec = parse_spec("IV:3")
        z = sample_point(spec, "interior", 14)
        e = identity_element(spec)
        assert iv_action_denominator(e, z) == pytest.approx(2j)
        assert np.allclose(act(e, z).value, z.value)

    @pytest.mark.parametrize("text", ["IV:1", "IV:3", "IV:4"])
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_kind_iv_lift_covariance(self, text, region):
        # l(MZ) = (2i / lambda(Z)) l(Z) M for the quadric lift l
        spec = parse_spec(text)
        for k in range(20):
            e = random_automorphism(spec, [41, k])
            z = sample_point(spec, region, [42, k])
            lhs = borel_lift_iv(act(e, z))
            rhs = 2j / iv_action_denominator(e, z) * borel_lift_iv(z) @ e.matrix
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_row_convention_composition(self, text):
        spec = parse_spec(text)
        for k in range(8):
            m = random_automorphism(spec, [15, k])
            n = random_automorphism(spec, [16, k])
            z = sample_point(spec, "interior", [17, k])
            lhs = act(product(m, n), z).value
            rhs = act(n, act(m, z)).value
            assert np.linalg.norm(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_preserves_classification(self, text):
        spec = parse_spec(text)
        for k in range(8):
            e = random_automorphism(spec, [18, k])
            zi = sample_point(spec, "interior", [19, k])
            assert classify_point(act(e, zi)).region == "interior"
            zb = sample_point(spec, "boundary", [20, k])
            assert classify_point(act(e, zb), 1e-7).region == "boundary"

    def test_shape_preserved_for_kind_ii(self):
        spec = parse_spec("II:4")
        e = random_automorphism(spec, 21)
        z = sample_point(spec, "boundary", 22)
        w = act(e, z).value
        assert np.linalg.norm(w + w.T) <= 1e-10

    def test_singular_denominator_off_domain(self):
        spec = parse_spec("I:1,1")
        e = transvection_type1(point(spec, [[0.5]]))
        # A + zC vanishes at z = -A/C = -2, far outside the closed disc
        with pytest.raises(ActionSingularityError):
            act(e, point(spec, [[-2.0]]))


class TestStackedAction:
    @pytest.mark.parametrize("text", ALL_SPECS + ["I:1,1", "IV:1"])
    def test_element_stack_agrees_with_per_point_action(self, text):
        spec = parse_spec(text)
        elements = [random_automorphism(spec, [36, k]) for k in range(8)]
        stack = AutElement(spec, np.array([e.matrix for e in elements]))
        z = np.concatenate([sample_points(spec, "interior", [[37, k] for k in range(4)]),
                            sample_points(spec, "boundary", [[37, k] for k in range(4, 8)])])
        images = act_points(stack, z)
        dens = automorphy_denominators(stack, z)
        for k, e in enumerate(elements):
            p = Point(spec, z[k])
            assert np.max(np.abs(images[k] - act(e, p).value)) <= 1e-13
            assert abs(dens[k] - automorphy_denominator(e, p)) <= 1e-13
        # one element against a point stack
        one = act_points(elements[0], z)
        for k in range(len(z)):
            assert np.max(np.abs(one[k] - act(elements[0], Point(spec, z[k])).value)) <= 1e-13

    @pytest.mark.parametrize("text", ["II:3", "III:2"])
    def test_asymmetric_image_in_stack_raises(self, text):
        spec = parse_spec(text)
        n = spec.n
        good = random_automorphism(spec, 38).matrix
        bad = np.eye(2 * n, dtype=complex)
        bad[0, n + 1] = 0.25  # B block neither symmetric nor antisymmetric
        z = sample_points(spec, "interior", [[39, k] for k in range(4)])
        act_points(AutElement(spec, np.array([good] * 4)), z)
        with pytest.raises(ShapeError):
            act_points(AutElement(spec, np.array([good, good, bad, good])), z)
        with pytest.raises(ShapeError):
            act(aut_element(spec, bad), Point(spec, z[0]))


class TestIsotropy:
    def test_kind_i_identity_params(self):
        spec = parse_spec("I:2,3")
        e = isotropy(spec, (np.eye(2), np.eye(3)))
        assert np.array_equal(e.matrix, np.eye(5))

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_fixes_origin(self, text):
        spec = parse_spec(text)
        e = isotropy(spec, random_isotropy_params(spec, 23))
        assert check_membership(e, 1e-10).passed
        assert np.linalg.norm(act(e, origin(spec)).value) <= 1e-10

    def test_kind_iv_rotation_only_fixes_origin(self):
        spec = parse_spec("IV:3")
        e = isotropy(spec, (np.eye(3), 1.234))
        assert np.linalg.norm(act(e, origin(spec)).value) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ParameterError):
            isotropy(parse_spec("II:3"), np.ones((3, 3)))

    def test_rejects_complex_p_for_kind_iv(self):
        with pytest.raises(ParameterError):
            isotropy(parse_spec("IV:2"), (random_unitary(2, 1), 0.5))


class TestTransvection:
    def test_origin_gives_identity(self):
        spec = parse_spec("I:2,2")
        e = transvection_type1(origin(spec))
        assert np.allclose(e.matrix, np.eye(4))

    def test_disc_half(self):
        spec = parse_spec("I:1,1")
        e = transvection_type1(point(spec, [[0.5]]))
        expected = np.array([[1.0, 0.5], [0.5, 1.0]]) / np.sqrt(0.75)
        assert np.allclose(e.matrix, expected, atol=1e-15)
        assert act(e, origin(spec)).value[0, 0] == pytest.approx(0.5)

    def test_random_interior_postconditions(self):
        spec = parse_spec("I:2,3")
        for k in range(5):
            z0 = sample_point(spec, "interior", [24, k])
            e = transvection_type1(z0)
            assert check_membership(e, 1e-9).passed
            assert np.linalg.norm(act(e, origin(spec)).value - z0.value) <= 1e-9

    def test_rejects_boundary_point(self):
        spec = parse_spec("I:2,2")
        with pytest.raises(DomainError):
            transvection_type1(sample_point(spec, "boundary", 25))

    def test_rejects_other_kinds(self):
        with pytest.raises(ShapeError):
            transvection_type1(origin(parse_spec("III:2")))


class TestAutomorphyFactor:
    def test_identity_factor_is_one(self):
        spec = parse_spec("I:2,2")
        z = sample_point(spec, "interior", 26)
        w = sample_point(spec, "interior", 27)
        assert automorphy_factor(identity_element(spec), z, w) == pytest.approx(1.0)

    def test_isotropy_factor_has_unit_modulus(self):
        spec = parse_spec("I:2,3")
        e = isotropy(spec, random_isotropy_params(spec, 28))
        z = sample_point(spec, "interior", 29)
        w = sample_point(spec, "interior", 30)
        assert abs(automorphy_factor(e, z, w)) == pytest.approx(1.0)

    @pytest.mark.parametrize("text", ["I:2,2", "I:2,3", "III:2", "III:3"])
    def test_norm_transformation_identity(self, text):
        spec = parse_spec(text)
        for k in range(20):
            e = random_automorphism(spec, [31, k])
            z = sample_point(spec, "interior", [32, k])
            w = sample_point(spec, "interior", [33, k])
            lhs = polarized_norm(act(e, z), act(e, w))
            rhs = polarized_norm(z, w) * automorphy_factor(e, z, w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_kind_ii_squared_identity(self):
        spec = parse_spec("II:4")
        for k in range(20):
            e = random_automorphism(spec, [34, k])
            z = sample_point(spec, "interior", [35, k])
            w = sample_point(spec, "interior", [36, k])
            dz = automorphy_denominator(e, z)
            dw = automorphy_denominator(e, w)
            lhs = polarized_norm(act(e, z), act(e, w)) * dz * np.conj(dw)
            assert abs(lhs - polarized_norm(z, w)) <= 1e-10

    def test_kind_iv_returns_both_candidates(self):
        spec = parse_spec("IV:3")
        e = random_automorphism(spec, 37)
        z = sample_point(spec, "interior", 38)
        w = sample_point(spec, "interior", 39)
        candidates = automorphy_factor(e, z, w)
        assert len(candidates) == 2
        base = 1.0 / (iv_action_denominator(e, z) * np.conj(iv_action_denominator(e, w)))
        assert candidates[0] == pytest.approx(base)
        assert candidates[1] == pytest.approx(-0.5 * base)


class TestSerialization:
    def test_schema_and_roundtrip(self):
        spec = parse_spec("II:3")
        e = random_automorphism(spec, 40)
        data = aut_to_json(e)
        assert set(data) == {"spec", "matrix"}
        assert data["spec"] == "II:3"
        assert len(data["matrix"]) == 36
        assert all(len(pair) == 2 for pair in data["matrix"])
        restored = aut_from_json(json.loads(json.dumps(data)))
        assert restored.spec == spec
        assert np.allclose(restored.matrix, e.matrix)

    def test_rejects_bad_length(self):
        with pytest.raises(ShapeError):
            aut_from_json({"spec": "I:2,2", "matrix": [[1.0, 0.0]] * 5})
