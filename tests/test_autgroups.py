import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from bsdkit import autgroups, domains, verify
from bsdkit.autgroups import (
    AutElement,
    act,
    _params_at,
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
    isotropy_factors,
    iv_action_denominator,
    product,
    random_automorphism,
    random_automorphisms,
    random_isotropy_params,
    random_isotropy_stack,
    transvection_type1,
)
from bsdkit.domains import (
    Point, borel_lift_iv, classify_point, origin, parse_spec, point, polarized_norm, sample_point,
    sample_points,
)
from bsdkit.errors import ActionSingularityError, DomainError, ParameterError, ShapeError
from bsdkit.linalg import random_orthogonal, random_unitary

SRC = Path(__file__).resolve().parent.parent / "src"
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

    @pytest.mark.parametrize("own,other", [("III", "II"), ("II", "III")])
    @pytest.mark.parametrize("n", [2, 3])
    def test_other_kinds_element_fails_only_the_bilinear_form(self, own, other, n):
        # A boost of one kind keeps the kind I signature form but breaks the
        # other kind's bilinear form [[0, I], [-eps I, 0]].
        spec = parse_spec(f"{own}:{n}")
        [key, *_] = keys_drawing("boost", [[3, n, j] for j in range(20)])
        m = random_automorphism(spec, key).matrix
        rep = check_membership(AutElement(parse_spec(f"{other}:{n}"), m))
        assert not rep.passed
        assert rep.residuals["signature"] <= 1e-12
        assert rep.residuals["bilinear"] > 1e-3


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

    @pytest.mark.parametrize("text", ["IV:1", "IV:3", "IV:4"])
    def test_kind_iv_isotropy_is_a_phase_times_an_orthogonal(self, text):
        spec = parse_spec(text)
        for k in range(5):
            p, theta = random_isotropy_params(spec, [15, k])
            z = sample_point(spec, "interior", [16, k])
            image = act(isotropy(spec, (p, theta)), z)
            assert np.max(np.abs(image.value - np.exp(-1j * theta) * z.value @ p)) <= 1e-14

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_isotropy_acts_by_its_factors(self, text):
        spec = parse_spec(text)
        params = random_isotropy_params(spec, 17)
        left, right = isotropy_factors(spec, params)
        z = sample_point(spec, "interior", 18)
        image = act(isotropy(spec, params), z)
        assert np.max(np.abs(image.value - left @ z.value @ right)) <= 1e-13

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

    @pytest.mark.parametrize("text,shape", [("I:2,2", (3, 3)), ("II:3", (2, 2)), ("IV:3", (3,)),
                                            ("IV:3", (3, 1)), ("IV:3", (1, 4))])
    @pytest.mark.parametrize("kernel", [act_points, automorphy_denominators])
    def test_a_stack_of_another_point_shape_is_a_shape_error(self, text, shape, kernel):
        # not NumPy's untyped ValueError, nor a silent image
        spec = parse_spec(text)
        z = np.full((5, *shape), 0.1, dtype=complex)
        with pytest.raises(ShapeError, match=r"^point stack shape \(5, "):
            kernel(random_automorphisms(spec, [[40, 0], [40, 1]]), z)

    @pytest.mark.parametrize("own,other", [("III:2", "I:2,2"), ("IV:3", "I:1,3")])
    def test_a_point_of_another_domain_is_a_shape_error(self, own, other):
        # the point has the element's point shape, so only the spec tells
        e = random_automorphism(parse_spec(own), 41)
        p = sample_point(parse_spec(other), "interior", 42)
        assert p.value.shape == e.spec.shape
        message = f"^element of {own} cannot act on point of {other}$"
        for one_point in (act, automorphy_denominator):
            with pytest.raises(ShapeError, match=message):
                one_point(e, p)
        with pytest.raises(ShapeError, match=message):
            automorphy_factor(e, p, p)

    def test_iv_action_denominator_of_another_kind_is_a_shape_error(self):
        spec = parse_spec("I:1,3")
        e, p = random_automorphism(spec, 43), sample_point(spec, "interior", 44)
        with pytest.raises(ShapeError, match="^iv_action_denominator needs a kind IV element, "
                                             "got I:1,3$"):
            iv_action_denominator(e, p)

    @pytest.mark.parametrize("text", ["I:2,2", "II:3", "IV:3"])
    @pytest.mark.parametrize("one_point", [
        act, automorphy_denominator, lambda e, p: automorphy_factor(e, p, p),
        lambda e, p: check_membership(e),
    ], ids=["act", "automorphy_denominator", "automorphy_factor", "check_membership"])
    def test_the_one_point_functions_take_one_element(self, text, one_point):
        # not a Point of shape (3, ...) from act, nor an untyped TypeError
        spec = parse_spec(text)
        stack, p = random_automorphisms(spec, [1, 2, 3]), sample_point(spec, "interior", 45)
        n = autgroups.matrix_size(spec)
        with pytest.raises(ShapeError, match=rf"^matrix for {text} must be {n}x{n}, got \(3, "):
            one_point(stack, p)

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


ORACLE_SPECS = [text for text in ALL_SPECS if not text.startswith("IV")] + ["I:1,1", "II:2",
                                                                          "III:1"]


def block_oracle(spec, m, z):
    """Independent oracle for one element matrix and one point: the image
    (A + ZC)^{-1}(B + ZD) and the denominator det(A + ZC) from the explicit
    blocks of ``m``, with ``@``."""
    k = spec.r if spec.kind == "I" else spec.n
    a, b, c, d = m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:]
    return np.linalg.solve(a + z @ c, b + z @ d), np.linalg.det(a + z @ c)


class TestActionOracle:
    @pytest.mark.parametrize("text", ORACLE_SPECS)
    def test_element_stack_against_point_stack(self, text):
        spec = parse_spec(text)
        keys = [[53, k] for k in range(8)]
        e = random_automorphisms(spec, keys)
        z = np.concatenate([sample_points(spec, "interior", keys[:4]),
                            sample_points(spec, "boundary", keys[4:])])
        images, dens = act_points(e, z), automorphy_denominators(e, z)
        for k in range(len(z)):
            image, den = block_oracle(spec, e.matrix[k], z[k])
            assert np.max(np.abs(images[k] - image)) <= 1e-13
            assert abs(dens[k] - den) <= 1e-13

    @pytest.mark.parametrize("text", ORACLE_SPECS)
    def test_the_f_u_layout(self, text):
        # an element stack (S, 1, N, N) against a pair stack (S, 2, *shape), as
        # check_F_U_lemma acts on its (Z, W) pairs
        spec = parse_spec(text)
        keys = [[54, k] for k in range(6)]
        e = AutElement(spec, random_automorphisms(spec, keys).matrix[:, None])
        pair = np.stack([sample_points(spec, "boundary", keys),
                         sample_points(spec, "interior", keys)], axis=1)
        images, dens = act_points(e, pair), automorphy_denominators(e, pair)
        assert images.shape == pair.shape and dens.shape == (6, 2)
        for k in range(6):
            for t in range(2):
                image, den = block_oracle(spec, e.matrix[k, 0], pair[k, t])
                assert np.max(np.abs(images[k, t] - image)) <= 1e-13
                assert abs(dens[k, t] - den) <= 1e-13


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

    @pytest.mark.parametrize("text", ["I:2,3", "II:4", "III:3", "IV:3"])
    def test_stacked_params_are_the_one_key_params(self, text):
        spec = parse_spec(text)
        rows = np.array([[42, k, 1] for k in range(25)], dtype=np.uint32)
        stack = random_isotropy_stack(spec, rows)
        components = stack if isinstance(stack, tuple) else (stack,)
        assert all(len(c) == len(rows) for c in components)
        for k, row in enumerate(rows):
            one = random_isotropy_params(spec, row)
            if not isinstance(one, tuple):
                one = (one,)
            assert len(one) == len(components)
            for got, want in zip(components, one):
                assert np.array_equal(got[k], want), (k, row)
        assert np.array_equal(isotropy(spec, stack).matrix[3],
                              isotropy(spec, random_isotropy_params(spec, rows[3])).matrix)

    @pytest.mark.parametrize("text,params", [
        ("I:2,2", (np.eye(2),)),
        ("I:2,2", (np.eye(2), np.eye(2), np.eye(2))),
        ("I:2,2", None),
        ("I:2,2", 5),
        ("I:2,2", (np.eye(2), "a")),
        ("II:3", "a"),
        ("IV:3", (np.eye(3), "a")),
        ("IV:3", (np.eye(3), np.inf)),
        ("IV:3", (np.eye(3), 1j)),
        ("IV:3", np.eye(3)),
    ])
    def test_malformed_params_are_a_parameter_error(self, text, params):
        # not Python's untyped ValueError or TypeError, in both readers of params
        spec = parse_spec(text)
        message = f"^kind {spec.kind} isotropy parameters must be"
        for read in (isotropy, isotropy_factors):
            with pytest.raises(ParameterError, match=message):
                read(spec, params)

    def test_rejects_complex_p_for_kind_iv(self):
        with pytest.raises(ParameterError):
            isotropy(parse_spec("IV:2"), (random_unitary(2, 1), 0.5))

    def test_kind_iv_realness_is_judged_per_matrix(self):
        # each P + 4e-12j has an imaginary part of norm 1.2e-11, within 1e-10,
        # though the whole stack's is 6.6e-10: its size alone rejects nothing
        spec = parse_spec("IV:3")
        p, theta = random_isotropy_stack(spec, [[52, k] for k in range(3000)])
        e = isotropy(spec, (p + 4e-12j, theta))
        assert e.matrix.shape == (3000, 5, 5)
        p = p.astype(complex)
        p[1234] *= np.exp(1e-9j)  # still unitary, with an imaginary part of norm 1.7e-9
        with pytest.raises(ParameterError, match="^kind IV isotropy needs a real orthogonal P$"):
            isotropy(spec, (p, theta))


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

    @pytest.mark.parametrize("text", ["II:2", "II:4", "III:1", "III:3"])
    def test_kinds_ii_iii_share_the_kind_i_block(self, text):
        spec = parse_spec(text)
        for k in range(5):
            z0 = sample_point(spec, "interior", [24, k])
            e = transvection_type1(z0)
            assert check_membership(e).max_residual <= 1e-12
            assert np.max(np.abs(act(e, origin(spec)).value - z0.value)) <= 1e-12

    def test_rejects_other_kinds(self):
        with pytest.raises(ShapeError):
            transvection_type1(origin(parse_spec("IV:3")))


AUT_SPECS = ["I:1,1", "I:2,3", "II:2", "II:5", "III:1", "III:3", "IV:3", "IV:4"]
AUT_KEYS = [[[17, 0], k, 0] if k % 3 == 0 else [17, k] for k in range(48)]


FLAVORS = ["boost", "isotropy"]


def drawn_flavor(key):
    """The type of element that ``random_automorphisms`` builds for ``key``:
    the first draw of the key's stream picks it."""
    return FLAVORS[np.random.default_rng(key).integers(2)]


def keys_drawing(flavor, keys):
    """The keys of ``keys`` whose element is of type ``flavor``."""
    return [key for key in keys if drawn_flavor(key) == flavor]


def reference_automorphism(spec, key):
    """One key at a time: the element's type, a QR-based Haar isotropy, then
    for a boost the exponential of the scaled noncompact generator
    X = [[0, Y], [Y*, 0]], from its block Y, times that isotropy."""
    rng = np.random.default_rng(key)
    flavor = FLAVORS[rng.integers(2)]

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def unitary(n):
        q, r = np.linalg.qr(gaussian(n, n))
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def block_diag(a, b):
        return np.block([[a, np.zeros((len(a), len(b)))], [np.zeros((len(b), len(a))), b]])

    if spec.kind == "I":
        iso = block_diag(unitary(spec.r), unitary(spec.s))
    elif spec.mirror:
        a = unitary(spec.n)
        iso = block_diag(a, a.conj())
    else:
        q, r = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta), np.sin(theta)
        iso = block_diag(q * np.sign(np.diagonal(r)), np.array([[c, -s], [s, c]]))
    if flavor == "isotropy":
        return iso
    if spec.kind == "IV":
        y = 1j * rng.standard_normal((spec.n, 2))
    else:
        y = gaussian(*spec.shape)
        if spec.mirror:
            y = (y + spec.mirror * y.T) / 2.0
    y = y * (0.4 / max(1.0, np.sqrt(np.linalg.eigvalsh(y.conj().T @ y)[-1])))
    return autgroups.expm(y) @ iso  # its accuracy against a series oracle: TestBoost


class TestStackedAutomorphisms:
    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_matches_reference_bit_for_bit(self, text):
        spec = parse_spec(text)
        assert {drawn_flavor(key) for key in AUT_KEYS} == set(FLAVORS)  # both types of element
        got = random_automorphisms(spec, AUT_KEYS)
        size = autgroups.matrix_size(spec)
        assert got.spec == spec and got.matrix.shape == (len(AUT_KEYS), size, size)
        for key, m in zip(AUT_KEYS, got.matrix):
            assert np.array_equal(m, reference_automorphism(spec, key)), key

    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_uint32_rows_give_the_list_keys_elements(self, text):
        spec = parse_spec(text)
        rows = np.array([[17, k, 0] for k in range(24)], dtype=np.uint32)
        nested = [[[17, k], 0] for k in range(24)]
        assert np.array_equal(random_automorphisms(spec, rows).matrix,
                              random_automorphisms(spec, nested).matrix)

    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_one_key_is_row_zero_of_the_stack(self, text):
        spec = parse_spec(text)
        for flavor in FLAVORS:  # the first key of each type of element
            keys = keys_drawing(flavor, AUT_KEYS)
            one = random_automorphism(spec, keys[0])
            assert one.matrix.shape == 2 * (autgroups.matrix_size(spec),)
            assert np.array_equal(one.matrix, random_automorphisms(spec, keys).matrix[0])

    def test_empty_key_list(self):
        assert random_automorphisms(parse_spec("II:3"), []).matrix.shape == (0, 6, 6)

    @pytest.mark.parametrize("text", ["I:2,3", "II:3", "IV:3"])
    def test_non_unitary_factor_in_stack_raises(self, text, monkeypatch):
        haar = autgroups.haar_normalize

        def skewed(g):
            u = haar(g).copy()
            u[5] *= 1.001
            return u

        monkeypatch.setattr(autgroups, "haar_normalize", skewed)
        with pytest.raises(ParameterError, match="not unitary"):
            random_automorphisms(parse_spec(text), AUT_KEYS)



def series_exp(x, terms=40):
    """exp of a matrix stack by its Taylor series, summed term by term; at
    operator norm 0.4 the 40th term is far below roundoff."""
    total = term = np.broadcast_to(np.eye(x.shape[-1]), x.shape).astype(complex)
    for k in range(1, terms):
        term = term @ x / k
        total = total + term
    return total


def generator(y):
    """The Hermitian noncompact generator X = [[0, Y], [Y*, 0]] of each block Y."""
    k, m = y.shape[-2:]
    x = np.zeros((*y.shape[:-2], k + m, k + m), dtype=complex)
    x[..., :k, k:], x[..., k:, :k] = y, y.conj().swapaxes(-1, -2)
    return x


BOOST_SPECS = [*ALL_SPECS, "I:1,1", "II:2", "III:1", "IV:1"]
BOOST_KEYS = np.array([[29, k] for k in range(40)], dtype=np.uint32)


class TestBoost:
    @pytest.mark.parametrize("text", BOOST_SPECS)
    def test_matches_the_series_oracle(self, text, monkeypatch):
        spec = parse_spec(text)
        blocks, real = [], autgroups.expm
        monkeypatch.setattr(autgroups, "expm", lambda y: blocks.append(y) or real(y))
        random_automorphisms(spec, BOOST_KEYS)
        [y] = blocks
        assert len(y) == len(keys_drawing("boost", BOOST_KEYS.tolist()))
        assert y.shape[1:] == ((spec.n, 2) if spec.kind == "IV" else spec.shape)
        assert np.max(np.linalg.norm(y, 2, axis=(-2, -1))) <= 0.4 * (1 + 1e-14)
        want = series_exp(generator(y))
        errors = np.linalg.norm(autgroups.expm(y) - want, axis=(-2, -1))
        assert np.max(errors / np.linalg.norm(want, axis=(-2, -1))) <= 1e-14

    @pytest.mark.parametrize("text", BOOST_SPECS)
    def test_boosts_are_members_that_move_the_origin_inside(self, text):
        spec = parse_spec(text)
        keys = keys_drawing("boost", BOOST_KEYS.tolist())
        stack = random_automorphisms(spec, keys)
        for m in stack.matrix:
            assert check_membership(AutElement(spec, m)).max_residual <= 1e-13
        images = act_points(stack, np.zeros((len(keys), *spec.shape), dtype=complex))
        labels, _ = domains.classify_points(spec, images)
        assert np.all(labels == "interior")
        assert np.all(np.linalg.norm(images, axis=(-2, -1)) > 0.01)

    @pytest.mark.parametrize("text", BOOST_SPECS)
    def test_stacked_element_is_the_one_key_element(self, text):
        spec = parse_spec(text)
        stack = random_automorphisms(spec, BOOST_KEYS)
        for key, m in zip(BOOST_KEYS.tolist(), stack.matrix):
            assert np.array_equal(random_automorphism(spec, key).matrix, m), key


# Specs whose Y*Y is rank deficient (Y antisymmetric of odd size, Y of kind I
# with r < s, Y of kind IV with n = 1), the edge specs, and more of each kind.
RANK_DEFICIENT = ["II:3", "II:5", "I:2,3", "IV:1"]
EXPM_SPECS = [*RANK_DEFICIENT, "I:1,1", "II:2", "III:1", "I:3,3", "III:3", "IV:3", "II:4"]


def block_stack(spec, seed, norms):
    """Blocks Y of the spec's boost generator, projected as
    ``random_automorphisms`` projects them and scaled to the given operator
    norms."""
    rng = np.random.default_rng(seed)
    if spec.kind == "IV":
        y = 1j * rng.standard_normal((len(norms), spec.n, 2))
    else:
        shape = (len(norms), *spec.shape)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if spec.mirror:
            y = (y + spec.mirror * y.swapaxes(-1, -2)) / 2.0
    return y * (np.asarray(norms) / np.linalg.norm(y, 2, axis=(-2, -1)))[:, None, None]


class TestExpm:
    @pytest.mark.parametrize("text", EXPM_SPECS)
    def test_matches_scipy_on_block_stacks(self, text):
        norms = np.geomspace(0.01, 10.0, 30)
        y = block_stack(parse_spec(text), 3, norms)
        want = scipy.linalg.expm(generator(y))
        errors = np.linalg.norm(autgroups.expm(y) - want, axis=(-2, -1))
        # exp's relative condition number on a Hermitian matrix is at most |X| (Van Loan 1977),
        # and |X| = |Y|
        assert np.all(errors / np.linalg.norm(want, axis=(-2, -1)) <= 1e-14 * np.maximum(1, norms))

    @pytest.mark.parametrize("text", EXPM_SPECS)
    def test_the_kernel_of_x_is_fixed(self, text):
        # exp(X) fixes the kernel of X, which meets the Y*Y block exactly when
        # Y*Y is rank deficient: there the kernel uses sinhc(0) = 1
        spec = parse_spec(text)
        y = block_stack(spec, 4, np.geomspace(0.1, 5.0, 12))
        gram = np.linalg.eigvalsh(y.conj().swapaxes(-1, -2) @ y)
        assert np.all((gram[:, 0] <= 1e-12 * gram[:, -1]) == (text in RANK_DEFICIENT))
        w, v = np.linalg.eigh(generator(y))
        null = np.abs(w) <= 1e-12 * np.abs(w).max(axis=-1, keepdims=True)
        for m, vecs, kernel in zip(autgroups.expm(y), v, null):
            fixed = vecs[:, kernel]
            assert np.max(np.abs(m @ fixed - fixed), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 3), (4, 2)])
    def test_zero_block_gives_the_identity_exactly(self, shape):
        e = autgroups.expm(np.zeros((3, *shape), dtype=complex))
        assert np.array_equal(e, np.broadcast_to(np.eye(sum(shape)), e.shape))

    @pytest.mark.parametrize("text", EXPM_SPECS)
    def test_each_row_depends_on_its_own_block_only(self, text):
        y = block_stack(parse_spec(text), 6, np.geomspace(0.1, 4.0, 8))
        stack = autgroups.expm(y)
        for k, block in enumerate(y):
            assert np.array_equal(stack[k], autgroups.expm(block)), k
        grid = autgroups.expm(y.reshape(2, 4, *y.shape[1:]))
        assert np.array_equal(grid, stack.reshape(2, 4, *stack.shape[1:]))

    def test_a_run_imports_no_scipy(self):
        # the exponential is NumPy only; scipy is a test-only dependency
        code = ("import sys, bsdkit; bsdkit.run_all(seed=42); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestNegativeKeys:
    """A negative integer anywhere in an RNG key is a typed error in every
    one-key sampler, not numpy's untyped ``ValueError``."""

    @pytest.mark.parametrize("key", [-1, [-1, 3], [[17, 0], -4]], ids=["int", "list", "nested"])
    @pytest.mark.parametrize("draw", [
        lambda spec, key: sample_point(spec, "interior", key),
        lambda spec, key: random_automorphism(spec, key),
        lambda spec, key: random_isotropy_params(spec, key),
    ], ids=["sample_point", "random_automorphism", "random_isotropy_params"])
    def test_raises_parameter_error(self, draw, key):
        with pytest.raises(ParameterError, match=r"^RNG key must be nonnegative, got "):
            draw(parse_spec("I:2,2"), key)

    def test_negative_row_among_list_keys(self):
        with pytest.raises(ParameterError, match=r"got \[-1, 3\]$"):
            sample_points(parse_spec("IV:3"), "boundary", [[17, 0], [-1, 3]])

    @pytest.mark.parametrize("key", [None, 1.5, 3.0, "7", [1.5], [17, "0"], [[17, None], 0],
                                     np.random.default_rng(0)])
    @pytest.mark.parametrize("draw", [
        lambda spec, key: sample_point(spec, "interior", key),
        lambda spec, key: random_automorphism(spec, key),
        lambda spec, key: random_isotropy_params(spec, key),
        lambda spec, key: random_unitary(3, key),
        lambda spec, key: random_orthogonal(3, key),
    ], ids=["sample_point", "random_automorphism", "random_isotropy_params", "random_unitary",
            "random_orthogonal"])
    def test_other_bad_keys_are_parameter_errors(self, draw, key):
        # numpy would draw unseeded for None, read "7" as 7 inside a key array,
        # raise an untyped TypeError for a float, and draw on from a Generator
        message = ("^RNG key must be a nonnegative integer or a list of them, "
                   f"got {re.escape(repr(key))}$")
        with pytest.raises(ParameterError, match=message):
            draw(parse_spec("II:3"), key)

    @pytest.mark.parametrize("keys", [5, None])
    @pytest.mark.parametrize("draw", [
        lambda spec, keys: sample_points(spec, "interior", keys),
        random_automorphisms,
        random_isotropy_stack,
    ], ids=["sample_points", "random_automorphisms", "random_isotropy_stack"])
    def test_a_stack_that_is_not_a_sequence_is_a_parameter_error(self, draw, keys):
        # not numpy's or Python's untyped TypeError
        message = f"^RNG keys must be a sequence of keys or a 2-D uint32 array, got {keys!r}$"
        with pytest.raises(ParameterError, match=message):
            draw(parse_spec("I:2,2"), keys)


class CountingGenerator:
    """A ``Generator`` that counts its ``standard_normal`` calls."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.fixture
def counted(monkeypatch):
    """Make ``domains.key_generators``, which seeds every key of every
    sampler through ``domains._first_draws``, hand out counting generators;
    the list of every generator made, in order."""
    made = []
    real = domains.key_generators

    def key_generators(keys):
        rngs = [CountingGenerator(rng) for rng in real(keys)]
        made.extend(rngs)
        return rngs

    monkeypatch.setattr(domains, "key_generators", key_generators)
    return made


class TestIsotropyElement:
    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_built_from_the_parameters_as_the_factors_give_it(self, text):
        # diag(L*, R) for kinds I/II/III and diag(R.real, R_theta) for kind IV,
        # with (L, R) of isotropy_factors: conjugating and transposing twice is
        # exact, so the elements agree bit for bit, one at a time and stacked.
        spec = parse_spec(text)
        stack = random_isotropy_stack(spec, np.array([[19, k] for k in range(6)], dtype=np.uint32))
        left, right = isotropy_factors(spec, stack)
        if spec.kind == "IV":
            theta = stack[1]
            rotation = np.stack([np.stack([np.cos(theta), -np.sin(theta)], axis=-1),
                                 np.stack([np.sin(theta), np.cos(theta)], axis=-1)], axis=-2)
            first, second = right.real, rotation
        else:
            first, second = left.conj().swapaxes(-1, -2), right
        size = autgroups.matrix_size(spec)
        want = np.zeros((6, size, size), dtype=complex)
        want[:, :len(first[0]), :len(first[0])] = first
        want[:, len(first[0]):, len(first[0]):] = second
        assert np.array_equal(isotropy(spec, stack).matrix, want)
        one = random_isotropy_params(spec, [19, 2])
        assert np.array_equal(isotropy(spec, one).matrix, want[2])


class TestDrawCalls:
    """Each key's generator draws every Gaussian of a draw group in one call."""

    @pytest.mark.parametrize("text", AUT_SPECS)
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_sampler_draws_once_per_attempt(self, text, region, counted, monkeypatch):
        # The first round rejects the even keys; every later candidate is accepted.
        rounds = []

        def even_keys_redraw_once(region, z, margin):
            rounds.append(len(z))
            accepted = np.ones(len(z), dtype=bool)
            if len(rounds) == 1:
                accepted[::2] = False
            return accepted

        monkeypatch.setattr(domains, "_accepted", even_keys_redraw_once)
        sample_points(parse_spec(text), region, AUT_KEYS)
        assert rounds == [len(AUT_KEYS), len(AUT_KEYS[::2])]
        # one call per key for the first attempt; a redrawn key reads its
        # stream's first two blocks, in one call for a boundary point (normals
        # only) and in one per block for an interior point (rho between them)
        calls = [rng.normal_calls for rng in counted]
        redraw = 1 if region == "boundary" else 2
        assert calls == [1] * len(AUT_KEYS) + [redraw] * len(AUT_KEYS[::2])

    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_isotropy_stack_draws_once_per_key(self, text, counted):
        random_isotropy_stack(parse_spec(text), np.array([[17, k] for k in range(24)],
                                                         dtype=np.uint32))
        assert [rng.normal_calls for rng in counted] == [1] * 24

    @pytest.mark.parametrize("text", AUT_SPECS)
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_automorphism_draws_once_per_group(self, text, flavor, counted):
        # kinds I/II/III draw a key's whole tape in one call; every kind IV key
        # draws its angle between the isotropy and the boost Gaussians
        spec = parse_spec(text)
        keys = keys_drawing(flavor, AUT_KEYS)
        assert keys
        random_automorphisms(spec, keys)
        calls = 2 if spec.kind == "IV" else 1
        assert [rng.normal_calls for rng in counted] == [calls] * len(keys)


class TestElementTape:
    KEYS = np.array([[42, k, 0] for k in range(30)], dtype=np.uint32)

    def test_the_memo_gives_the_memo_less_elements(self, counted):
        # the F_U reports of verify.run_all, in its order
        specs = [args[0] for check_id, _, args, _ in verify._plan(42, 10, 10)
                 if check_id.startswith("fu:")]
        assert list(map(str, specs)) == ["I:2,2", "I:2,3", "I:3,3", "III:2", "III:3", "II:3",
                                         "II:4", "II:5", "IV:3", "IV:4"]
        alone = [random_automorphisms(spec, self.KEYS).matrix for spec in specs]
        del counted[:]
        # the key stack's tape of a raw word and then normals only
        entry, depths = ("draws", True, False, self.KEYS.shape, self.KEYS.tobytes()), []
        with domains._sample_memo():
            for spec, want in zip(specs, alone):
                got = random_automorphisms(spec, self.KEYS)
                assert np.array_equal(got.matrix, want), spec
                depths.append(domains._SAMPLE_MEMO.get()[entry][1].shape[1])
        # I:2,2 draws a tape 100 normals deep, as deep as II:5 (100 normals) reads;
        # IV:3 and IV:4 each keep their draws with uniforms under their block sizes
        assert depths == [100] * 10
        assert len(counted) == 3 * len(self.KEYS)

    @pytest.mark.parametrize("text,counts", [("IV:1", (1, 2)), ("IV:3", (9, 6))])
    def test_a_second_kind_iv_call_under_one_memo_seeds_no_key(self, text, counts, counted,
                                                               monkeypatch):
        reads, first_draws = [], autgroups._first_draws

        def recorded(rows, counts, word=False, uniform=False):
            reads.append((counts, word, uniform))
            return first_draws(rows, counts, word, uniform)

        monkeypatch.setattr(autgroups, "_first_draws", recorded)
        spec = parse_spec(text)
        alone = random_automorphisms(spec, self.KEYS).matrix
        del counted[:]
        with domains._sample_memo():
            first = random_automorphisms(spec, self.KEYS).matrix
            assert len(counted) == len(self.KEYS)
            again = random_automorphisms(spec, self.KEYS).matrix
        assert len(counted) == len(self.KEYS)
        assert np.array_equal(first, alone) and np.array_equal(again, alone)
        # one read per call: a raw word, the n * n normals of P, theta, the 2n of B
        assert reads == [(counts, True, True)] * 3

    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_isotropy_elements_match_the_reference_under_the_memo(self, text):
        spec = parse_spec(text)
        keys = keys_drawing("isotropy", AUT_KEYS)
        with domains._sample_memo():
            random_automorphisms(parse_spec("II:5"), keys)  # a deeper tape first
            got = random_automorphisms(spec, keys)
        for key, m in zip(keys, got.matrix):
            assert np.array_equal(m, reference_automorphism(spec, key)), key


class TestReferenceDraws:
    """Every spec in turn under one run memo, and each alone: the later specs
    read the draws the earlier ones made (II:5 and IV:5 deeper ones), and
    each element and isotropy is still the one-key reference's."""

    TEXTS = ["I:1,1", "I:2,3", "II:2", "II:5", "III:1", "III:3", "IV:1", "IV:3", "IV:5"]
    KEYS = np.array([[47, k, 0] for k in range(24)], dtype=np.uint32)

    def both_ways(self, draw):
        specs = list(map(parse_spec, self.TEXTS))
        alone = [draw(spec, self.KEYS) for spec in specs]
        with domains._sample_memo():
            shared = [draw(spec, self.KEYS) for spec in specs]
        return zip(specs, alone, shared)

    def test_automorphisms(self):
        assert {drawn_flavor(key) for key in self.KEYS} == set(FLAVORS)
        for spec, alone, shared in self.both_ways(random_automorphisms):
            for key, a, b in zip(self.KEYS, alone.matrix, shared.matrix):
                want = reference_automorphism(spec, key)
                assert np.array_equal(a, want) and np.array_equal(b, want), (spec, key)

    def test_isotropy_stacks(self):
        for spec, alone, shared in self.both_ways(random_isotropy_stack):
            for k, key in enumerate(self.KEYS):
                want = reference_isotropy(spec, key)
                for stack in (alone, shared):
                    got = _params_at(stack, k)
                    got = got if isinstance(got, tuple) else (got,)
                    assert len(got) == len(want), spec
                    assert all(np.array_equal(a, b) for a, b in zip(got, want)), (spec, key)


def haar_reference(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_isotropy(spec, key):
    """One key at a time, in stream order: the Haar U and V (kind I) or A
    (kinds II/III), or a real Haar P and then theta (kind IV)."""
    theirs = np.random.default_rng(key)
    if spec.kind == "I":
        return tuple(haar_reference(theirs, n) for n in (spec.r, spec.s))
    if spec.mirror:
        return (haar_reference(theirs, spec.n),)
    q, r = np.linalg.qr(theirs.standard_normal((spec.n, spec.n)))
    return q * np.sign(np.diagonal(r)), theirs.uniform(0.0, 2.0 * np.pi)


class TestIsotropyDraws:
    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_draws_in_stream_order_and_a_generator_key_raises(self, text):
        spec = parse_spec(text)
        with pytest.raises(ParameterError, match="^RNG key must be a nonnegative integer"):
            random_isotropy_params(spec, np.random.default_rng(23))
        params = random_isotropy_params(spec, 23)
        got = params if isinstance(params, tuple) else (params,)
        assert all(np.array_equal(a, b) for a, b in zip(got, reference_isotropy(spec, 23)))

    @pytest.mark.parametrize("text", AUT_SPECS)
    def test_no_keys_give_an_empty_stack(self, text):
        spec = parse_spec(text)
        stack = random_isotropy_stack(spec, [])
        components = stack if isinstance(stack, tuple) else (stack,)
        assert all(len(c) == 0 for c in components)
        assert isotropy(spec, stack).matrix.shape == (0, *2 * (autgroups.matrix_size(spec),))


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
            lhs = polarized_norm(act(e, z), act(e, w)) ** 2 * dz * np.conj(dw)
            assert abs(lhs - polarized_norm(z, w) ** 2) <= 1e-10

    @pytest.mark.parametrize("text", ["IV:1", "IV:2", "IV:3", "IV:4", "IV:5"])
    def test_kind_iv_polarized_law_has_constant_four(self, text):
        # S(MZ, MW) lambda(Z) conj(lambda(W)) = 4 S(Z, W): derivation in the
        # autgroups docstring; the constant is the |2i|^2 of the identity
        spec = parse_spec(text)
        keys = [[41, k] for k in range(200)]
        e = random_automorphisms(spec, keys)
        z = sample_points(spec, "interior", [[42, k] for k in range(200)])
        w = sample_points(spec, "interior", [[43, k] for k in range(200)])
        before = domains.polarized_norms(spec, z, w)
        after = domains.polarized_norms(spec, act_points(e, z), act_points(e, w))
        lam_z, lam_w = automorphy_denominators(e, z), automorphy_denominators(e, w)
        res = np.abs(after * lam_z * np.conj(lam_w) - 4.0 * before)
        assert np.max(res / np.maximum(1.0, np.abs(before))) <= 1e-12

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
