import json
import math

import numpy as np
import pytest

from bsdkit.autgroups import act, identity_element, isotropy, random_isotropy_params, transvection_type1
from bsdkit.domains import (DomainSpec, Point, classify_point, origin, parse_spec, point,
                            sample_point, sample_points)
from bsdkit.errors import ParameterError, ShapeError
from bsdkit.polymaps import (
    CATALOG_IDS,
    catalog,
    coeff_distance,
    compose_pointwise,
    conjugate,
    embed_map,
    eval_map,
    eval_points,
    homogeneous_parts,
    map_constant,
    pad_map,
    polymap,
    polymap_from_json,
    polymap_to_json,
    select_map,
    source_positions,
    variable_names,
)

CATALOG_INSTANCES = [
    catalog("standard", r=2, s=2, r2=3, s2=3),
    catalog("whitney-ball", n=3),
    catalog("dangelo", n=3, theta=math.pi / 4),
    catalog("gen-whitney", r=2, s=2),
    catalog("f-sec4"),
    catalog("g-sec4"),
    catalog("f_t", t=0.35),
    catalog("g_t", t=0.35),
    catalog("G_t", r=2, s=3, t=0.35),
    catalog("h_t", t=0.35),
]

HAND_BUILT = [
    polymap(parse_spec("II:3"), parse_spec("I:1,3"),
            {(0, 0): {(1, 0, 0): 1.0, (0, 1, 1): 0.5j}, (0, 2): {(2, 0, 1): -1.5}}),
    polymap(parse_spec("III:2"), parse_spec("III:2"),
            {(0, 1): {(1, 1, 0): 2.0}, (1, 1): {(0, 0, 3): 1j, (1, 0, 0): 0.3}}),
    polymap(parse_spec("IV:3"), parse_spec("IV:3"),
            {(0, 0): {(1, 0, 0): 1.0}, (0, 2): {(1, 1, 1): 0.25, (0, 0, 2): -0.5}}),
    polymap(parse_spec("I:1,1"), parse_spec("I:1,2"), {(0, 0): {(1,): 1.0}, (0, 1): {(3,): 0.5}}),
    polymap(parse_spec("I:2,2"), parse_spec("I:3,3"), {}),  # must map to zeros
]


def direct_monomial_sum(f, p):
    """Reference evaluation: every term of every entry summed one by one."""
    vals = [p.value[pos] for pos in source_positions(f.source)]
    out = np.zeros(f.target.shape, dtype=complex)
    for (i, j), terms in f.entries.items():
        for exps, coeff in terms.items():
            out[i, j] += coeff * math.prod(v ** e for v, e in zip(vals, exps))
    return out


class TestEval:
    @pytest.mark.parametrize("f", CATALOG_INSTANCES, ids=lambda f: f"{f.source}->{f.target}")
    def test_catalog_maps_preserve_origin_exactly(self, f):
        assert not np.any(map_constant(f))
        assert not np.any(eval_map(f, origin(f.source)).value)

    def test_whitney_ball_2_arithmetic(self):
        f = catalog("whitney-ball", n=2)
        image = eval_map(f, point(f.source, [[0.3, 0.4]]))
        assert image.value[0] == pytest.approx([0.3, 0.12, 0.16])

    def test_standard_embedding_block_form(self):
        f = catalog("standard", r=2, s=2, r2=3, s2=3)
        z = sample_point(f.source, "interior", 1)
        image = eval_map(f, z).value
        assert np.array_equal(image[:2, :2], z.value)
        assert not np.any(image[2:, :]) and not np.any(image[:, 2:])

    def test_rejects_spec_mismatch(self):
        f = catalog("f-sec4")
        with pytest.raises(ShapeError):
            eval_map(f, origin(parse_spec("I:2,3")))

    @pytest.mark.parametrize("f", CATALOG_INSTANCES + HAND_BUILT,
                             ids=lambda f: f"{f.source}->{f.target}")
    def test_agrees_with_direct_monomial_sum(self, f):
        for k in range(10):
            z = sample_point(f.source, "interior", [21, k])
            assert np.max(np.abs(eval_map(f, z).value - direct_monomial_sum(f, z))) <= 1e-13

    @pytest.mark.parametrize("f", CATALOG_INSTANCES + HAND_BUILT,
                             ids=lambda f: f"{f.source}->{f.target}")
    def test_evaluation_leaves_value_semantics_unchanged(self, f):
        fresh = polymap_from_json(polymap_to_json(f))
        g = polymap_from_json(polymap_to_json(f))
        text, data = repr(g), polymap_to_json(g)
        eval_map(g, sample_point(g.source, "interior", 23))
        assert g == fresh and repr(g) == text
        assert polymap_to_json(g) == data
        assert polymap_from_json(json.loads(json.dumps(polymap_to_json(g)))) == g


class TestCatalogCoefficients:
    def test_f_t_displayed_entries(self):
        t = 0.4
        f = catalog("f_t", t=t)
        # entry (1,2) is sqrt(2-t) z1 z2, entry (2,2) is 2(1-t)/(2-t) z1 z4 + z2 z3
        assert f.entries[(0, 1)] == {(1, 1, 0, 0): pytest.approx(math.sqrt(2 - t))}
        assert f.entries[(1, 1)] == {
            (1, 0, 0, 1): pytest.approx(2 * (1 - t) / (2 - t)),
            (0, 1, 1, 0): pytest.approx(1.0),
        }

    def test_dangelo_theta_zero_kills_sine_terms(self):
        f = catalog("dangelo", n=3, theta=0.0)
        assert set(f.entries) == {(0, 0), (0, 1), (0, 2)}
        assert f.entries[(0, 2)] == {(0, 0, 1): pytest.approx(1.0)}

    def test_f_t_at_zero_is_padded_g_sec4(self):
        f0 = catalog("f_t", t=0.0)
        padded = pad_map(catalog("g-sec4"), f0.target)
        assert coeff_distance(f0, padded) <= 1e-15

    def test_f_t_at_one_extra_square_entry(self):
        f1 = catalog("f_t", t=1.0)
        embedded = embed_map(catalog("f-sec4"), f1.target, [0, 1, 3], [0, 1, 3])
        assert (2, 2) in f1.entries and (2, 2) not in embedded.entries
        trimmed = {pos: terms for pos, terms in f1.entries.items() if pos != (2, 2)}
        assert trimmed == embedded.entries

    def test_G_t_specializes_to_g_t(self):
        for t in (0.0, 0.3, 1.0):
            assert coeff_distance(catalog("G_t", r=2, s=2, t=t), catalog("g_t", t=t)) == 0.0

    def test_gen_whitney_22_equals_f_sec4(self):
        assert coeff_distance(catalog("gen-whitney", r=2, s=2), catalog("f-sec4")) == 0.0

    def test_h_t_is_f_t_restricted_to_symmetric_source(self):
        t = 0.55
        f = catalog("f_t", t=t)
        h = catalog("h_t", t=t)
        restricted = {}
        for pos, terms in f.entries.items():
            acc = restricted.setdefault(pos, {})
            for (a, b, c, d), coeff in terms.items():
                key = (a, b + c, d)  # identify the two off-diagonal source entries
                acc[key] = acc.get(key, 0j) + coeff
        for pos in {(i, j) for i in range(4) for j in range(4)}:
            assert restricted.get(pos, {}) == h.entries.get(pos, {}), pos

    def test_h_t_target_is_symmetric_coefficient_exact(self):
        h = catalog("h_t", t=0.7)
        for (i, j), terms in h.entries.items():
            assert h.entries[(j, i)] == terms

    def test_kind_ii_target_antisymmetry_enforced(self):
        spec2, spec3 = parse_spec("II:2"), parse_spec("II:3")
        f = polymap(spec2, spec3, {(0, 1): {(1,): 2.0}})
        assert f.entries[(1, 0)] == {(1,): -2.0}
        with pytest.raises(ShapeError):
            polymap(spec2, spec3, {(0, 0): {(1,): 1.0}})

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_family_parameter_range(self, bad):
        with pytest.raises(ParameterError):
            catalog("f_t", t=bad)
        with pytest.raises(ParameterError):
            catalog("dangelo", n=2, theta=3.0)

    def test_unknown_id(self):
        with pytest.raises(ParameterError):
            catalog("whitney")


SELECTED = [
    ("standard:2,2,3,3", "standard", {"r": 2, "s": 2, "r2": 3, "s2": 3}),
    ("whitney-ball:3", "whitney-ball", {"n": 3}),
    ("dangelo:3,0.5", "dangelo", {"n": 3, "theta": 0.5}),
    ("gen_whitney:2,3", "gen-whitney", {"r": 2, "s": 3}),
    ("f-sec4", "f-sec4", {}),
    ("g_sec4", "g-sec4", {}),
    ("f_t:0.35", "f_t", {"t": 0.35}),
    ("g_t:0.35", "g_t", {"t": 0.35}),
    ("G_t:2,3,0.35", "G_t", {"r": 2, "s": 3, "t": 0.35}),
    ("h_t:0.35", "h_t", {"t": 0.35}),
]


class TestSelectMap:
    def test_covers_catalog(self):
        assert sorted(map_id for _, map_id, _ in SELECTED) == sorted(CATALOG_IDS)

    @pytest.mark.parametrize("selector,map_id,params", SELECTED, ids=[s for s, _, _ in SELECTED])
    def test_selector_reaches_catalog_map(self, selector, map_id, params):
        assert coeff_distance(select_map(selector), catalog(map_id, **params)) == 0.0

    @pytest.mark.parametrize("selector", [s for s, _, _ in SELECTED])
    def test_stacked_evaluation_agrees_with_points(self, selector):
        f = select_map(selector)
        z = sample_points(f.source, "interior", [[24, k] for k in range(12)])
        stacked = eval_points(f, z)
        assert stacked.shape == (12, *f.target.shape)
        per_point = np.array([eval_map(f, Point(f.source, v)).value for v in z])
        assert np.max(np.abs(stacked - per_point)) <= 1e-13
        grid = eval_points(f, z.reshape(3, 4, *f.source.shape))
        assert np.max(np.abs(grid.reshape(stacked.shape) - stacked)) <= 1e-13

    @pytest.mark.parametrize("positional,selector,dims,flags", [
        ("G_t:2,2,0.5", "G_t:0.5", (2, 2), {}),
        ("G_t:2,2,0.5", "G_t", (2, 2), {"t": 0.5}),
        ("standard:2,2,3,3", "standard", (2, 2, 3, 3), {}),
        ("dangelo:2,0.5", "dangelo:2", None, {"theta": 0.5}),
        ("dangelo:2,0.5", "dangelo:0.5", (2,), {}),
        ("f_t:0.5", "f_t:0.5", None, {"theta": 0.1}),  # a flag the map does not take
    ])
    def test_positional_and_flag_forms_agree(self, positional, selector, dims, flags):
        assert coeff_distance(select_map(positional), select_map(selector, dims, **flags)) == 0.0

    @pytest.mark.parametrize("selector,dims,message", [
        ("standard", None, "standard needs --dims r,s,r2,s2"),
        ("gen-whitney", None, "gen-whitney needs --dims r,s"),
        ("dangelo:2", None, "dangelo needs a dimension and --theta"),
        ("gen-whitney", (2, 2, 2), "gen-whitney takes 2 dimensions"),
        ("f-sec4:1", None, "more values than f-sec4 takes"),
        ("whitney-ball:2,3", None, "more values than whitney-ball takes"),
        ("standard:2,x", None, "malformed s 'x'"),
        ("whitney:2", None, "unknown catalog map id"),
    ])
    def test_rejects_bad_selectors(self, selector, dims, message):
        with pytest.raises(ParameterError, match=message):
            select_map(selector, dims)


class TestHomogeneousParts:
    def test_f_t_degrees(self):
        parts = homogeneous_parts(catalog("f_t", t=0.5))
        assert sorted(parts) == [1, 2]
        assert sorted(homogeneous_parts(catalog("f_t", t=0.0))) == [2]

    def test_f_t_linear_part_support(self):
        parts = homogeneous_parts(catalog("f_t", t=0.5))
        assert set(parts[1].entries) == {(0, 3), (1, 3), (3, 0), (3, 1)}

    def test_parts_sum_to_map(self):
        f = catalog("g-sec4")
        parts = homogeneous_parts(f)
        for k in range(50):
            z = sample_point(f.source, "interior", [2, k])
            total = sum(eval_map(p, z).value for p in parts.values())
            assert np.linalg.norm(total - eval_map(f, z).value) <= 1e-12


class TestConjugate:
    def test_identity_isotropies_fix_coefficients(self):
        f = catalog("f_t", t=0.3)
        g = conjugate(f, (np.eye(2), np.eye(2)), (np.eye(4), np.eye(4)))
        assert coeff_distance(f, g) == 0.0

    @pytest.mark.parametrize("map_id,params", [("f_t", {"t": 0.3}), ("h_t", {"t": 0.3})])
    def test_defining_property(self, map_id, params):
        f = catalog(map_id, **params)
        pre = random_isotropy_params(f.source, 3)
        post = random_isotropy_params(f.target, 4)
        g = conjugate(f, pre, post)
        pre_el = isotropy(f.source, pre)
        post_el = isotropy(f.target, post)
        for k in range(25):
            z = sample_point(f.source, "interior", [5, k])
            expected = act(post_el, eval_map(f, act(pre_el, z))).value
            assert np.linalg.norm(eval_map(g, z).value - expected) <= 1e-12

    def test_degree_profile_preserved(self):
        f = catalog("g_t", t=0.6)
        g = conjugate(f, random_isotropy_params(f.source, 6), random_isotropy_params(f.target, 7))
        assert sorted(homogeneous_parts(f)) == sorted(homogeneous_parts(g))
        assert not np.any(map_constant(g))

    def test_rejects_kind_iv(self):
        spec = parse_spec("IV:2")
        f = polymap(spec, spec, {(0, 0): {(1, 0): 1.0}, (0, 1): {(0, 1): 1.0}})
        with pytest.raises(ShapeError):
            conjugate(f, None, None)


class TestComposePointwise:
    def test_identity_chain(self):
        f = catalog("f-sec4")
        comp = compose_pointwise(f, identity_element(f.source), identity_element(f.target))
        z = sample_point(f.source, "interior", 8)
        assert np.allclose(comp(z).value, eval_map(f, z).value)

    def test_transvection_precompose_moves_origin(self):
        f = catalog("f-sec4")
        z0 = sample_point(f.source, "interior", 9)
        pre = transvection_type1(z0)
        post = identity_element(f.target)
        comp = compose_pointwise(f, pre, post)
        expected = eval_map(f, z0).value
        assert np.allclose(comp(origin(f.source)).value, expected, atol=1e-12)

    def test_preserves_boundary_for_proper_map(self):
        f = catalog("gen-whitney", r=2, s=2)
        pre = transvection_type1(sample_point(f.source, "interior", 10))
        post = identity_element(f.target)
        comp = compose_pointwise(f, pre, post)
        for k in range(20):
            z = sample_point(f.source, "boundary", [11, k])
            assert classify_point(comp(z), 1e-7).region == "boundary"

    def test_rejects_mismatched_elements(self):
        f = catalog("f-sec4")
        with pytest.raises(ShapeError):
            compose_pointwise(f, identity_element(f.target), identity_element(f.target))


class TestSerialization:
    def test_schema(self):
        f = catalog("whitney-ball", n=2)
        data = polymap_to_json(f)
        assert data["source"] == "I:1,2" and data["target"] == "I:1,3"
        first = data["entries"][0]
        assert first["row"] == 1 and first["col"] == 1
        assert first["terms"] == [{"exps": {"z11": 1}, "re": 1.0, "im": 0.0}]

    @pytest.mark.parametrize("f", CATALOG_INSTANCES, ids=lambda f: f"{f.source}->{f.target}")
    def test_roundtrip(self, f):
        restored = polymap_from_json(json.loads(json.dumps(polymap_to_json(f))))
        assert coeff_distance(f, restored) == 0.0

    def test_variable_names_kind_iv(self):
        assert variable_names(parse_spec("IV:3")) == ["z1", "z2", "z3"]
        assert variable_names(parse_spec("III:2")) == ["z11", "z12", "z22"]

    def test_rejects_unknown_variable(self):
        data = {"source": "I:1,2", "target": "I:1,3",
                "entries": [{"row": 1, "col": 1, "terms": [{"exps": {"z99": 1}, "re": 1.0, "im": 0.0}]}]}
        with pytest.raises(ShapeError):
            polymap_from_json(data)


class TestEmbeddings:
    def test_pad_map_positions(self):
        f = catalog("g-sec4")
        target = DomainSpec("I", r=4, s=4)
        padded = pad_map(f, target)
        z = sample_point(f.source, "interior", 12)
        assert np.array_equal(eval_map(padded, z).value[:3, :3], eval_map(f, z).value)

    def test_embed_requires_matching_rows_cols_for_symmetric_targets(self):
        h = catalog("h_t", t=0.2)
        with pytest.raises(ShapeError):
            embed_map(h, DomainSpec("III", n=5), [0, 1, 2, 3], [0, 1, 2, 4])

    def test_source_positions_counts(self):
        assert len(source_positions(parse_spec("I:2,3"))) == 6
        assert len(source_positions(parse_spec("II:4"))) == 6
        assert len(source_positions(parse_spec("III:3"))) == 6
        assert len(source_positions(parse_spec("IV:5"))) == 5
