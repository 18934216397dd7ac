import json
import math
import tracemalloc

import numpy as np
import pytest

import bsdkit.autgroups
import bsdkit.polymaps
from bsdkit.autgroups import _params_at, act, isotropy, random_isotropy_params, random_isotropy_stack
from bsdkit.domains import (DomainSpec, Point, origin, parse_spec, point, sample_point,
                            sample_points)
from bsdkit.errors import NumericError, ParameterError, ShapeError
from bsdkit.invariants import monomials_of_degree as invariants_monomials_of_degree
from bsdkit.polymaps import (
    CATALOG_IDS,
    _conjugations,
    _coordinates,
    _embedding,
    _monomial_values,
    _power_actions,
    catalog,
    coeff_distance,
    conjugate,
    embed_map,
    eval_map,
    eval_points,
    homogeneous_parts,
    map_constant,
    monomials_of_degree,
    pad_map,
    polymap,
    polymap_from_json,
    polymap_to_json,
    select_map,
    source_positions,
    variable_names,
)
from bsdkit.verify import check_isotropy_consistency

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


# kind IV maps for conjugation: the inclusion of IV:3 into IV:4 plus a
# quadratic term, and a map of IV:3 into the ball I:1,3 with a quadratic term
KIND_IV_MAPS = {
    "IV:3->IV:4": polymap(parse_spec("IV:3"), parse_spec("IV:4"), {
        (0, 0): {(1, 0, 0): 1.0}, (0, 1): {(0, 1, 0): 1.0}, (0, 2): {(0, 0, 1): 1.0},
        (0, 3): {(1, 1, 0): 0.5, (0, 0, 2): 0.25j}}),
    "IV:3->I:1,3": polymap(parse_spec("IV:3"), parse_spec("I:1,3"), {
        (0, 0): {(1, 0, 0): 0.8}, (0, 1): {(0, 1, 0): 0.8, (1, 0, 1): 0.3},
        (0, 2): {(0, 0, 1): 0.6j, (2, 0, 0): -0.2}}),
}


REFERENCE_MAPS = [
    catalog("f_t", t=0.3),
    catalog("h_t", t=0.3),
    catalog("gen-whitney", r=2, s=2),
    polymap(parse_spec("II:3"), parse_spec("II:4"),
            {(0, 1): {(1, 0, 0): 1.0}, (0, 2): {(0, 1, 0): 1.0}, (1, 2): {(0, 0, 1): 1.0}}),
    polymap(parse_spec("III:2"), parse_spec("II:3"),
            {(0, 1): {(1, 0, 0): 1.0, (0, 1, 1): 0.5}, (1, 2): {(0, 0, 2): 0.3j, (1, 1, 1): -0.2}}),
    polymap(parse_spec("I:1,1"), parse_spec("I:1,2"), {(0, 0): {(1,): 1.0}, (0, 1): {(3,): 0.5}}),
    polymap(parse_spec("II:2"), parse_spec("II:3"), {(0, 1): {(1,): 0.8}, (1, 2): {(2,): 0.6}}),
    polymap(parse_spec("III:1"), parse_spec("III:2"),
            {(0, 0): {(1,): 1.0}, (0, 1): {(2,): 0.5j}, (1, 1): {(3,): 0.25}}),
    *KIND_IV_MAPS.values(),
]

# Maps built from arrays rather than through polymap(): isotropic conjugates
# (kind II/III targets included), homogeneous parts and a padded map.
ARRAY_BUILT = {
    **{f"conjugate {f.source}->{f.target}": conjugate(f, random_isotropy_params(f.source, [34, k]),
                                                       random_isotropy_params(f.target, [35, k]))
       for k, f in enumerate(REFERENCE_MAPS)},
    **{f"part {d} of {f.source}->{f.target}": part
       for f in REFERENCE_MAPS[:5] for d, part in homogeneous_parts(f).items()},
    "pad III:2->III:4 into III:5": pad_map(catalog("h_t", t=0.35), parse_spec("III:5")),
}
VALUE_MAPS = [*CATALOG_INSTANCES, *HAND_BUILT,
              *(pytest.param(g, id=label) for label, g in ARRAY_BUILT.items())]


def direct_monomial_sum(f, p):
    """Reference evaluation: every term of every entry summed one by one."""
    vals = [p.value[pos] for pos in source_positions(f.source)]
    out = np.zeros(f.target.shape, dtype=complex)
    for (i, j), terms in f.entries.items():
        for exps, coeff in terms.items():
            out[i, j] += coeff * math.prod(v ** e for v, e in zip(vals, exps))
    return out


class TestSourcePositions:
    @pytest.mark.parametrize("text,positions", [
        ("I:1,2", [(0, 0), (0, 1)]),
        ("II:3", [(0, 1), (0, 2), (1, 2)]),
        ("III:2", [(0, 0), (0, 1), (1, 1)]),
        ("IV:3", [(0, 0), (0, 1), (0, 2)]),
    ])
    def test_independent_positions(self, text, positions):
        assert source_positions(parse_spec(text)) == positions

    @pytest.mark.parametrize("text", ["I:1,1", "I:2,3", "II:2", "II:4", "III:1", "III:3", "IV:1",
                                      "IV:3"])
    def test_embedding_rebuilds_a_point_from_its_independent_entries(self, text):
        spec = parse_spec(text)
        z = sample_point(spec, "interior", 5).value
        x = np.array([z[pos] for pos in source_positions(spec)])
        (rows, cols, w), b = _coordinates(spec), _embedding(spec)
        assert np.array_equal(b @ x, z)
        assert list(zip(rows.tolist(), cols.tolist())) == source_positions(spec)
        off_diagonal = (rows != cols) & (spec.kind in ("II", "III"))
        assert np.array_equal(w, np.where(off_diagonal, math.sqrt(2.0), 1.0))
        assert np.array_equal(w, np.sqrt(np.square(b).sum(axis=(0, 1))))
        for a in (rows, cols, b, w):
            with pytest.raises(ValueError):
                a[0] = a[0]


class TestEval:
    @pytest.mark.parametrize("f", CATALOG_INSTANCES, ids=lambda f: f"{f.source}->{f.target}")
    def test_catalog_maps_preserve_origin_exactly(self, f):
        assert not np.any(map_constant(f))
        assert not np.any(eval_map(f, origin(f.source)).value)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 1), (2,)])
    def test_a_stack_of_another_point_shape_is_a_shape_error(self, shape):
        # f_t(0.3) maps I:2,2 into I:4,4; a 3 x 3 stack used to give an image
        f = catalog("f_t", t=0.3)
        with pytest.raises(ShapeError, match=r"^point stack shape \(4, "):
            eval_points(f, np.full((4, *shape), 0.1, dtype=complex))

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

    @pytest.mark.parametrize("f", VALUE_MAPS, ids=lambda f: f"{f.source}->{f.target}")
    def test_evaluation_leaves_value_semantics_unchanged(self, f):
        # The validated constructor accepts every map exactly as stored: for kind
        # II/III targets this needs each mirror row to be exactly eps times its row.
        assert polymap(f.source, f.target, f.entries) == f
        assert polymap_from_json(polymap_to_json(f)) == f
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

    # Exponents over (z11, z12, z21, z22); target positions 0-based.
    F_SEC4 = {
        (0, 0): {(2, 0, 0, 0): 1.0}, (0, 1): {(1, 1, 0, 0): 1.0}, (0, 2): {(0, 1, 0, 0): 1.0},
        (1, 0): {(1, 0, 1, 0): 1.0}, (1, 1): {(0, 1, 1, 0): 1.0}, (1, 2): {(0, 0, 0, 1): 1.0},
        (2, 0): {(0, 0, 1, 0): 1.0}, (2, 1): {(0, 0, 0, 1): 1.0},
    }

    @staticmethod
    def g_t_table(t):
        rt, rs = math.sqrt(t), math.sqrt(1.0 - t)
        table = {
            (0, 0): {(2, 0, 0, 0): rt}, (0, 1): {(1, 1, 0, 0): rt}, (0, 2): {(1, 0, 0, 0): rs},
            (0, 3): {(0, 1, 0, 0): 1.0}, (1, 0): {(1, 0, 1, 0): rt}, (1, 1): {(0, 1, 1, 0): rt},
            (1, 2): {(0, 0, 1, 0): rs}, (1, 3): {(0, 0, 0, 1): 1.0}, (2, 0): {(0, 0, 1, 0): 1.0},
            (2, 1): {(0, 0, 0, 1): 1.0},
        }
        return {pos: terms for pos, terms in table.items() if any(terms.values())}

    def test_G_t_specializes_to_g_t(self):
        for t in (0.0, 0.3, 1.0):
            g = catalog("g_t", t=t)
            assert (str(g.source), str(g.target)) == ("I:2,2", "I:3,4")
            assert g.entries == self.g_t_table(t)
            assert catalog("G_t", r=2, s=2, t=t).entries == self.g_t_table(t)

    def test_gen_whitney_22_equals_f_sec4(self):
        f = catalog("f-sec4")
        assert (str(f.source), str(f.target)) == ("I:2,2", "I:3,3")
        assert f.entries == self.F_SEC4
        assert catalog("gen-whitney", r=2, s=2).entries == self.F_SEC4

    # Literal tables of the maps the family builders derive, target positions 0-based.
    WHITNEY_BALL_3 = {  # (z1, z2, z3 z1, z3 z2, z3^2)
        (0, 0): {(1, 0, 0): 1.0}, (0, 1): {(0, 1, 0): 1.0}, (0, 2): {(1, 0, 1): 1.0},
        (0, 3): {(0, 1, 1): 1.0}, (0, 4): {(0, 0, 2): 1.0},
    }
    DANGELO_2 = {  # (z1, cos z2, sin z1 z2, sin z2^2) at theta = 0.5
        (0, 0): {(1, 0): 1.0}, (0, 1): {(0, 1): math.cos(0.5)}, (0, 2): {(1, 1): math.sin(0.5)},
        (0, 3): {(0, 2): math.sin(0.5)},
    }
    GEN_WHITNEY_23 = {  # exponents over (z11, z12, z13, z21, z22, z23)
        (0, 0): {(2, 0, 0, 0, 0, 0): 1.0}, (0, 1): {(1, 1, 0, 0, 0, 0): 1.0},
        (0, 2): {(1, 0, 1, 0, 0, 0): 1.0}, (0, 3): {(0, 1, 0, 0, 0, 0): 1.0},
        (0, 4): {(0, 0, 1, 0, 0, 0): 1.0}, (1, 0): {(1, 0, 0, 1, 0, 0): 1.0},
        (1, 1): {(0, 1, 0, 1, 0, 0): 1.0}, (1, 2): {(0, 0, 1, 1, 0, 0): 1.0},
        (1, 3): {(0, 0, 0, 0, 1, 0): 1.0}, (1, 4): {(0, 0, 0, 0, 0, 1): 1.0},
        (2, 0): {(0, 0, 0, 1, 0, 0): 1.0}, (2, 1): {(0, 0, 0, 0, 1, 0): 1.0},
        (2, 2): {(0, 0, 0, 0, 0, 1): 1.0},
    }

    G_SEC4 = {  # exponents over (z11, z12, z21, z22)
        (0, 0): {(2, 0, 0, 0): 1.0}, (0, 1): {(1, 1, 0, 0): math.sqrt(2.0)},
        (0, 2): {(0, 2, 0, 0): 1.0}, (1, 0): {(1, 0, 1, 0): math.sqrt(2.0)},
        (1, 1): {(1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0}, (1, 2): {(0, 1, 0, 1): math.sqrt(2.0)},
        (2, 0): {(0, 0, 2, 0): 1.0}, (2, 1): {(0, 0, 1, 1): math.sqrt(2.0)},
        (2, 2): {(0, 0, 0, 2): 1.0},
    }

    @staticmethod
    def h_t_table(t):
        """h_t over (z11, z12, z22), the upper triangle and its mirror."""
        upper = {
            (0, 0): {(2, 0, 0): 1.0}, (0, 1): {(1, 1, 0): math.sqrt(2.0 - t)},
            (0, 2): {(0, 2, 0): math.sqrt(1.0 - t)}, (0, 3): {(0, 1, 0): math.sqrt(t)},
            (1, 1): {(1, 0, 1): 2.0 * (1.0 - t) / (2.0 - t), (0, 2, 0): 1.0},
            (1, 2): {(0, 1, 1): 2.0 * math.sqrt((1.0 - t) / (2.0 - t))},
            (1, 3): {(0, 0, 1): math.sqrt(t / (2.0 - t))}, (2, 2): {(0, 0, 2): 1.0},
        }
        table = {**{(j, i): terms for (i, j), terms in upper.items()}, **upper}
        table = {pos: {e: c for e, c in terms.items() if c} for pos, terms in table.items()}
        return {pos: terms for pos, terms in table.items() if terms}

    @pytest.mark.parametrize("map_id,params,specs,table", [
        ("whitney-ball", {"n": 3}, ("I:1,3", "I:1,5"), WHITNEY_BALL_3),
        ("dangelo", {"n": 2, "theta": 0.5}, ("I:1,2", "I:1,4"), DANGELO_2),
        ("gen-whitney", {"r": 2, "s": 3}, ("I:2,3", "I:3,5"), GEN_WHITNEY_23),
        ("g-sec4", {}, ("I:2,2", "I:3,3"), G_SEC4),
        ("h_t", {"t": 0.0}, ("III:2", "III:4"), h_t_table(0.0)),
        ("h_t", {"t": 0.3}, ("III:2", "III:4"), h_t_table(0.3)),
        ("h_t", {"t": 1.0}, ("III:2", "III:4"), h_t_table(1.0)),
    ])
    def test_family_builders_give_the_literal_table(self, map_id, params, specs, table):
        f = catalog(map_id, **params)
        assert (str(f.source), str(f.target)) == specs
        assert f.entries == table

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

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ParameterError, match="non-finite coefficient"):
            polymap(parse_spec("I:1,2"), parse_spec("I:1,3"), {(0, 0): {(1, 0): float("nan")}})
        with pytest.raises(ParameterError, match="non-finite coefficient"):
            polymap(parse_spec("III:2"), parse_spec("III:2"), {(0, 1): {(1, 0, 0): complex(0, math.inf)}})

    def test_stored_arrays_are_read_only(self):
        f = catalog("f_t", t=0.3)
        g = conjugate(f, random_isotropy_params(f.source, 3), random_isotropy_params(f.target, 4))
        for m in (f, g, *homogeneous_parts(f).values()):
            with pytest.raises(ValueError):
                m.coeffs[0, 0] = 1.0
            with pytest.raises(ValueError):
                m.exponents[0, 0] = 1

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

    @pytest.mark.parametrize("selector,flags,kind", [
        ("f_t", {"t": [0.5]}, "list"),
        ("G_t:2,2", {"t": np.array([0.2, 0.5])}, "ndarray"),
        ("h_t", {"t": "0.5"}, "str"),
        ("dangelo:2", {"theta": np.array(0.5)}, "ndarray"),
    ])
    def test_rejects_a_flag_that_is_not_a_number(self, selector, flags, kind):
        (name, _), = flags.items()
        with pytest.raises(ParameterError, match=f"^map parameter {name} must be a real number, "
                                                 f"got {kind}$"):
            select_map(selector, **flags)

    def test_what_a_selector_needs_is_formatted_only_for_an_error(self, monkeypatch):
        needs = bsdkit.polymaps._needs
        calls = []
        monkeypatch.setattr(bsdkit.polymaps, "_needs",
                            lambda *args: calls.append(args) or needs(*args))
        for selector, map_id, params in SELECTED:
            select_map(selector)
        assert calls == []
        with pytest.raises(ParameterError, match="^G_t needs --dims r,s and --t$"):
            select_map("G_t")
        assert len(calls) == 1


def power_reference(spec, z, exponents):
    """prod(vals ** E) with NumPy's complex power, vals the independent entries."""
    rows, cols, _ = _coordinates(spec)
    return np.prod(z[..., rows, cols][..., None, :] ** exponents, axis=-1)


def exact_power(z: complex, e: int) -> complex:
    """z**e rounded once: the parts of z are integers a, b over one power of
    two q, and (a + bi)^e is an exact Gaussian integer power."""
    (a, qa), (b, qb) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    q = max(qa, qb)
    base, power = (a * (q // qa), b * (q // qb)), (1, 0)
    for bit in bin(e)[2:]:
        power = (power[0] * power[0] - power[1] * power[1], 2 * power[0] * power[1])
        if bit == "1":
            power = (power[0] * base[0] - power[1] * base[1], power[0] * base[1] + power[1] * base[0])
    return complex(power[0] / q**e, power[1] / q**e)


class TestMonomialValues:
    """``_monomial_values`` gathers each monomial from running-product power
    tables, or for a sparse map of high degree takes each distinct exponent
    by repeated squaring; the reference takes every power with ``**``."""

    @pytest.mark.parametrize("f", [*(select_map(s) for s, _, _ in SELECTED), *HAND_BUILT[:3]],
                             ids=lambda f: f"{f.source}->{f.target}")
    def test_matches_the_power_reference(self, f):
        z = sample_points(f.source, "interior", [[25, k] for k in range(12)])
        rows, cols, _ = _coordinates(f.source)
        z[::3, rows[0], cols[0]] = 0.0  # x^0 = 1 and x^k = 0 at a zero entry
        if f.source.mirror:
            z[::3, cols[0], rows[0]] = 0.0
        got = _monomial_values(f.source, z, f.exponents)
        reference = power_reference(f.source, z, f.exponents)
        assert got.shape == (12, len(f.exponents))
        assert np.all(np.abs(got - reference) <= 1e-14 * np.abs(reference))
        constant = np.all(f.exponents == 0, axis=1)
        assert np.all(got[:, constant] == 1.0)
        assert np.all(got[::3][:, f.exponents[:, 0] > 0] == 0.0)

    def test_stack_axes_and_no_exponents(self):
        f = catalog("f-sec4")
        z = sample_points(f.source, "interior", [[26, k] for k in range(6)]).reshape(2, 3, 2, 2)
        assert np.array_equal(_monomial_values(f.source, z, f.exponents).reshape(6, -1),
                              _monomial_values(f.source, z.reshape(6, 2, 2), f.exponents))
        empty = np.zeros((0, f.nvars), dtype=int)
        assert _monomial_values(f.source, z, empty).shape == (2, 3, 0)

    @pytest.mark.parametrize("terms,tol", [
        # dense: the running-product table, about sqrt(2000) roundings
        ({(k,): 1.0 / (k + 1) for k in range(2001)}, 2e-14),
        # sparse: repeated squaring, the first rounding doubled 10 times
        ({(2000,): 1.0, (0,): 0.5}, 2000 * 2.0**-53),
    ], ids=["dense", "sparse"])
    def test_degree_2000_near_the_circle(self, terms, tol):
        # Tier-1 turns RuntimeWarning into an error, so this also shows that
        # no warning is raised.
        spec = parse_spec("I:1,1")
        f = polymap(spec, spec, {(0, 0): terms})
        z = 0.99 * np.exp(2j * np.pi * np.linspace(0.0, 1.0, 50))[:, None, None]
        got = _monomial_values(spec, z, f.exponents)
        reference = power_reference(spec, z, f.exponents)
        assert np.all(np.abs(got - reference) <= 2e-12 * np.abs(reference))
        column = f.exponents[:, 0] == 2000
        exact = np.array([exact_power(complex(v), 2000) for v in z[:, 0, 0]])
        assert np.all(np.abs(got[:, column][:, 0] - exact) <= tol * np.abs(exact))
        # NumPy's z**2000 goes through exp and log, about 8e-13 off
        assert np.max(np.abs(reference[:, column][:, 0] - exact) / np.abs(exact)) > 2 * tol

    def test_a_sparse_map_of_huge_degree_builds_no_power_table(self):
        # z^8000000 is under the operator cap; a table of every power up to
        # it would take 64 GB over these 500 points.
        spec = parse_spec("I:1,1")
        f = polymap(spec, spec, {(0, 0): {(8_000_000,): 1.0}})
        z = sample_points(spec, "boundary", [[27, k] for k in range(500)])
        tracemalloc.start()
        try:
            got = _monomial_values(spec, z, f.exponents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # repeated squaring and NumPy's exp and log are each a few times
        # 8e6 * 2**-53 = 9e-10 off the exact power
        reference = power_reference(spec, z, f.exponents)
        assert np.all(np.abs(got - reference) <= 1e-8 * np.abs(reference))


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
    @pytest.mark.parametrize("pre,post", [(None, None), ((np.eye(2),), (np.eye(4), np.eye(4))),
                                          ((np.eye(2), np.eye(2)), 5)])
    def test_malformed_params_are_a_parameter_error(self, pre, post):
        # not Python's untyped TypeError
        with pytest.raises(ParameterError, match="^kind I isotropy parameters must be"):
            conjugate(catalog("f_t", t=0.3), pre, post)

    def test_identity_isotropies_fix_coefficients(self):
        f = catalog("f_t", t=0.3)
        g = conjugate(f, (np.eye(2), np.eye(2)), (np.eye(4), np.eye(4)))
        assert coeff_distance(f, g) == 0.0

    @pytest.mark.parametrize("map_id,params", [("f_t", {"t": 0.3}), ("h_t", {"t": 0.3}),
                                               *((key, {}) for key in KIND_IV_MAPS)])
    def test_defining_property(self, map_id, params):
        f = KIND_IV_MAPS[map_id] if map_id in KIND_IV_MAPS else catalog(map_id, **params)
        pre = random_isotropy_params(f.source, 3)
        post = random_isotropy_params(f.target, 4)
        g = conjugate(f, pre, post)
        pre_el = isotropy(f.source, pre)
        post_el = isotropy(f.target, post)
        for k in range(25):
            z = sample_point(f.source, "interior", [5, k])
            expected = act(post_el, eval_map(f, act(pre_el, z))).value
            assert np.linalg.norm(eval_map(g, z).value - expected) <= 1e-12

    def test_parameter_stack_raises(self):
        f = catalog("f_t", t=0.3)
        (u, v), post = random_isotropy_params(f.source, 3), random_isotropy_params(f.target, 4)
        with pytest.raises(ShapeError, match="got a stack"):
            conjugate(f, (np.array([u, u]), np.array([v, v])), post)
        with pytest.raises(ShapeError, match="got a stack"):
            conjugate(f, (u, v), (post[0], np.array([post[1]] * 3)))
        spec = parse_spec("IV:2")
        g = polymap(spec, spec, {(0, 0): {(1, 0): 1.0}})
        with pytest.raises(ShapeError, match="got a stack"):
            conjugate(g, (np.eye(2), np.zeros(2)), (np.eye(2), 0.0))

    def test_degree_profile_preserved(self):
        f = catalog("g_t", t=0.6)
        g = conjugate(f, random_isotropy_params(f.source, 6), random_isotropy_params(f.target, 7))
        assert sorted(homogeneous_parts(f)) == sorted(homogeneous_parts(g))
        assert not np.any(map_constant(g))

    @pytest.mark.parametrize("key", sorted(KIND_IV_MAPS))
    def test_isotropy_consistency_check_passes_on_kind_iv_maps(self, key):
        rep = check_isotropy_consistency(KIND_IV_MAPS[key], n_trials=50, tol=1e-10, seed=19)
        assert rep.passed and rep.samples == 50

    def test_kind_iv_identity_isotropies_fix_coefficients(self):
        spec = parse_spec("IV:2")
        f = polymap(spec, spec, {(0, 0): {(1, 0): 1.0}, (0, 1): {(0, 1): 1.0, (1, 1): 0.5}})
        assert coeff_distance(f, conjugate(f, (np.eye(2), 0.0), (np.eye(2), 0.0))) == 0.0


def isotropy_factors(spec, params):
    """(L, R) of the origin isotropy Z -> L Z R: (U*, V) for kind I, (A*, conj A)
    for kinds II/III, (e^{-i theta}, P) for kind IV, as the ``autgroups``
    docstring states them."""
    if spec.kind == "I":
        u, v = params
        return np.conj(u).T, np.asarray(v)
    if spec.kind == "IV":
        p, theta = params
        return np.array([[np.exp(-1j * theta)]]), np.asarray(p)
    return np.conj(params).T, np.conj(params)


def basis_matrix(spec, v):
    """Z for the v-th independent variable set to 1 and the others to 0."""
    i, j = source_positions(spec)[v]
    m = np.zeros(spec.shape)
    if spec.kind in ("II", "III"):
        m[j, i] = -1.0 if spec.kind == "II" else 1.0
    m[i, j] = 1.0
    return m


def substitution(spec, params):
    """S with sigma(Z) = S x on the independent variables: S[k, v] is entry k of
    L B_v R for the basis matrix B_v."""
    left, right = isotropy_factors(spec, params)
    positions = source_positions(spec)
    return np.array([[(left @ basis_matrix(spec, v) @ right)[pos] for v in range(len(positions))]
                     for pos in positions])


def reference_conjugate(f, pre, post):
    """Z -> L f(sigma(Z)) R expanded term by term: each monomial is multiplied
    out over the linear forms of sigma with dict polynomials, then the target
    isotropy is summed over every stored target entry."""
    nvars = f.nvars
    s = substitution(f.source, pre)
    forms = [{tuple(int(w == v) for w in range(nvars)): s[k, v] for v in range(nvars)}
             for k in range(nvars)]

    def mul(p, q):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0j) + ca * cb
        return out

    substituted = {}
    for pos, terms in f.entries.items():
        poly = substituted.setdefault(pos, {})
        for exps, coeff in terms.items():
            product = {tuple([0] * nvars): coeff}
            for k, e in enumerate(exps):
                for _ in range(e):
                    product = mul(product, forms[k])
            for key, c in product.items():
                poly[key] = poly.get(key, 0j) + c
    left, right = isotropy_factors(f.target, post)
    entries = {}
    for i, j in source_positions(f.target):
        acc = entries.setdefault((i, j), {})
        for (k, l), poly in substituted.items():
            for exps, c in poly.items():
                acc[exps] = acc.get(exps, 0j) + left[i, k] * c * right[l, j]
    return polymap(f.source, f.target, entries)


def frobenius_weights(spec):
    return [math.sqrt(2.0) if spec.kind in ("II", "III") and i != j else 1.0
            for i, j in source_positions(spec)]


class TestArrayAlgebra:
    @pytest.mark.parametrize("f", REFERENCE_MAPS, ids=lambda f: f"{f.source}->{f.target}")
    def test_conjugate_matches_term_by_term_reference(self, f):
        for k in range(5):
            pre = random_isotropy_params(f.source, [31, k])
            post = random_isotropy_params(f.target, [32, k])
            assert coeff_distance(conjugate(f, pre, post), reference_conjugate(f, pre, post)) <= 1e-13

    @pytest.mark.parametrize("spec_text", ["I:1,1", "I:2,3", "II:2", "II:4", "III:1", "III:3",
                                           "IV:1", "IV:3"])
    def test_power_action_is_unitary_in_fischer_coordinates(self, spec_text):
        # The invariance claim of the invariants docstring: in Fischer and
        # Frobenius coordinates a source isotropy acts on each degree unitarily.
        spec = parse_spec(spec_text)
        nvars = len(source_positions(spec))
        w = frobenius_weights(spec)
        for k in range(5):
            powers = _power_actions(substitution(spec, random_isotropy_params(spec, [33, k])), 3)
            for d in (1, 2, 3):
                phi = np.array([math.sqrt(math.prod(math.factorial(e) for e in m))
                                * math.prod(x ** -e for x, e in zip(w, m))
                                for m in monomials_of_degree(nvars, d)])
                u = powers[d] * phi[None, :] / phi[:, None]
                assert np.max(np.abs(u @ u.conj().T - np.eye(len(phi)))) <= 1e-12

    def test_one_monomial_enumerator(self):
        assert invariants_monomials_of_degree is monomials_of_degree
        assert monomials_of_degree(3, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


class TestStackedConjugation:
    @pytest.mark.parametrize("f", REFERENCE_MAPS, ids=lambda f: f"{f.source}->{f.target}")
    def test_stack_equals_one_conjugate_per_trial_bit_for_bit(self, f):
        # REFERENCE_MAPS covers all four kinds, the edge specs I:1,1, II:2 and
        # III:1 and both KIND_IV_MAPS
        trials = 6
        pre = random_isotropy_stack(f.source, [[36, k] for k in range(trials)])
        post = random_isotropy_stack(f.target, [[37, k] for k in range(trials)])
        exponents, coeffs, degrees = _conjugations(f, bsdkit.autgroups.isotropy_factors(f.source, pre),
                                                   bsdkit.autgroups.isotropy_factors(f.target, post))
        assert coeffs.shape == (trials, len(f.coeffs), len(exponents))
        for k in range(trials):
            g = conjugate(f, _params_at(pre, k), _params_at(post, k))
            assert np.array_equal(g.exponents, exponents)
            assert [d for d, _, _ in g.degrees] == [d for d, _, _ in degrees]
            assert g.coeffs.tobytes() == coeffs[k].tobytes()

    @pytest.mark.parametrize("spec_text", ["I:1,1", "I:2,3", "II:2", "II:4", "III:1", "III:3",
                                           "IV:1", "IV:3"])
    def test_stacked_power_actions_equal_the_two_dimensional_ones(self, spec_text):
        spec = parse_spec(spec_text)
        s = np.array([substitution(spec, random_isotropy_params(spec, [38, k])) for k in range(6)])
        for stack in (s, s.reshape(2, 3, *s.shape[1:])):
            stacked = _power_actions(stack, 3)
            for k, index in enumerate(np.ndindex(stack.shape[:-2])):
                for d, p in enumerate(_power_actions(s[k], 3)):
                    assert stacked[d].shape == (*stack.shape[:-2], *p.shape)
                    assert stacked[d][index].tobytes() == p.tobytes()


class TestReadOnlyEntries:
    def test_writing_entries_raises_at_either_level(self):
        f = catalog("f_t", t=0.3)
        json_before = polymap_to_json(f)
        with pytest.raises(TypeError):
            f.entries[(0, 0)] = {}
        with pytest.raises(TypeError):
            del f.entries[(0, 1)]
        terms = f.entries[(0, 1)]
        with pytest.raises(TypeError):
            terms[next(iter(terms))] = 5.0
        with pytest.raises(TypeError):
            terms[(9, 9, 9, 9)] = 1.0
        assert f == catalog("f_t", t=0.3)
        assert polymap_to_json(f) == json_before


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


class TestIntegerInput:
    @pytest.mark.parametrize("entries", [
        {(0, 0): {(2.5,): 1.0}}, {(0, 0): {(2.0,): 1.0}}, {(0, 0): {("2",): 1.0}},
        {(0, 1.5): {(1,): 1.0}}, {(0.0, 0): {(1,): 1.0}}, {(0, 1.5): {}},
        {(0, 1, 2): {(1,): 1.0}},
    ], ids=["fractional-exponent", "float-exponent", "string-exponent", "fractional-col",
            "float-row", "fractional-col-no-terms", "three-indices"])
    def test_polymap_rejects_non_integer_exponents_and_positions(self, entries):
        with pytest.raises(ParameterError, match="non-integer"):
            polymap(parse_spec("I:1,1"), parse_spec("I:1,2"), entries)

    def test_numpy_integers_are_accepted(self):
        one, two = np.int64(1), np.int32(2)
        f = polymap(parse_spec("I:1,1"), parse_spec("I:1,2"), {(0, one): {(two,): 1.0}})
        assert f.entries == {(0, 1): {(2,): 1.0}}

    DATA = {"source": "I:1,1", "target": "I:1,2",
            "entries": [{"row": 1, "col": 2, "terms": [{"exps": {"z11": 2}, "re": 1.0}]}]}

    @pytest.mark.parametrize("key,value", [("exps", {"z11": 2.5}), ("exps", {"z11": "2"}),
                                           ("exps", {"z11": 2.0}), ("row", 1.7), ("col", "2")])
    def test_json_takes_the_same_rule(self, key, value):
        item = dict(self.DATA["entries"][0])
        if key == "exps":
            item["terms"] = [{**item["terms"][0], "exps": value}]
        else:
            item[key] = value
        with pytest.raises(ParameterError):
            polymap_from_json({**self.DATA, "entries": [item]})
        assert polymap_from_json(self.DATA).entries == {(0, 1): {(2,): 1.0}}

    @pytest.mark.parametrize("entries", [{(5, 0): {}}, {(0, 2): {(1,): 0.0}}, {(-1, 0): {}}])
    def test_polymap_checks_every_position_whatever_its_terms(self, entries):
        with pytest.raises(ShapeError, match="outside target shape"):
            polymap(parse_spec("I:1,1"), parse_spec("I:1,2"), entries)

    @pytest.mark.parametrize("row,col,error,named", [
        (9, 1, ShapeError, "row 9, col 1"), (5, 2, ShapeError, "row 5, col 2"),
        (1, 0, ShapeError, "row 1, col 0"), (1.7, 1, ParameterError, "(row 1.7, col 1)"),
        (2, 2.5, ParameterError, "(row 2, col 2.5)"),
    ])
    def test_json_errors_name_the_position_as_given(self, row, col, error, named):
        data = {"source": "I:2,2", "target": "I:2,2",
                "entries": [{"row": row, "col": col, "terms": [{"exps": {"z11": 1}, "re": 0.0}]}]}
        with pytest.raises(error) as info:
            polymap_from_json(data)
        assert named in str(info.value)

    @pytest.mark.parametrize("entries,named", [
        ([{"row": 1, "col": 1, "terms": [{"exps": {"z11": 1}, "re": 1.0}]},
          {"row": 1, "col": 1, "terms": [{"exps": {"z11": 2}, "re": 1.0}]}],
         "duplicate entry at (row 1, col 1)"),
        ([{"row": 2, "col": 1, "terms": [{"exps": {"z12": 1}, "re": 1.0},
                                         {"exps": {"z12": 1, "z11": 0}, "re": 2.0}]}],
         "duplicate term {'z12': 1, 'z11': 0} in the entry at (row 2, col 1)"),
        ([{"row": 1, "col": 2, "terms": [{"exps": {}, "re": 1.0}, {"exps": {}, "re": 0.5}]}],
         "duplicate term {} in the entry at (row 1, col 2)"),
    ], ids=["entry", "term", "constant-term"])
    def test_json_rejects_a_duplicate_entry_or_term(self, entries, named):
        # each would keep only its last entry or term, a map other than the one written
        data = {"source": "I:2,2", "target": "I:2,2", "entries": entries}
        with pytest.raises(ParameterError) as info:
            polymap_from_json(data)
        assert str(info.value) == named


    @pytest.mark.parametrize("exps,error,named", [
        ({"z21": 1, "z11": 2.5}, ParameterError,
         "non-integer exponent 2.5 of z11 in the entry at (row 2, col 1)"),
        ({"z11": -1}, ShapeError, "negative exponent -1 of z11 in the entry at (row 2, col 1)"),
    ], ids=["non-integer", "negative"])
    def test_json_exponent_errors_name_the_entry_as_written(self, exps, error, named):
        data = {"source": "I:2,2", "target": "I:2,2",
                "entries": [{"row": 2, "col": 1, "terms": [{"exps": exps, "re": 1.0}]}]}
        with pytest.raises(error) as info:
            polymap_from_json(data)
        assert str(info.value) == named

class TestHighDegree:
    def test_a_degree_far_past_the_recursion_limit_builds(self):
        spec = parse_spec("I:1,1")
        f = polymap(spec, spec, {(0, 0): {(2000,): 1.0}})
        assert f.degrees[0][0] == 2000
        assert monomials_of_degree(2, 2000)[-1] == (0, 2000)

    def test_weighted_operators_past_float64_raise(self):
        spec = parse_spec("I:1,1")
        # sqrt(170!) from the float64 running product of 1..170, to 5e-16 of the exact value
        assert polymap(spec, spec, {(0, 0): {(170,): 1.0}}).weighted[0, 0] == 2.6939590968142025e+153
        for entries in ({(0, 0): {(171,): 1.0}}, {(0, 0): {(2,): 1.7e308}}):
            with pytest.raises(NumericError, match="exceed float64"):
                polymap(spec, spec, entries).weighted


class TestOperatorCap:
    def test_a_map_over_the_cap_raises_before_its_monomials_are_enumerated(self):
        spec = parse_spec("I:2,2")
        with pytest.raises(ParameterError, match="is too large"):
            polymap(spec, spec, {(0, 0): {(10**6, 0, 0, 0): 1.0}})

    def test_the_largest_catalog_maps_in_use_stay_under_the_cap(self):
        # G_t(12, 12): 552 rows times 10,585 monomials of degree <= 2 over 144 variables
        assert catalog("G_t", r=12, s=12, t=0.5).nvars == 144
        with pytest.raises(ParameterError, match="is too large"):
            catalog("G_t", r=13, s=13, t=0.5)


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

    @pytest.mark.parametrize("rows,cols", [([0, 0, 1], [0, 1, 2]), ([0, 1], [0, 1, 2]),
                                           ([0, 1, 2], [0, 2, 2]), ([0, 1, 2], [0, 1, 2, 3])],
                             ids=["repeated-row", "missing-row", "repeated-col", "extra-col"])
    def test_embed_needs_one_distinct_position_per_row_and_column(self, rows, cols):
        # a repeated row would merge entries, a missing one index past the list
        with pytest.raises(ShapeError, match="distinct rows"):
            embed_map(catalog("f-sec4"), parse_spec("I:4,4"), rows, cols)

    def test_embedding_into_a_target_over_the_operator_cap_raises(self):
        # 2080 monomials of degree <= 63 over 2 variables: 1 row is under the
        # cap, the 4096 rows of I:64,64 are over it
        f = polymap(parse_spec("I:1,2"), parse_spec("I:1,1"), {(0, 0): {(63, 0): 1.0}})
        with pytest.raises(ParameterError, match="is too large"):
            embed_map(f, parse_spec("I:64,64"), [0], [0])

    def test_positions_and_maps_of_the_largest_carrier_build_no_embedding(self):
        """B of I:64,64 holds 4096 x 4096 floats (134 MB); the position list and
        a map into that target read only the index table."""
        spec = parse_spec("I:64,64")
        _coordinates.cache_clear()
        _embedding.cache_clear()
        tracemalloc.start()
        try:
            positions = source_positions(spec)
            f = polymap(parse_spec("I:1,1"), spec, {(63, 63): {(1,): 1.0}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(positions) == 4096 and f.entries == {(63, 63): {(1,): 1.0}}
        assert peak < 4 * 2**20

    def test_source_positions_counts(self):
        assert len(source_positions(parse_spec("I:2,3"))) == 6
        assert len(source_positions(parse_spec("II:4"))) == 6
        assert len(source_positions(parse_spec("III:3"))) == 6
        assert len(source_positions(parse_spec("IV:5"))) == 5
