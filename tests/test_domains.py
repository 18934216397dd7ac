import numpy as np
import pytest

from bsdkit import domains
from bsdkit.domains import (
    DomainSpec,
    Point,
    borel_lift_iv,
    classify_point,
    classify_points,
    format_spec,
    generic_norm,
    generic_norms,
    origin,
    parse_spec,
    point,
    polarized_norm,
    polarized_norm_is_squared,
    polarized_norms,
    sample_point,
    sample_points,
)
from bsdkit.errors import DomainError, ParameterError, SamplingError, ShapeError

ALL_SPECS = ["I:2,2", "I:2,3", "II:3", "II:4", "III:2", "III:3", "IV:2", "IV:3"]


class TestDomainSpec:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_parse_format_roundtrip(self, text):
        assert format_spec(parse_spec(text)) == text

    @pytest.mark.parametrize("text", ["I:3,2", "II:1", "V:3", "I:2", "III:0", "I:a,b"])
    def test_rejects_invalid(self, text):
        with pytest.raises(ParameterError):
            parse_spec(text)

    def test_shapes(self):
        assert parse_spec("I:2,3").shape == (2, 3)
        assert parse_spec("II:4").shape == (4, 4)
        assert parse_spec("IV:5").shape == (1, 5)


class TestPointValidation:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            point(parse_spec("I:2,3"), np.zeros((3, 2)))

    def test_rejects_non_antisymmetric_kind_ii(self):
        with pytest.raises(ShapeError):
            point(parse_spec("II:3"), np.eye(3))

    def test_rejects_non_symmetric_kind_iii(self):
        z = np.zeros((2, 2))
        z[0, 1] = 1.0
        with pytest.raises(ShapeError):
            point(parse_spec("III:2"), z)


class TestClassify:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_origin_is_interior_with_margin_one(self, text):
        cls = classify_point(origin(parse_spec(text)))
        assert cls.region == "interior"
        assert cls.margin == pytest.approx(1.0)

    def test_kind_i_boundary_at_unit_top_singular_value(self):
        spec = parse_spec("I:2,3")
        rng = np.random.default_rng(0)
        g = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        z = point(spec, g / np.linalg.svd(g, compute_uv=False)[0])
        assert classify_point(z).region == "boundary"

    def test_kind_iv_real_axis(self):
        # for Z = (x, 0) real the norm is (1 - x^2)^2: boundary exactly at x = 1,
        # and beyond it the |Z|^2 < 1 condition is what rules the point out
        spec = parse_spec("IV:2")
        make = lambda x: point(spec, [[x, 0.0]])
        assert classify_point(make(0.5)).region == "interior"
        assert classify_point(make(1.0)).region == "boundary"
        assert classify_point(make(1.2)).region == "exterior"
        assert generic_norm(make(1.2)) > 0  # norm alone does not detect exteriority

    def test_scale_monotone(self):
        for text in ("I:2,2", "II:3", "III:2"):
            spec = parse_spec(text)
            z = sample_point(spec, "boundary", 5)
            shrunk = point(spec, 0.9 * z.value)
            assert classify_point(shrunk).region == "interior"


class TestGenericNorm:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_origin_value_is_one(self, text):
        assert generic_norm(origin(parse_spec(text))) == pytest.approx(1.0)

    def test_kind_ii_3x3_closed_form(self):
        a, b, c = 0.31 + 0.2j, -0.12 + 0.05j, 0.4 - 0.1j
        z = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]])
        expected = 1 - abs(a) ** 2 - abs(b) ** 2 - abs(c) ** 2
        assert generic_norm(point(parse_spec("II:3"), z)) == pytest.approx(expected)

    def test_kind_ii_2x2_closed_form(self):
        a = 0.6 - 0.3j
        z = np.array([[0, a], [-a, 0]])
        assert generic_norm(point(parse_spec("II:2"), z)) == pytest.approx(1 - abs(a) ** 2)

    def test_kind_ii_exterior_raises(self):
        a = 1.7
        z = np.array([[0, a], [-a, 0]])
        with pytest.raises(DomainError):
            generic_norm(point(parse_spec("II:2"), z))

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_positive_interior_zero_boundary(self, text):
        spec = parse_spec(text)
        for k in range(10):
            assert generic_norm(sample_point(spec, "interior", [1, k])) > 0
            assert abs(generic_norm(sample_point(spec, "boundary", [2, k]))) <= 1e-9


class TestPolarizedNorm:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_w_zero_gives_one(self, text):
        spec = parse_spec(text)
        z = sample_point(spec, "interior", 3)
        assert polarized_norm(z, origin(spec)) == pytest.approx(1.0)

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_diagonal_recovers_generic_norm(self, text):
        spec = parse_spec(text)
        z = sample_point(spec, "interior", 4)
        expected = generic_norm(z)
        if polarized_norm_is_squared(spec):
            expected = expected**2
        assert polarized_norm(z, z) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_hermitian_symmetry(self, text):
        spec = parse_spec(text)
        for k in range(25):
            z = sample_point(spec, "interior", [5, k])
            w = sample_point(spec, "interior", [6, k])
            assert polarized_norm(z, w) == pytest.approx(np.conj(polarized_norm(w, z)), abs=1e-12)

    def test_rejects_spec_mismatch(self):
        with pytest.raises(ShapeError):
            polarized_norm(origin(parse_spec("I:2,2")), origin(parse_spec("I:2,3")))

    @pytest.mark.parametrize("text", ["I:2,2", "II:3", "III:2", "IV:3"])
    def test_holomorphic_in_z(self, text):
        # Cauchy-Riemann residual via central differences in a source entry
        spec = parse_spec(text)
        z = sample_point(spec, "interior", 7)
        w = sample_point(spec, "interior", 8)
        h = 1e-5
        pos = (0, 1) if spec.kind != "IV" else (0, 0)

        def shifted(delta):
            v = z.value.copy()
            v[pos] += delta
            if spec.kind == "II":
                v[pos[1], pos[0]] -= delta
            elif spec.kind == "III" and pos[0] != pos[1]:
                v[pos[1], pos[0]] += delta
            return polarized_norm(point(spec, v), w)

        d_re = (shifted(h) - shifted(-h)) / (2 * h)
        d_im = (shifted(1j * h) - shifted(-1j * h)) / (2 * h)
        assert abs(d_re + 1j * d_im) / 2 <= 1e-6


class TestSamplers:
    @pytest.mark.parametrize("text", ALL_SPECS)
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_postcondition(self, text, region):
        spec = parse_spec(text)
        for k in range(10):
            p = sample_point(spec, region, [9, k])
            assert classify_point(p, 1e-9).region == region

    def test_kind_i_boundary_top_singular_value(self):
        p = sample_point(parse_spec("I:2,3"), "boundary", 10)
        top = np.linalg.svd(p.value, compute_uv=False)[0]
        assert abs(top - 1.0) <= 1e-12

    def test_kind_iv_boundary_solves_radial_quadratic(self):
        spec = parse_spec("IV:3")
        for k in range(20):
            p = sample_point(spec, "boundary", [11, k])
            assert abs(generic_norm(p)) <= 1e-10
            assert float(np.real(p.value @ p.value.conj().T)[0, 0]) <= 1.0 + 1e-12

    def test_deterministic(self):
        a = sample_point(parse_spec("III:3"), "interior", 99)
        b = sample_point(parse_spec("III:3"), "interior", 99)
        assert np.array_equal(a.value, b.value)

    def test_rejects_unknown_region(self):
        with pytest.raises(ParameterError):
            sample_point(parse_spec("I:2,2"), "surface", 0)


class TestBorelLift:
    def test_origin(self):
        lift = borel_lift_iv(origin(parse_spec("IV:3")))
        assert lift == pytest.approx(np.array([0, 0, 0, 1.0, 1j]))

    def test_quadric_and_signature_identities(self):
        spec = parse_spec("IV:4")
        for k in range(100):
            p = sample_point(spec, "interior" if k % 2 else "boundary", [12, k])
            lift = borel_lift_iv(p)
            assert abs(np.sum(lift**2)) <= 1e-12
            q = np.sum(np.abs(lift[:-2]) ** 2) - abs(lift[-2]) ** 2 - abs(lift[-1]) ** 2
            assert abs(q + 2 * generic_norm(p)) <= 1e-10

    def test_rejects_other_kinds(self):
        with pytest.raises(ShapeError):
            borel_lift_iv(origin(parse_spec("I:2,2")))


REFERENCE_SPECS = ["I:1,1", "I:2,3", "II:2", "II:5", "III:1", "III:3", "IV:1", "IV:4"]
REFERENCE_KEYS = [[[42, 0], k, 1] if k % 2 else [42, k] for k in range(200)]


def reference_sample(spec, region, seed):
    """One key at a time: Gaussian shape-projected direction, radial scaling
    (kind IV: the smallest positive root of the radial quadratic), then
    classification, redrawing from the same stream up to 64 times."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        g = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        if spec.kind == "II":
            g = g - g.T
        elif spec.kind == "III":
            g = (g + g.T) / 2.0
        if spec.kind == "IV":
            dd_star = float(np.real(g @ g.conj().T)[0, 0])
            dd_t = abs(complex((g @ g.T)[0, 0]))
            if dd_star <= 0.0:
                continue
            if dd_t**2 <= 1e-300:
                radius = float(np.sqrt(1.0 / (2.0 * dd_star)))
            else:
                disc = max(dd_star**2 - dd_t**2, 0.0)
                radius = float(np.sqrt((dd_star - np.sqrt(disc)) / dd_t**2))
            scale = radius if region == "boundary" else radius * rng.uniform()
        else:
            top = np.linalg.svd(g, compute_uv=False)[0]
            if top <= 0.0:
                continue
            scale = (1.0 if region == "boundary" else rng.uniform()) / top
        if classify_point(Point(spec, g * scale), 1e-9).region == region:
            return g * scale
    raise SamplingError(f"could not sample a {region} point of {spec}")


class TestStackedSampler:
    @pytest.mark.parametrize("text", REFERENCE_SPECS)
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_matches_reference_bit_for_bit(self, text, region):
        spec = parse_spec(text)
        ref = np.array([reference_sample(spec, region, key) for key in REFERENCE_KEYS])
        got = sample_points(spec, region, REFERENCE_KEYS)
        assert got.shape == (len(REFERENCE_KEYS), *spec.shape)
        assert np.array_equal(got, ref)
        assert np.array_equal(sample_point(spec, region, REFERENCE_KEYS[7]).value, ref[7])

    @pytest.mark.parametrize("text", REFERENCE_SPECS)
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_rejected_keys_redraw_from_their_own_stream(self, text, region, monkeypatch):
        # Reject every candidate whose corner entry has a positive real part,
        # so about half the keys are redrawn at least once.
        classify = domains.classify_points
        rejected = []

        def corner_rule(spec, z, tol=1e-9, gram=None):
            regions, margins = classify(spec, z, tol, gram)
            bad = z[..., 0, -1].real > 0.0
            rejected.append(int(np.count_nonzero(bad)))
            return np.where(bad, "exterior", regions), margins

        monkeypatch.setattr(domains, "classify_points", corner_rule)
        spec = parse_spec(text)
        keys = REFERENCE_KEYS[:50]
        got = sample_points(spec, region, keys)
        assert sum(rejected) > 0
        assert np.all(got[:, 0, -1].real <= 0.0)
        assert np.array_equal(got, np.array([reference_sample(spec, region, key) for key in keys]))

    def test_generator_seed_carries_on(self):
        spec = parse_spec("I:2,2")
        mine, theirs = np.random.default_rng(17), np.random.default_rng(17)
        p = sample_point(spec, "interior", mine)
        assert np.array_equal(p.value, reference_sample(spec, "interior", theirs))
        assert mine.random() == theirs.random()

    def test_empty_key_list(self):
        assert sample_points(parse_spec("II:3"), "boundary", []).shape == (0, 3, 3)

    def test_rejects_unknown_region(self):
        with pytest.raises(ParameterError):
            sample_points(parse_spec("I:2,2"), "surface", [0])


class TestStackedKernels:
    @pytest.mark.parametrize("text", ALL_SPECS + ["I:1,1", "II:2", "III:1", "IV:1"])
    def test_agree_with_point_functions(self, text):
        spec = parse_spec(text)
        keys = [[31, k] for k in range(12)]
        z = np.concatenate([sample_points(spec, "interior", keys),
                            sample_points(spec, "boundary", keys)])
        w = sample_points(spec, "interior", [[32, k] for k in range(len(z))])
        outside = 1.5 * sample_points(spec, "boundary", keys)
        everywhere = np.concatenate([z, outside])
        regions, margins = classify_points(spec, everywhere)
        for k, v in enumerate(everywhere):
            cls = classify_point(Point(spec, v))
            assert regions[k] == cls.region
            assert margins[k] == pytest.approx(cls.margin, abs=1e-15)
        assert set(regions) == {"interior", "boundary", "exterior"}
        norms = generic_norms(spec, z)
        assert np.max(np.abs(norms - [generic_norm(Point(spec, v)) for v in z])) <= 1e-14
        pol = polarized_norms(spec, z, w)
        scalar = [polarized_norm(Point(spec, a), Point(spec, b)) for a, b in zip(z, w)]
        assert np.max(np.abs(pol - scalar)) <= 1e-14
        # any number of leading axes
        grid = z.reshape(2, len(keys), *spec.shape)
        assert np.allclose(generic_norms(spec, grid).ravel(), norms, rtol=0, atol=1e-14)
        assert np.array_equal(classify_points(spec, grid)[0].ravel(), regions[:len(z)])
        wgrid = w.reshape(grid.shape)
        assert np.allclose(polarized_norms(spec, grid, wgrid).ravel(), pol, rtol=0, atol=1e-14)

    def test_kind_ii_exterior_point_in_stack_raises(self):
        spec = parse_spec("II:3")
        z = sample_points(spec, "boundary", [[33, k] for k in range(5)])
        generic_norms(spec, z)
        z[3] *= 1.5
        with pytest.raises(DomainError):
            generic_norms(spec, z)
