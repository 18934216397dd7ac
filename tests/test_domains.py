import contextlib
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from bsdkit import autgroups, domains, verify
from bsdkit.domains import (
    DomainSpec,
    Point,
    borel_lift_iv,
    classify_point,
    classify_points,
    format_spec,
    generic_norm,
    generic_norms,
    key_generators,
    norm_features,
    origin,
    parse_spec,
    point,
    polarized_norm,
    polarized_norms,
    sample_point,
    sample_points,
)
from bsdkit.errors import ParameterError, SamplingError, ShapeError
from bsdkit.linalg import _key_words

ALL_SPECS = ["I:2,2", "I:2,3", "II:3", "II:4", "III:2", "III:3", "IV:2", "IV:3"]


class TestDomainSpec:
    @pytest.mark.parametrize("text", ALL_SPECS)
    def test_parse_format_roundtrip(self, text):
        assert format_spec(parse_spec(text)) == text

    @pytest.mark.parametrize("text", ["I:3,2", "II:1", "V:3", "I:2", "III:0", "I:a,b"])
    def test_rejects_invalid(self, text):
        with pytest.raises(ParameterError):
            parse_spec(text)

    @pytest.mark.parametrize("text", [None, 5, 2.5, ["I:2,2"]])
    def test_a_spec_that_is_not_a_string_is_a_parameter_error(self, text):
        # not Python's untyped AttributeError
        with pytest.raises(ParameterError, match="^malformed domain spec"):
            parse_spec(text)

    @pytest.mark.parametrize("kind,dims,message", [
        ("IV", {"n": 3, "r": 5}, "kind IV does not use r"),
        ("I", {"r": 2, "s": 2, "n": 3}, "kind I does not use n"),
        ("I", {"r": 2, "s": 3.5}, "dimension s must be an integer"),
        ("IV", {"n": "3"}, "dimension n must be an integer"),
    ])
    def test_rejects_unused_and_non_integer_dimensions(self, kind, dims, message):
        # each of these printed as a valid spec yet compared unequal to it, or
        # failed later with an untyped error
        with pytest.raises(ParameterError, match=message):
            DomainSpec(kind, **dims)

    def test_numpy_integer_dimensions_are_ints(self):
        spec = DomainSpec("I", r=np.int64(2), s=np.int32(3))
        assert spec == parse_spec("I:2,3") and type(spec.s) is int
        assert DomainSpec("IV", n=np.uint8(3), r=np.int64(0)) == parse_spec("IV:3")

    def test_shapes(self):
        assert parse_spec("I:2,3").shape == (2, 3)
        assert parse_spec("II:4").shape == (4, 4)
        assert parse_spec("IV:5").shape == (1, 5)

    def test_mirror_sign(self):
        assert [parse_spec(t).mirror for t in ("I:2,3", "II:4", "III:2", "IV:5")] == \
            [0.0, -1.0, 1.0, 0.0]


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
        # and beyond it the margin 1 - t_1^2 = 1 - x^2 rules the point out
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

    def test_kind_ii_exterior_closed_form(self):
        # the Pfaffian norm is a polynomial: 1 - |a|^2 on II:2, negative outside
        a = 1.7
        z = np.array([[0, a], [-a, 0]])
        assert generic_norm(point(parse_spec("II:2"), z)) == pytest.approx(1 - a**2)

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
        assert polarized_norm(z, z) == pytest.approx(generic_norm(z), abs=1e-10)

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


class TestNormFeatures:
    FEATURE_COUNTS = {"I:1,1": 2, "I:2,3": 10, "I:3,3": 20, "II:2": 2, "II:3": 4, "II:4": 8,
                      "II:5": 16, "III:1": 2, "III:3": 20, "IV:1": 3, "IV:3": 5, "IV:5": 7}

    @pytest.mark.parametrize("text", sorted(FEATURE_COUNTS))
    def test_gram_is_the_polarized_norm_of_every_pair(self, text):
        spec = parse_spec(text)
        z = sample_points(spec, "interior", [[1, k] for k in range(50)])
        w = sample_points(spec, "interior", [[2, k] for k in range(50)])
        phi, sigma = norm_features(spec, z)
        psi, _ = norm_features(spec, w)
        assert phi.shape == (50, self.FEATURE_COUNTS[text]) and sigma.shape == phi.shape[-1:]
        gram = (phi * sigma) @ np.conj(psi).T
        assert np.max(np.abs(gram - polarized_norms(spec, z[:, None], w[None, :]))) <= 1e-14

    @pytest.mark.parametrize("text", ["I:2,3", "II:4", "III:2", "IV:3"])
    def test_one_point_has_the_features_of_its_stack(self, text):
        spec = parse_spec(text)
        z = sample_points(spec, "interior", [[3, k] for k in range(4)])
        phi, sigma = norm_features(spec, z)
        one, one_sigma = norm_features(spec, z[2])
        assert np.allclose(one, phi[2], rtol=0, atol=1e-15)
        assert np.array_equal(one_sigma, sigma)


class TestKindIVNormOracle:
    """Kind IV's norm is read from its quadric lift, -1/2 l(Z) J l(W)*; its
    expansion 1 - 2ZW* + (ZZ^t) conj(WW^t) is the oracle of both kernels."""

    @staticmethod
    def closed_form(z, w):
        z, w = z[..., 0, :], w[..., 0, :]
        return (1.0 - 2.0 * np.sum(z * np.conj(w), axis=-1)
                + np.sum(z * z, axis=-1) * np.conj(np.sum(w * w, axis=-1)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_polarized_norms_and_the_feature_gram_are_the_closed_form(self, n):
        spec = parse_spec(f"IV:{n}")
        z = np.concatenate([sample_points(spec, region, [[13, k] for k in range(2)])
                            for region in ("interior", "boundary")])
        w = np.concatenate([sample_points(spec, "interior", [[14, k] for k in range(3)]),
                            sample_points(spec, "boundary", [[15, k] for k in range(2)])])
        want = self.closed_form(z[:, None], w[None, :])
        got = polarized_norms(spec, z[:, None], w[None, :])  # stacks (4, 1) x (1, 5)
        assert got.shape == (4, 5) and np.max(np.abs(got - want)) <= 1e-14
        phi, sigma = norm_features(spec, z)
        psi, _ = norm_features(spec, w)
        assert np.max(np.abs((phi * sigma) @ np.conj(psi).T - want)) <= 1e-14


class TestKindIICrossKindOracles:
    """The unsquared Pfaffian norm, sign and branch included, against the
    low-rank isomorphisms II:2 = disc, II:3 = ball and II:4 = IV:6."""

    @staticmethod
    def pairs(text, count=200):
        spec = parse_spec(text)
        return (spec, sample_points(spec, "interior", [[51, k] for k in range(count)]),
                sample_points(spec, "interior", [[52, k] for k in range(count)]))

    @pytest.mark.parametrize("text", ["II:2", "II:3"])
    def test_disc_and_ball(self, text):
        spec, z, w = self.pairs(text)
        upper = np.triu_indices(spec.n, 1)
        ball = 1.0 - np.sum(z[:, upper[0], upper[1]] * np.conj(w[:, upper[0], upper[1]]), axis=1)
        assert np.max(np.abs(polarized_norms(spec, z, w) - ball)) <= 1e-14

    def test_ii4_against_iv6(self):
        iv6, u, v = self.pairs("IV:6")

        def iota(x):
            x = x[:, 0, :]
            z = np.zeros((len(x), 4, 4), dtype=complex)
            z[:, 0, 1], z[:, 2, 3] = x[:, 0] + 1j * x[:, 1], x[:, 0] - 1j * x[:, 1]
            z[:, 0, 2], z[:, 1, 3] = x[:, 2] + 1j * x[:, 3], -(x[:, 2] - 1j * x[:, 3])
            z[:, 0, 3], z[:, 1, 2] = x[:, 4] + 1j * x[:, 5], x[:, 4] - 1j * x[:, 5]
            return z - z.swapaxes(-1, -2)

        got = polarized_norms(parse_spec("II:4"), iota(u), iota(v))
        assert np.max(np.abs(got - polarized_norms(iv6, u, v))) <= 1e-14


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

    def test_kind_iv_boundary_has_vanishing_norm(self):
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
    """One key at a time: Gaussian shape-projected direction, scaled by
    rho / t_1 with t_1^2 from the spectral kernel on that one direction, then
    accepted by the analytic margin 1 - t_1^2 scale^2, redrawing from the
    same stream up to 64 times.  An interior attempt draws its rho even for
    a zero direction, which it then skips."""
    rng = np.random.default_rng(seed)
    for _ in range(64):
        g = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
        if spec.kind == "II":
            g = g - g.T
        elif spec.kind == "III":
            g = (g + g.T) / 2.0
        top = domains._spectral_squares(spec, g)[0]
        rho = 1.0 if region == "boundary" else rng.uniform()
        if top <= 0.0:
            continue
        scale = rho / np.sqrt(top)
        margin = np.array([1.0 - top * scale * scale])
        if domains._accepted(region, (g * scale)[None], margin)[0]:
            return g * scale
    raise SamplingError(f"could not sample a {region} point of {spec}")


def assert_same_streams(mine, theirs):
    assert mine.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(mine.standard_normal(4), theirs.standard_normal(4))
    assert mine.uniform() == theirs.uniform()
    assert mine.integers(1000, size=3).tolist() == theirs.integers(1000, size=3).tolist()


class TestKeyGenerators:
    """The vector hash must be NumPy's SeedSequence word for word: a NumPy that
    changes SeedSequence fails here, not silently in every sampled report."""

    @pytest.mark.parametrize("width", [*range(1, 9), 40])
    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_pool_words_are_seed_sequence_words(self, width, count):
        rows = np.random.default_rng([97, width]).integers(0, 2**32, (500, width), dtype=np.uint32)
        rows[0], rows[1] = 0, 2**32 - 1
        # a lone all-zero row, a lone all-ones row, or the whole stack holding both
        stacks = [rows[:0]] if count == 0 else [rows[:1], rows[1:2]] if count == 1 else [rows]
        for stack in stacks:
            want = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in stack]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a wrapping uint32 scalar warns
                got = domains._pool_states(stack)
            assert got.dtype == np.uint64 and got.shape == (count, 4)
            assert np.array_equal(got, np.array(want, dtype=np.uint64).reshape(count, 4))
        for mine, row in zip(key_generators(rows[:40]), rows[:40]):
            assert_same_streams(mine, np.random.default_rng(row))

    @pytest.mark.parametrize("keys", [
        [7, [42, 0], [[42, 0], 5, 1]],
        [[2**32, 1, 2], [2**64 + 5, 0, 0]],
    ], ids=["lists", "lengths-past-four-words"])
    def test_other_keys_go_through_default_rng(self, keys):
        # Keys of 1, 2 and 4 words are zero-padded to 4 in one stack, which
        # SeedSequence reads as the same keys.  Past four words it reads every
        # word, so keys of 4 and 5 words make no stack; each alone still does.
        spec = parse_spec("I:2,2")
        for key in keys:
            [alone] = key_generators([key])
            assert_same_streams(alone, np.random.default_rng(key))
        if max(len(_key_words(key)) for key in keys) > 4:
            for draw in (key_generators, lambda keys: sample_points(spec, "interior", keys)):
                with pytest.raises(ParameterError, match=r"same length past 4 words, got "
                                                         r"lengths \[4, 5\]$"):
                    draw(keys)
            return
        for mine, key in zip(key_generators(keys), keys):
            assert_same_streams(mine, np.random.default_rng(key))
        stack = sample_points(spec, "interior", keys)
        for point, key in zip(stack, keys):
            assert np.array_equal(point, sample_point(spec, "interior", key).value)

    def test_generator_key_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="^RNG key must be a nonnegative integer"):
            key_generators([np.random.default_rng(17)])

    def test_empty_stack(self):
        assert key_generators(np.empty((0, 3), dtype=np.uint32)) == []


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

    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_matches_reference_with_and_without_the_memo(self, region):
        # one memo over every spec in turn: the later specs read the key
        # stack's draws that the earlier ones made, II:5 and IV:5 deeper ones
        texts = ["I:1,1", "I:2,3", "II:2", "II:5", "III:1", "III:3", "IV:1", "IV:3", "IV:5"]
        keys = np.array([[45, k] for k in range(40)], dtype=np.uint32)
        specs = list(map(parse_spec, texts))
        alone = [sample_points(spec, region, keys) for spec in specs]
        with domains._sample_memo():
            shared = [sample_points(spec, region, keys) for spec in specs]
        for spec, a, b in zip(specs, alone, shared):
            want = np.array([reference_sample(spec, region, key) for key in keys])
            assert np.array_equal(a, want) and np.array_equal(b, want), spec

    @pytest.mark.parametrize("text", REFERENCE_SPECS)
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_rejected_keys_redraw_from_their_own_stream(self, text, region, monkeypatch):
        # Reject every candidate whose corner entry has a positive real part,
        # so about half the keys are redrawn at least once.
        accepted = domains._accepted
        rejected = []

        def corner_rule(region, z, margin):
            bad = z[..., 0, -1].real > 0.0
            rejected.append(int(np.count_nonzero(bad)))
            return accepted(region, z, margin) & ~bad

        monkeypatch.setattr(domains, "_accepted", corner_rule)
        spec = parse_spec(text)
        keys = REFERENCE_KEYS[:50]
        got = sample_points(spec, region, keys)
        assert sum(rejected) > 0
        assert np.all(got[:, 0, -1].real <= 0.0)
        assert np.array_equal(got, np.array([reference_sample(spec, region, key) for key in keys]))

    def test_generator_seed_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="^RNG key must be a nonnegative integer"):
            sample_point(parse_spec("I:2,2"), "interior", np.random.default_rng(17))

    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_empty_key_list(self, region):
        assert sample_points(parse_spec("II:3"), region, []).shape == (0, 3, 3)

    def test_acceptance_compares_margins_as_numbers(self):
        tol = 1e-9
        inside, outside = np.nextafter(tol, 0.0), np.nextafter(tol, 1.0)
        margins = np.array([0.0, -0.0, tol, -tol, inside, -inside, outside, -outside, 0.5, -0.5,
                            np.inf, -np.inf, np.nan])
        candidates = np.zeros((len(margins), 1, 1))
        for region in ("interior", "boundary"):
            got = domains._accepted(region, candidates, margins)
            assert got.dtype == bool
            assert np.array_equal(got, domains._regions(margins, tol) == region)
        assert not domains._accepted("interior", candidates, margins)[-1]
        assert not domains._accepted("boundary", candidates, margins)[-1]

    def test_rejects_unknown_region(self):
        with pytest.raises(ParameterError):
            sample_points(parse_spec("I:2,2"), "surface", [0])


class TestSampleMemo:
    KEYS = np.array([[42, k] for k in range(12)], dtype=np.uint32)

    def test_a_stack_is_sampled_once_and_shared_read_only(self):
        spec = parse_spec("III:2")
        outside = sample_points(spec, "interior", self.KEYS)
        with domains._sample_memo():
            a = sample_points(spec, "interior", self.KEYS)
            b = sample_points(spec, "interior", self.KEYS.copy())
            boundary = sample_points(spec, "boundary", self.KEYS)
            fewer = sample_points(spec, "interior", self.KEYS[:6])
        assert a is b and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 0.0
        assert np.array_equal(a, outside)
        assert boundary is not a and fewer is not a
        assert np.array_equal(fewer, outside[:6])
        assert domains._SAMPLE_MEMO.get() is None

    def test_other_keys_share_the_memo(self):
        # every key becomes uint32 rows at the API edge, so the same keys as
        # objects, lists or int64 rows read the memo entry of the uint32 rows
        spec = parse_spec("I:2,2")
        with domains._sample_memo():
            rows = sample_points(spec, "boundary", self.KEYS)
            for keys in (self.KEYS.astype(object), self.KEYS.tolist(), self.KEYS.astype(np.int64)):
                assert sample_points(spec, "boundary", keys) is rows
            one = sample_points(spec, "interior", [5])
            assert sample_points(spec, "interior", [[5]]) is one
            mine = sample_point(spec, "interior", 5).value
        assert not mine.flags.writeable and np.array_equal(mine, one[0])

    def test_memo_closes_when_the_block_raises(self):
        with pytest.raises(ParameterError):
            with domains._sample_memo():
                sample_points(parse_spec("I:2,2"), "surface", self.KEYS)
        assert domains._SAMPLE_MEMO.get() is None

    def test_a_key_stack_is_hashed_once_and_seeds_fresh_generators(self, monkeypatch):
        hashed, pool_states = [], domains._pool_states

        def counted(rows):
            hashed.append(len(rows))
            return pool_states(rows)

        monkeypatch.setattr(domains, "_pool_states", counted)
        outside = key_generators(self.KEYS)
        with domains._sample_memo():
            a, b = key_generators(self.KEYS), key_generators(self.KEYS.copy())
            fewer = key_generators(self.KEYS[:6])
        assert hashed == [12, 12, 6]
        for x, y, z, key in zip(a, b, outside, self.KEYS):
            assert x is not y and x.bit_generator is not y.bit_generator
            assert_same_streams(x, z)
            assert_same_streams(y, np.random.default_rng(key))
        for x, key in zip(fewer, self.KEYS):
            assert_same_streams(x, np.random.default_rng(key))

    def test_other_keys_share_the_seed_memo(self, monkeypatch):
        hashed, pool_states = [], domains._pool_states

        def counted(rows):
            hashed.append(len(rows))
            return pool_states(rows)

        monkeypatch.setattr(domains, "_pool_states", counted)
        with domains._sample_memo():
            for keys in (self.KEYS, self.KEYS.astype(object), self.KEYS.tolist(),
                         self.KEYS.astype(np.int64)):
                for x, key in zip(key_generators(keys), self.KEYS):
                    assert_same_streams(x, np.random.default_rng(key))
            assert len(domains._SAMPLE_MEMO.get()) == 1
        assert hashed == [12]


def count_built(monkeypatch):
    """A list that gains the number of keys ``domains.key_generators`` seeds
    on each call from now on."""
    built, real = [], domains.key_generators

    def counted(keys):
        built.append(len(keys))
        return real(keys)

    monkeypatch.setattr(domains, "key_generators", counted)
    return built


class TestDrawLog:
    """Within one run memo every spec that samples a uint32 key stack reads
    the stack's draw log, and each point is still the one-key reference's."""

    KEYS = np.array([[43, k] for k in range(30)], dtype=np.uint32)

    def reference(self, spec, region):
        return np.array([reference_sample(spec, region, key) for key in self.KEYS])

    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_specs_of_rising_falling_and_shared_counts_read_one_log(self, region, monkeypatch):
        # normal counts 8, 50, 6, 18, 8, 8, 108: three specs share the count 8,
        # and I:6,9 reads past the tape's first depth of 100
        built = count_built(monkeypatch)
        with domains._sample_memo():
            for text in ["I:2,2", "II:5", "I:1,3", "III:3", "III:2", "I:1,4", "I:6,9"]:
                spec = parse_spec(text)
                got = sample_points(spec, region, self.KEYS)
                assert np.array_equal(got, self.reference(spec, region))
        # boundary: the tape is drawn 100 deep, then rebuilt and drawn 108 deep for I:6,9;
        # interior: one first attempt per normal count (8, 50, 6, 18, 108)
        assert built == [30] * (2 if region == "boundary" else 5)

    @pytest.mark.parametrize("region,texts", [("interior", ["I:2,2", "I:1,4"]),
                                              ("boundary", ["II:5", "I:2,2"])])
    @pytest.mark.parametrize("first", [0, 1])
    def test_a_key_rejected_under_one_spec_is_accepted_under_another(self, region, texts, first,
                                                                     monkeypatch):
        # The spec at index ``first`` rejects every candidate whose corner entry
        # has a positive real part; the other spec takes its keys at once.  A
        # boundary redraw of II:5 reads normals 50 to 100, the end of the tape.
        accepted, rejecting, rejected = domains._accepted, [False], []

        def corner_rule(region, z, margin):
            bad = (z[..., 0, -1].real > 0.0) & rejecting[0]
            rejected.append(int(np.count_nonzero(bad)))
            return accepted(region, z, margin) & ~bad

        monkeypatch.setattr(domains, "_accepted", corner_rule)
        with domains._sample_memo():
            for k, text in enumerate(texts):
                spec = parse_spec(text)
                rejecting[0] = k == first
                want = self.reference(spec, region)
                del rejected[:]
                got = sample_points(spec, region, self.KEYS)
                assert np.array_equal(got, want)
                assert (sum(rejected) > 0) == (k == first)

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_zero_direction_under_one_spec_only(self, first, monkeypatch):
        # I:2,2 and I:1,4 share the interior log of 8 normals, and their first
        # directions share the entry [0, 0].  The spec at index ``first`` sees
        # keys 2 and 5 with a zero direction (top = 0), so it skips their rho
        # and redraws from the next block; the other takes their rho.
        chosen = []
        for k in (2, 5):
            x = np.random.default_rng(self.KEYS[k]).standard_normal(8)
            chosen.append(complex(x[0], x[4]))
        spectral, zero_spec, zeroed = domains._spectral_squares, [], []

        def squares(spec, z):
            out = spectral(spec, z)
            mask = np.isin(z[..., 0, 0], chosen) & (spec in zero_spec)
            zeroed.append(int(np.count_nonzero(mask)))
            out[mask] = 0.0
            return out

        monkeypatch.setattr(domains, "_spectral_squares", squares)
        with domains._sample_memo():
            for k, text in enumerate(["I:2,2", "I:1,4"]):
                spec = parse_spec(text)
                zero_spec[:] = [spec] if k == first else []
                want = self.reference(spec, "interior")
                del zeroed[:]
                got = sample_points(spec, "interior", self.KEYS)
                assert np.array_equal(got, want)
                assert sum(zeroed) == (2 if k == first else 0)

    def test_the_memo_keeps_arrays_and_no_generator(self):
        with domains._sample_memo():
            sample_points(parse_spec("I:2,2"), "interior", self.KEYS)
            sample_points(parse_spec("II:3"), "boundary", self.KEYS)
            memo = domains._SAMPLE_MEMO.get()
            head = (self.KEYS.shape, self.KEYS.tobytes())
            draws = {k[1:3]: v for k, v in memo.items() if k[0] == "draws" and k[3:] == head}
        # first attempts only: the tape of normals and (normals, rho) of count 8
        assert set(draws) == {(False, False), (False, (8,))}
        (none, tape, no_rho), (no_words, normals, rho) = draws[False, False], draws[False, (8,)]
        assert none is None and no_rho is None and no_words is None
        assert tape.shape == (30, 100) and normals.shape == (30, 8) and rho.shape == (30, 1)
        assert all(isinstance(v, np.ndarray) for v in (tape, normals, rho))
        for k, key in enumerate(self.KEYS):
            assert np.array_equal(tape[k], np.random.default_rng(key).standard_normal(100))
            rng = np.random.default_rng(key)
            assert np.array_equal(normals[k], rng.standard_normal(8))
            assert rho[k, 0] == rng.random()


def stream_draws(key, counts, word, uniform):
    """One key at a time: what ``domains._first_draws`` reads from the key's
    stream, as (word or None, normals of shape (sum(counts),), uniforms of
    shape (len(counts),) or None)."""
    rng = np.random.default_rng(key)
    raw = rng.bit_generator.random_raw() if word else None
    normals, uniforms = [], []
    for count in counts:
        normals.append(rng.standard_normal(count))
        uniforms.append(rng.random() if uniform else None)
    return raw, np.concatenate(normals), np.array(uniforms) if uniform else None


def assert_draws_equal(got, want):
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


MIXES = [(False, False), (False, True), (True, False), (True, True)]


class TestFirstDraws:
    """``domains._first_draws`` reads each key's stream as one key alone
    would, with and without the run memo."""

    KEYS = np.array([[46, k, 0] for k in range(20)], dtype=np.uint32)

    def reference(self, rows, counts, word, uniform):
        words, normals, uniforms = zip(*[stream_draws(row, counts, word, uniform) for row in rows])
        return (np.array(words, dtype=np.uint64) if word else None, np.array(normals),
                np.array(uniforms) if uniform else None)

    def test_the_plan_order_reads_the_same_draws_with_and_without_the_memo(self, monkeypatch):
        # the normal counts of the F_U reports' elements and points in the
        # plan's spec order: I:2,2 draws the first tape 100 normals deep, as
        # deep as II:5 reads in one block; two blocks of I:3,3 (108) deepen it
        specs = [args[0] for check_id, _, args, _ in verify._plan(42, 10, 10)
                 if check_id.startswith("fu:")]
        counts = []
        for spec in specs:
            counts += [2 * sum(map(math.prod, [*autgroups._haar_sources(spec), spec.shape])),
                       2 * math.prod(spec.shape)]
        assert counts[:2] == [24, 8] and 100 in counts
        built = count_built(monkeypatch)
        for word, uniform in MIXES:
            for blocks in (1, 2):
                del built[:]
                with domains._sample_memo():
                    shared = [domains._first_draws(self.KEYS, (c,) * blocks, word, uniform)
                              for c in counts]
                    memo = domains._SAMPLE_MEMO.get()
                    tapes = [v[1] for k, v in memo.items() if k[:3] == ("draws", word, False)]
                seeded = list(built)
                for count, got in zip(counts, shared):
                    want = self.reference(self.KEYS, (count,) * blocks, word, uniform)
                    assert_draws_equal(got, want)
                    alone = domains._first_draws(self.KEYS, (count,) * blocks, word, uniform)
                    assert_draws_equal(alone, want)
                if uniform:  # seeded once per distinct count, kept per block sizes
                    assert not tapes and seeded == [len(self.KEYS)] * len(set(counts))
                else:  # one tape, 100 deep and then as deep as each longer read
                    depths, depth = [], 0
                    for c in counts:
                        if c * blocks > depth:
                            depth = max(c * blocks, domains._TAPE_DEPTH)
                            depths.append(depth)
                    assert depths[:2] == ([100] if blocks == 1 else [100, 108])
                    assert [t.shape[1] for t in tapes] == [depths[-1]]
                    assert seeded == [len(self.KEYS)] * len(depths)

    @pytest.mark.parametrize("counts", [(1, 2), (9, 6)])
    @pytest.mark.parametrize("word,uniform", MIXES)
    def test_unequal_block_sizes(self, counts, word, uniform, monkeypatch):
        # the block sizes of an IV:1 element (its boost block the longer) and
        # of an IV:3 element; a second read under one memo seeds no key
        want = self.reference(self.KEYS, counts, word, uniform)
        built = count_built(monkeypatch)
        assert_draws_equal(domains._first_draws(self.KEYS, counts, word, uniform), want)
        with domains._sample_memo():
            for _ in range(2):
                assert_draws_equal(domains._first_draws(self.KEYS, counts, word, uniform), want)
        assert built == [len(self.KEYS)] * 2

    @pytest.mark.parametrize("word,uniform", MIXES)
    def test_an_empty_key_stack(self, word, uniform):
        rows = np.empty((0, 3), dtype=np.uint32)
        for memo in (False, True):
            with domains._sample_memo() if memo else contextlib.nullcontext():
                words, normals, uniforms = domains._first_draws(rows, (8, 8), word, uniform)
            assert normals.shape == (0, 16)
            assert (words is None) != word and (uniforms is None) != uniform
            if word:
                assert words.shape == (0,) and words.dtype == np.uint64
            if uniform:
                assert uniforms.shape == (0, 2)


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

    @pytest.mark.parametrize("kernel", [
        lambda spec, z: classify_points(spec, z),
        generic_norms,
        lambda spec, z: polarized_norms(spec, z, z),
        lambda spec, z: polarized_norms(spec, np.zeros((1, *spec.shape)), z),
        norm_features,
    ], ids=["classify_points", "generic_norms", "polarized_norms", "polarized_norms-w",
            "norm_features"])
    @pytest.mark.parametrize("text,shape", [("I:2,2", (3, 3)), ("I:2,3", (3, 2)), ("II:3", (2, 2)),
                                            ("IV:3", (3,)), ("IV:3", (3, 1))])
    def test_a_stack_of_another_point_shape_is_a_shape_error(self, kernel, text, shape):
        # I:2,2 used to read a 3 x 3 point such as diag(0.1, 0.1, 5) as
        # interior, with margin 0.99
        z = np.full((2, *shape), 0.1, dtype=complex)
        with pytest.raises(ShapeError, match=r"^point stack shape \(2, "):
            kernel(parse_spec(text), z)

    def test_kind_ii_exterior_point_in_stack_has_closed_form_norm(self):
        # II:3 is the ball: the norm is 1 - |z12|^2 - |z13|^2 - |z23|^2
        spec = parse_spec("II:3")
        z = sample_points(spec, "boundary", [[33, k] for k in range(5)])
        z[3] *= 1.5
        assert np.allclose(generic_norms(spec, z), [0, 0, 0, 1 - 1.5**2, 0], rtol=0, atol=1e-14)


class TestRedraw:
    def test_never_accepting_draw_raises_after_64_attempts(self):
        attempts = []

        def draw(pending, attempt):
            attempts.append(attempt)
            return np.zeros(len(pending), dtype=bool), (np.empty((0, 2)),)

        with pytest.raises(SamplingError, match="^gave up$"):
            domains._redraw(3, draw, SamplingError("gave up"))
        assert attempts == list(range(64))

    def test_slots_keep_their_first_accepted_value(self):
        # Slot k is accepted from attempt k on; only pending slots are drawn again.
        seen = []

        def draw(pending, attempt):
            seen.append(pending.tolist())
            ok = pending <= attempt
            return ok, (10 * attempt + pending[ok], np.full(np.count_nonzero(ok), float(attempt)))

        slot, when = domains._redraw(4, draw, SamplingError("gave up"))
        assert seen == [[0, 1, 2, 3], [1, 2, 3], [2, 3], [3]]
        assert slot.tolist() == [0, 11, 22, 33]
        assert when.tolist() == [0.0, 1.0, 2.0, 3.0]


class TestSamplerExhaustion:
    def test_rejecting_every_candidate_raises_sampling_error(self, monkeypatch):
        def reject_all(region, z, margin):
            return np.zeros(len(z), dtype=bool)

        monkeypatch.setattr(domains, "_accepted", reject_all)
        with pytest.raises(SamplingError, match="^could not sample a boundary point of I:2,2$"):
            sample_points(parse_spec("I:2,2"), "boundary", [[5, k] for k in range(3)])

    @pytest.mark.parametrize("text", ["I:2,3", "II:3", "III:2", "IV:3"])
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_empty_uint32_key_array(self, text, region):
        spec = parse_spec(text)
        got = sample_points(spec, region, np.empty((0, 3), dtype=np.uint32))
        assert got.shape == (0, *spec.shape)


KERNEL_SPECS = ["I:1,1", "I:2,3", "I:3,3", "II:2", "II:3", "II:4", "II:5", "III:1", "III:3",
                *(f"IV:{n}" for n in range(1, 9))]


def points_everywhere(spec, count=40):
    """Interior, boundary and exterior points of the spec; kind IV adds rank-1
    points (a real vector times a phase) in all three regions."""
    keys = [[34, k] for k in range(count)]
    inner, outer = sample_points(spec, "interior", keys), sample_points(spec, "boundary", keys)
    top = np.sqrt(domains._spectral_squares(spec, inner)[:, :1, None])
    z = [inner, outer, 1.5 * outer, 1.5 * inner / top]
    if spec.kind == "IV":
        rng = np.random.default_rng([35, spec.n])
        real = rng.standard_normal((count, 1, spec.n))
        phase = np.exp(2j * np.pi * rng.random((count, 1, 1)))
        rank_one = real * phase / np.linalg.norm(real, axis=-1, keepdims=True)
        z += [rank_one * rng.random((count, 1, 1)), rank_one, 1.5 * rank_one]
    return np.concatenate(z)


# The specs whose Gram ZZ* has size 1 or 2 (kinds I/III) or whose kind II
# point has rank one (n <= 3): ``_spectral_squares`` takes a closed form.
SMALL_GRAM_SPECS = ["I:1,1", "I:1,4", "I:2,2", "I:2,3", "I:2,6", "II:2", "II:3", "III:1",
                    "III:2"]


def small_gram_stacks(spec, count=200):
    """Named stacks of the spec: Gaussian points at scales 1e-3 to 1e3; rank
    deficient ones (each row a multiple of one row, v v^t for kind III, and
    zeros); ones with equal spectral values (orthonormal rows, symmetric
    unitaries for kind III, any kind II point of rank one); boundary samples."""
    rng = np.random.default_rng([36, *spec.shape])
    rows, cols = spec.shape

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def project(g):
        return (g + spec.mirror * g.swapaxes(-1, -2)) / 2.0 if spec.mirror else g

    scales = 10.0 ** rng.uniform(-3.0, 3.0, (count, 1, 1))
    g = project(gaussian(count, rows, cols)) * scales
    if spec.kind == "II":
        deficient, equal = np.zeros_like(g), g
    elif spec.kind == "III":
        v, q = gaussian(count, rows, 1), np.linalg.qr(gaussian(count, rows, rows))[0]
        deficient, equal = v * v.swapaxes(-1, -2) * scales, q @ q.swapaxes(-1, -2) * scales
    else:
        deficient = gaussian(count, rows, 1) * g[:, :1]
        equal = np.linalg.qr(gaussian(count, cols, cols))[0][:, :rows] * scales
    deficient[::10] = 0.0
    boundary = sample_points(spec, "boundary", [[37, k] for k in range(count)])
    return {"random": g, "rank-deficient": deficient, "equal": equal, "boundary": boundary}


def exact_spectral_squares(spec, z):
    """The spectral squares of each point of a small-Gram stack from its Gram
    entries in exact rational arithmetic, rounded once to float: the one
    pair tr(ZZ*) / 2 for kind II, |Z|^2 for one row, else the two roots
    m +- sqrt(((a - d) / 2)^2 + |b|^2), the root taken to 40 digits."""
    out = []
    for m in z:
        rows = [[(Fraction(x.real), Fraction(x.imag)) for x in row] for row in m]

        def inner(i, j):
            return (sum(a * c + b * d for (a, b), (c, d) in zip(rows[i], rows[j])),
                    sum(b * c - a * d for (a, b), (c, d) in zip(rows[i], rows[j])))

        if spec.kind == "II":
            out.append([float(sum(inner(i, i)[0] for i in range(len(rows))) / 2)])
        elif len(rows) == 1:
            out.append([float(inner(0, 0)[0])])
        else:
            a, d, (b_re, b_im) = inner(0, 0)[0], inner(1, 1)[0], inner(0, 1)
            disc = ((a - d) / 2) ** 2 + b_re * b_re + b_im * b_im
            with localcontext() as ctx:
                ctx.prec = 40
                mid = Decimal((a + d).numerator) / Decimal(2 * (a + d).denominator)
                root = (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()
                out.append([float(mid + root), float(mid - root)])
    return np.array(out)


def real_singular_pair(z):
    """(s_1, s_2) of the real n x 2 matrix [Re Z, Im Z] of each kind IV row
    vector of the stack, s_2 = 0 for n = 1."""
    sigma = np.linalg.svd(np.stack([z.real[:, 0], z.imag[:, 0]], axis=-1), compute_uv=False)
    return sigma[:, 0], (sigma[:, 1] if sigma.shape[1] > 1 else np.zeros(len(z)))


def clifford_image(z):
    """C(Z) = z_1 I + i sum_j z_j gamma_(j-1) for a stack of kind IV row vectors,
    with n - 1 anticommuting Hermitian unitaries gamma built as Jordan-Wigner
    strings on p = max(1, (n - 1) // 2) qubits (size 2 for n <= 4, 4 for
    n = 5, 6, 8 for n = 7, 8)."""
    n = z.shape[-1]
    pauli_x, pauli_y = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
    pauli_z = np.diag([1, -1])

    def string(*factors):
        out = np.eye(1)
        for f in factors:
            out = np.kron(out, f)
        return out

    p = max(1, (n - 1) // 2)
    gammas = [string(*[pauli_z] * k, m, *[np.eye(2)] * (p - k - 1))
              for k in range(p) for m in (pauli_x, pauli_y)] + [string(*[pauli_z] * p)]
    gammas = gammas[:n - 1]
    for a in gammas:
        for b in gammas:
            assert np.allclose(a @ b + b @ a, 2.0 * np.eye(2**p) * (a is b))
    out = z[:, 0, :1, None] * np.eye(2**p)
    for j, g in enumerate(gammas, start=1):
        out = out + 1j * z[:, 0, j, None, None] * g
    return out


class TestSpectralSquares:
    @pytest.mark.parametrize("text", [t for t in KERNEL_SPECS if not t.startswith("IV")])
    def test_matches_the_singular_values(self, text):
        spec = parse_spec(text)
        z = points_everywhere(spec)
        got = domains._spectral_squares(spec, z)
        singular = np.linalg.svd(z, compute_uv=False)
        if spec.kind == "II":  # the singular values come in pairs; one of each
            singular = singular[:, 0:2 * (spec.n // 2):2]
        assert got.shape == singular.shape
        assert np.all(np.diff(got, axis=-1) <= 0.0)
        assert np.max(np.abs(np.sqrt(got[:, 0]) - singular[:, 0]) / singular[:, 0]) <= 1e-14
        assert np.max(np.abs(got - singular**2)) <= 1e-14 * np.max(singular**2)

    @pytest.mark.parametrize("text", SMALL_GRAM_SPECS)
    def test_small_grams_match_eigvalsh_and_the_exact_values(self, text):
        # Each closed form is within 4 ulps of the largest spectral square of
        # the exact values; eigvalsh itself is up to 6 ulps off them on these
        # stacks, so the closed forms agree with it to 8.
        spec, ulp = parse_spec(text), np.finfo(float).eps
        for name, z in small_gram_stacks(spec).items():
            got = domains._spectral_squares(spec, z)
            lapack = np.linalg.eigvalsh(z @ np.conj(z).swapaxes(-1, -2))[:, ::-1]
            lapack = lapack[:, 1::2] if spec.kind == "II" else lapack
            exact = exact_spectral_squares(spec, z)
            assert got.shape == lapack.shape == exact.shape, name
            top = exact[:, :1]
            assert np.all(np.abs(got - exact) <= 4 * ulp * top), name
            assert np.all(np.abs(got - lapack) <= 8 * ulp * top), name
            assert np.all(np.diff(got, axis=-1) <= 0.0), name

    def test_small_gram_edge_values_are_exact(self):
        # equal spectral values, a rank-one 2 x 2 Gram and the zero point
        for text, z, squares in (("I:2,2", [[0.6, 0.0], [0.0, 0.6j]], [0.36, 0.36]),
                                 ("I:2,3", [[0.5, 0.5, 0.0], [1.0, 1.0, 0.0]], [2.5, 0.0]),
                                 ("III:2", [[0.0, 0.75], [0.75, 0.0]], [0.5625, 0.5625]),
                                 ("II:3", [[0, 0.5, 0], [-0.5, 0, 0.5], [0, -0.5, 0]], [0.5]),
                                 ("I:1,3", [[0.0, 0.0, 0.0]], [0.0])):
            got = domains._spectral_squares(parse_spec(text), np.array([z], dtype=complex))
            assert got[0].tolist() == squares, text

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kind_iv_is_the_real_svd_and_the_clifford_norm(self, n):
        spec = parse_spec(f"IV:{n}")
        z = points_everywhere(spec)
        got = domains._spectral_squares(spec, z)
        assert got.shape == (len(z), 2)
        s1, s2 = real_singular_pair(z)
        top, low = s1 + s2, s1 - s2
        assert np.max(np.abs(np.sqrt(got[:, 0]) - top) / top) <= 1e-14
        assert np.max(np.abs(got[:, 1] - low**2)) <= 1e-14 * np.max(top**2)
        clifford = np.linalg.svd(clifford_image(z), compute_uv=False)[:, 0]
        assert np.max(np.abs(np.sqrt(got[:, 0]) - clifford) / clifford) <= 1e-14

    @pytest.mark.parametrize("text", KERNEL_SPECS)
    def test_product_is_the_generic_norm(self, text):
        # generic_norms is the product; the oracle is the diagonal of the
        # polarized norm, det(I - ZZ*), the Pfaffian form or the quadric form
        spec = parse_spec(text)
        z = points_everywhere(spec)
        norms = generic_norms(spec, z)
        product = np.prod(1.0 - domains._spectral_squares(spec, z), axis=-1)
        assert norms.dtype == float and np.array_equal(norms, product)
        diagonal = polarized_norms(spec, z, z)
        assert np.max(np.abs(norms - diagonal) / np.maximum(1.0, np.abs(diagonal))) <= 1e-13
        if spec.kind == "II":  # the Pfaffian root is negative where one pair exceeds 1
            assert np.any(norms < -0.1) and np.all(np.sign(diagonal.real[norms < -0.1]) == -1.0)

    def test_the_disc_classifies_alike_as_i11_and_iv1(self):
        for x in (0.99999, 1.0, 1.00001):
            disc = classify_point(point(parse_spec("I:1,1"), [[x]]))
            iv = classify_point(point(parse_spec("IV:1"), [[x]]))
            iv3 = classify_point(point(parse_spec("IV:3"), [[x, 0.0, 0.0]]))
            assert disc == iv == iv3
        near = classify_point(point(parse_spec("IV:1"), [[0.99999]]))
        assert near.region == "interior" and near.margin == pytest.approx(2.0e-5, rel=1e-4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kind_iv_boundary_samples_lie_on_the_boundary(self, n):
        keys = np.array([[k, k + 1] for k in range(10_000)], dtype=np.uint32)
        z = sample_points(parse_spec(f"IV:{n}"), "boundary", keys)
        s1, s2 = real_singular_pair(z)
        assert np.max(np.abs(s1 + s2 - 1.0)) <= 1e-15
