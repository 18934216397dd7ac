import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdkit import domains, linalg
from bsdkit.domains import parse_spec, sample_points
from bsdkit.errors import DomainError, ParameterError, ShapeError
from bsdkit.linalg import (
    _stack_product,
    det,
    gaussian_blocks,
    haar_normalize,
    pfaffian,
    psd_inv_sqrt,
    random_orthogonal,
    random_unitary,
)


def rng_matrix(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def cofactor_det(m):
    """Independent oracle: determinant by cofactor expansion along row 0."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def matching_pfaffian(a):
    """Independent oracle: recursive expansion over perfect matchings."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for j in range(1, n):
        minor = np.delete(np.delete(a, [0, j], axis=0), [0, j], axis=1)
        total += (-1) ** (j + 1) * a[0, j] * matching_pfaffian(minor)
    return total


class TestDet:
    def test_identity(self):
        assert det(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert det(np.diag([2.0 + 1j, 3.0])) == pytest.approx((2.0 + 1j) * 3.0)

    def test_against_cofactor_expansion(self):
        rng = np.random.default_rng(7)
        m = rng_matrix(rng, 4, 4)
        expected = cofactor_det(m)
        assert abs(det(m) - expected) <= 1e-12 * abs(expected)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            det(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ShapeError):
            det(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10**6))
    def test_multiplicative(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng_matrix(rng, n, n), rng_matrix(rng, n, n)
        lhs, rhs = det(a @ b), det(a) * det(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestPfaffian:
    def test_canonical_2x2(self):
        a = 0.7 - 0.2j
        assert pfaffian([[0, a], [-a, 0]]) == pytest.approx(a)

    def test_canonical_4x4_block(self):
        a, b = 1.5 + 0.5j, -0.3 + 2j
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1], m[1, 0] = a, -a
        m[2, 3], m[3, 2] = b, -b
        assert pfaffian(m) == pytest.approx(a * b)

    def test_odd_dimension_is_zero(self):
        rng = np.random.default_rng(0)
        g = rng_matrix(rng, 5, 5)
        assert pfaffian(g - g.T) == 0

    def test_squares_to_det_6x6(self):
        rng = np.random.default_rng(3)
        g = rng_matrix(rng, 6, 6)
        a = g - g.T
        d = det(a)
        assert abs(pfaffian(a) ** 2 - d) <= 1e-10 * max(1.0, abs(d))

    def test_against_matching_expansion(self):
        rng = np.random.default_rng(11)
        g = rng_matrix(rng, 6, 6)
        a = g - g.T
        expected = matching_pfaffian(a)
        assert abs(pfaffian(a) - expected) <= 1e-11 * abs(expected)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ShapeError):
            pfaffian(np.eye(4))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 10**6))
    def test_square_is_det(self, n, seed):
        rng = np.random.default_rng(seed)
        g = rng_matrix(rng, n, n) / np.sqrt(n)
        a = g - g.T
        d = det(a)
        assert abs(pfaffian(a) ** 2 - d) <= 1e-10 * max(1.0, abs(d))


class TestStackedPfaffian:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_slices_match_one_matrix_calls_and_matchings(self, n):
        rng = np.random.default_rng(n)
        g = rng_matrix(rng, 2 * 3 * n, n).reshape(2, 3, n, n) / np.sqrt(n)
        a = g - g.swapaxes(-1, -2)
        got = pfaffian(a)
        assert got.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = pfaffian(a[idx])
            assert isinstance(one, complex)
            assert got[idx] == one  # bit for bit
            expected = matching_pfaffian(a[idx])
            assert abs(one - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_odd_sizes_give_zeros(self):
        g = rng_matrix(np.random.default_rng(1), 12, 3).reshape(4, 3, 3)
        assert np.array_equal(pfaffian(g - g.swapaxes(-1, -2)), np.zeros(4))

    def test_zero_column_gives_exact_zero_without_warning(self):
        g = rng_matrix(np.random.default_rng(2), 18, 6).reshape(3, 6, 6)
        a = g - g.swapaxes(-1, -2)
        a[1, :, 2] = a[1, 2, :] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pfaffian(a)
        assert got[1] == 0.0
        assert np.all(np.isfinite(got))
        assert got[0] == pfaffian(a[0]) and got[2] == pfaffian(a[2])

    def test_one_non_antisymmetric_slice_raises(self):
        g = rng_matrix(np.random.default_rng(3), 16, 4).reshape(4, 4, 4)
        a = g - g.swapaxes(-1, -2)
        a[2, 0, 1] += 1e-3
        with pytest.raises(ShapeError):
            pfaffian(a)


class TestPsdInvSqrt:
    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(4)
        g = np.array([rng_matrix(rng, 3, 3) for _ in range(20)])
        h = np.eye(3) + g @ g.conj().swapaxes(-1, -2)
        stacked = psd_inv_sqrt(h)
        assert np.array_equal(stacked, np.array([psd_inv_sqrt(m) for m in h]))
        assert np.linalg.norm(stacked[7] @ h[7] @ stacked[7] - np.eye(3)) <= 1e-12

    def test_one_indefinite_matrix_in_stack_raises(self):
        h = np.array([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        with pytest.raises(DomainError, match="min eigenvalue -0.5"):
            psd_inv_sqrt(h)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            psd_inv_sqrt(np.ones((2, 3)))


class TestHaarNormalize:
    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(5)
        for g in (np.array([rng_matrix(rng, 4, 4) for _ in range(30)]),
                  rng.standard_normal((30, 3, 3))):
            stacked = haar_normalize(g)
            assert np.array_equal(stacked, np.array([haar_normalize(m) for m in g]))
            eye = np.eye(g.shape[-1])
            assert np.max(np.abs(stacked @ stacked.conj().swapaxes(-1, -2) - eye)) <= 1e-14

    def test_random_factors_keep_their_qr_normalization(self):
        rng = np.random.default_rng(6)
        q, r = np.linalg.qr(rng_matrix(rng, 3, 3))
        d = np.diagonal(r)
        assert np.array_equal(random_unitary(3, 6), q * (d / np.abs(d)))
        q, r = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))
        assert np.array_equal(random_orthogonal(3, 8), q * np.sign(np.diagonal(r)))
        assert random_orthogonal(3, 8).dtype == float


def frobenius(x):
    return np.linalg.norm(x, axis=(-2, -1))


class TestStackProduct:
    @pytest.mark.parametrize("inner", range(1, 7))
    def test_equals_matmul_on_both_sides_of_the_cutoff(self, inner):
        rng = np.random.default_rng(inner)
        a, b = rng_matrix(rng, 40, 3, inner), rng_matrix(rng, 40, inner, 4)
        got, want = _stack_product(a, b), a @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(frobenius(got - want) <= 1e-15 * frobenius(a) * frobenius(b))
        if inner > linalg._OUTER_MAX_INNER:
            assert np.array_equal(got, want)

    def test_broadcasts_leading_axes(self):
        # the action's layout: an element stack (S, 1) against a pair stack (S, 2)
        rng = np.random.default_rng(11)
        a, b = rng_matrix(rng, 7, 2, 2, 3), rng_matrix(rng, 7, 1, 3, 5)
        got = _stack_product(a, b)
        assert got.shape == (7, 2, 2, 5)
        assert np.all(frobenius(got - a @ b) <= 1e-15 * frobenius(a) * frobenius(b))

    @pytest.mark.parametrize("sa,sb", [((0, 3, 2), (0, 2, 4)), ((3, 3, 0), (3, 0, 2))])
    def test_empty_stack_or_inner_dimension(self, sa, sb):
        a, b = np.ones(sa, dtype=complex), np.ones(sb, dtype=complex)
        assert np.array_equal(_stack_product(a, b), a @ b)

    def test_non_contiguous_operand(self):
        rng = np.random.default_rng(12)
        z, w = rng_matrix(rng, 30, 3, 4), rng_matrix(rng, 30, 3, 4)
        w_star = np.conj(w).swapaxes(-1, -2)
        assert not w_star.flags.c_contiguous
        got = _stack_product(z, w_star)
        assert np.all(frobenius(got - z @ w_star) <= 1e-15 * frobenius(z) * frobenius(w))

    def test_real_times_complex(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((20, 3, 2)), rng_matrix(rng, 20, 2, 3)
        got = _stack_product(a, b)
        assert got.dtype == complex
        assert np.all(frobenius(got - a @ b) <= 1e-15 * frobenius(a) * frobenius(b))

    def test_mismatched_inner_dimension_is_a_shape_error(self):
        # not a silently broadcast product
        with pytest.raises(ShapeError, match="^inner dimensions differ"):
            _stack_product(np.ones((2, 3, 1)), np.ones((2, 2, 3)))

    @pytest.mark.parametrize("text", ["I:3,3", "III:3", "II:5"])
    @pytest.mark.parametrize("region", ["interior", "boundary"])
    def test_the_sampler_makes_no_call(self, text, region, monkeypatch):
        # these specs scale by one eigvalsh of the Gram ZZ*, which stays ``@``,
        # so that every sample point is bit for bit what it was
        calls = []

        def counted(a, b):
            calls.append((a.shape, b.shape))
            return _stack_product(a, b)

        monkeypatch.setattr(linalg, "_stack_product", counted)
        monkeypatch.setattr(domains, "_stack_product", counted)
        z = sample_points(parse_spec(text), region, [[51, k] for k in range(20)])
        assert len(z) == 20 and calls == []


class TestRandomUnitary:
    def test_scalar_has_unit_modulus(self):
        u = random_unitary(1, 42)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,seed", [(2, 0), (5, 123), (8, 999)])
    def test_unitary_defect(self, n, seed):
        u = random_unitary(n, seed)
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 1e-12

    def test_deterministic(self):
        a = random_unitary(4, 77)
        b = random_unitary(4, 77)
        assert np.array_equal(a, b)

    def test_seed_changes_matrix(self):
        assert not np.allclose(random_unitary(4, 1), random_unitary(4, 2))


# Each kind's draw groups, block shapes in stream order: the sampler's
# direction, the isotropy sources and the Lie algebra sources.  Kind IV draws
# a complex direction but real isotropy and algebra sources.
DRAW_GROUPS = {
    "I:1,1": [[(1, 1)], [(1, 1), (1, 1)], [(1, 1), (1, 1), (1, 1)]],
    "I:2,3": [[(2, 3)], [(2, 2), (3, 3)], [(2, 3), (2, 2), (3, 3)]],
    "II:3": [[(3, 3)], [(3, 3)], [(3, 3), (3, 3)]],
    "III:2": [[(2, 2)], [(2, 2)], [(2, 2), (2, 2)]],
    "IV:3": [[(1, 3)], [(3, 3)], [(3, 3), (2, 2), (3, 2)]],
}


def two_call_blocks(rng, shapes, real):
    """The draws the one-call path must reproduce: one ``standard_normal`` call
    per real block, two (real part, then imaginary part) per complex block."""
    if real:
        return [rng.standard_normal(shape) for shape in shapes]
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes]


class TestGaussianBlocks:
    @pytest.mark.parametrize("text,group", [(t, g) for t in DRAW_GROUPS for g in range(3)])
    def test_rows_are_the_two_call_draws_bit_for_bit(self, text, group):
        shapes = DRAW_GROUPS[text][group]
        real = text.startswith("IV:") and group > 0
        keys = [[29, group, k] for k in range(60)]
        rngs = [np.random.default_rng(key) for key in keys]
        blocks = gaussian_blocks(rngs, shapes, real)
        assert [b.shape for b in blocks] == [(len(keys), *shape) for shape in shapes]
        for k, key in enumerate(keys):
            fresh = np.random.default_rng(key)
            for block, want in zip(blocks, two_call_blocks(fresh, shapes, real)):
                assert block[k].dtype == want.dtype
                assert block[k].tobytes() == want.tobytes(), (k, block.shape)
            assert rngs[k].bit_generator.state == fresh.bit_generator.state

    def test_unit_draws_are_the_uniform_draws(self):
        # rho ~ U(0, 1) and the kind IV angle ~ U(0, 2 pi) are drawn as
        # random() and 2 pi random(); uniform computes low + range * random().
        keys = np.random.default_rng(31).integers(0, 2**32, (2000, 3), dtype=np.uint32)
        mine = [np.random.default_rng(key) for key in keys]
        theirs = [np.random.default_rng(key) for key in keys]
        rho = np.array([rng.random() for rng in mine])
        assert rho.tobytes() == np.array([rng.uniform() for rng in theirs]).tobytes()
        theta = 2.0 * np.pi * np.array([rng.random() for rng in mine])
        want = np.array([rng.uniform(0.0, 2.0 * np.pi) for rng in theirs])
        assert theta.tobytes() == want.tobytes()

    def test_generator_resumes_its_stream_after_the_draw(self):
        mine, theirs = np.random.default_rng(17), np.random.default_rng(17)
        mine.random(), theirs.random()
        shapes = [(2, 3), (1, 1)]
        blocks = gaussian_blocks([mine], shapes)
        for block, want in zip(blocks, two_call_blocks(theirs, shapes, False)):
            assert block[0].tobytes() == want.tobytes()
        assert mine.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(mine.standard_normal(5), theirs.standard_normal(5))

    @pytest.mark.parametrize("real", [False, True])
    def test_no_generators_give_empty_stacks(self, real):
        blocks = gaussian_blocks([], [(2, 3), (3, 3)], real)
        assert [b.shape for b in blocks] == [(0, 2, 3), (0, 3, 3)]
        assert all(b.dtype == (float if real else complex) for b in blocks)

    @pytest.mark.parametrize("key", [-1, [-1, 3], [[3, -1], 0], np.array([5, -2])])
    def test_negative_key_is_a_parameter_error(self, key):
        for draw in (random_unitary, random_orthogonal):
            with pytest.raises(ParameterError, match="^RNG key must be nonnegative, got "):
                draw(3, key)
