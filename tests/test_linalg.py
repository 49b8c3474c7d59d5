import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann_angles import (
    DimensionMismatchError,
    DomainError,
    MultiIndexError,
    SingularPivotError,
    Tolerance,
    det,
    laplace_expand_det,
    orthonormalize,
    schur_det,
    svd,
)
from grassmann_angles import linalg
from grassmann_angles.fields import Field
from grassmann_angles.linalg import QR_MIN_COLUMNS
from grassmann_angles.sampling import random_matrix, random_unitary, rng_from_seed

FIELDS = (Field.REAL, Field.COMPLEX)


def relative_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


class TestDet:
    def test_forced_2x2(self):
        assert det(np.array([[2.0, 4.0], [4.0, 10.0]])) == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_identity(self, n):
        assert det(np.eye(n)) == pytest.approx(1.0)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            det(np.ones((2, 3)))

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_laplace_oracle_on_random_5x5(self, field):
        rng = rng_from_seed(11)
        for _ in range(10):
            m = random_matrix(rng, field, 5, 5)
            expected = laplace_expand_det(m, (1, 3, 4))
            assert relative_error(det(m), expected) < 1e-10


class TestLaplaceExpansion:
    def test_cofactor_base_case(self):
        a, b, c, d = 3.5, -1.25, 2.0, 0.75
        m = np.array([[a, b], [c, d]])
        assert laplace_expand_det(m, (1,)) == pytest.approx(a * d - b * c)

    def test_identity_3x3(self):
        assert laplace_expand_det(np.eye(3), (1, 2)) == pytest.approx(1.0)

    def test_matches_det_on_random_4x4(self):
        rng = rng_from_seed(5)
        m = random_matrix(rng, Field.REAL, 4, 4)
        assert abs(laplace_expand_det(m, (2, 3)) - det(m)) < 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_every_column_set_agrees_with_det(self, field):
        from itertools import combinations

        rng = rng_from_seed(23)
        m = random_matrix(rng, field, 5, 5)
        reference = det(m)
        for p in range(1, 5):
            for cols in combinations(range(1, 6), p):
                assert relative_error(laplace_expand_det(m, cols), reference) < 1e-10

    def test_bad_multi_indices(self):
        m = np.eye(4)
        with pytest.raises(MultiIndexError):
            laplace_expand_det(m, (0, 2))
        with pytest.raises(MultiIndexError):
            laplace_expand_det(m, (3, 2))
        with pytest.raises(MultiIndexError):
            laplace_expand_det(m, (1, 2, 3, 4))  # p must stay below q
        with pytest.raises(MultiIndexError):
            laplace_expand_det(m, ())


class TestSchurDet:
    def test_block_diagonal(self):
        rng = rng_from_seed(2)
        d = random_matrix(rng, Field.REAL, 3, 3)
        value = schur_det(np.eye(2), np.zeros((2, 3)), np.zeros((3, 2)), d, pivot="A")
        assert value == pytest.approx(det(d))

    def test_scalar_blocks(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        out = schur_det(np.array([[a]]), np.array([[b]]), np.array([[c]]), np.array([[d]]), pivot="A")
        assert out == pytest.approx(a * d - c * b)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("pivot", ["A", "D"])
    def test_matches_assembled_determinant(self, field, pivot):
        rng = rng_from_seed(71)
        for _ in range(20):
            q, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            a = random_matrix(rng, field, q, q) + 2 * np.eye(q)
            d = random_matrix(rng, field, p, p) + 2 * np.eye(p)
            b = random_matrix(rng, field, q, p)
            c = random_matrix(rng, field, p, q)
            assembled = np.block([[a, b], [c, d]])
            assert relative_error(schur_det(a, b, c, d, pivot=pivot), det(assembled)) < 1e-10

    def test_singular_pivot_raises(self):
        a = np.zeros((2, 2))
        with pytest.raises(SingularPivotError):
            schur_det(a, np.eye(2), np.eye(2), np.eye(2), pivot="A")

    def test_nonconformable_raises(self):
        with pytest.raises(DimensionMismatchError):
            schur_det(np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)), np.eye(1))


class TestOrthonormalize:
    # every case runs once with its width below the QR threshold (the
    # Gram-Schmidt loop) and once at or above it (Householder QR)
    @pytest.fixture(autouse=True, params=["gram-schmidt", "householder"])
    def kernel(self, request, monkeypatch):
        monkeypatch.setattr(linalg, "QR_MIN_COLUMNS", 10**6 if request.param == "gram-schmidt" else 0)

    def test_single_vector(self):
        q, rank = orthonormalize(np.array([[1.0, 0.0, 1.0, 0.0]]).T)
        assert rank == 1
        np.testing.assert_allclose(q[:, 0], np.array([1, 0, 1, 0]) / math.sqrt(2))

    def test_duplicate_columns_drop(self):
        v = np.array([[1.0, 2.0, -1.0]]).T
        q, rank = orthonormalize(np.hstack([v, v]))
        assert rank == 1 and q.shape == (3, 1)

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_zero_matrix(self, k):
        q, rank = orthonormalize(np.zeros((4, k)))
        assert rank == 0 and q.shape == (4, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-200j, 2.0**600, 2.0**-600, 2.0**1000, 2.0**-1000j])
    def test_extreme_columns_are_rescaled_not_dropped(self, scale):
        basis = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]).T
        q, rank = orthonormalize(basis * scale)
        assert rank == 2
        np.testing.assert_allclose(q, basis / np.linalg.norm(basis, axis=0) * (scale / abs(scale)), atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_column_raises(self, bad):
        with pytest.raises(DomainError):
            orthonormalize(np.array([[1.0, bad, 0.0]]).T)

    def test_complex_pair_gram_is_identity(self):
        xi = complex(-0.5, math.sqrt(3) / 2)
        basis = np.column_stack([[1, -xi, 0], [0, xi, -(xi**2)]])
        q, rank = orthonormalize(basis)
        assert rank == 2
        assert np.max(np.abs(q.conj().T @ q - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_inputs_stay_orthonormal_and_nested(self, field):
        rng = rng_from_seed(99)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(1, n + 1))
            m = random_matrix(rng, field, n, k)
            q, rank = orthonormalize(m)
            assert rank == np.linalg.matrix_rank(m)
            assert np.max(np.abs(q.conj().T @ q - np.eye(rank))) <= 1e-12
            # column nesting: the j-th output stays inside the leading input columns
            for j in range(rank):
                lead = m[:, : j + 1]
                coeff = np.linalg.lstsq(lead, q[:, j], rcond=None)[0]
                assert np.linalg.norm(lead @ coeff - q[:, j]) < 1e-10

    def test_dependent_column_in_the_middle_is_dropped(self):
        v, e3 = np.array([1.0, 2.0, -1.0]), np.array([0.0, 0.0, 1.0])
        q, rank = orthonormalize(np.column_stack([v, 3 * v, e3]))
        assert rank == 2 and q.shape == (3, 2)
        np.testing.assert_allclose(q[:, 0], v / np.linalg.norm(v), atol=1e-15)
        assert np.linalg.norm(e3 - q @ (q.T @ e3)) <= 1e-15

    def test_dependent_column_before_an_independent_one_past_n(self):
        q, rank = orthonormalize(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert rank == 2
        np.testing.assert_array_equal(q, np.eye(2))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_more_columns_than_the_dimension_give_rank_n(self, field, n):
        q, rank = orthonormalize(random_matrix(rng_from_seed(n), field, n, n + 3))
        assert rank == n and q.shape == (n, n)
        assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_non_finite_entry_after_the_span_is_full_raises(self, bad):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, bad]])
        with pytest.raises(DomainError):
            orthonormalize(m)

    @pytest.mark.parametrize("field", FIELDS)
    def test_random_bases_match_householder_qr(self, field):
        # A = Q R with R upper triangular and real positive on the diagonal
        # fixes Q, so the span, the nesting and the diagonal pin it down
        rng = rng_from_seed(404)
        for n in range(1, 17):
            for k in sorted({1, int(rng.integers(1, n + 1)), n}):
                a = random_matrix(rng, field, n, k)
                q, rank = orthonormalize(a)
                assert rank == k
                assert np.max(np.abs(q.conj().T @ q - np.eye(k))) <= 1e-14
                ref, _ = np.linalg.qr(a)
                assert np.linalg.norm(ref - q @ (q.conj().T @ ref), 2) <= 1e-12
                r = q.conj().T @ a
                assert np.max(np.abs(np.tril(r, -1))) <= 1e-13 * np.linalg.norm(a, 2)
                diag = np.diag(r)
                assert np.all(diag.real > 0.0)
                assert np.max(np.abs(diag.imag)) <= 1e-14 * np.linalg.norm(a, 2)

    def test_rank_eps_is_relative(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        # third column dependent up to a 1e-14 sliver: dropped at the default
        # tolerance, kept when rank_eps is tightened below the sliver
        wobble = base[:, 0] + 1e-14 * np.array([0.0, 0.0, 1.0])
        _, rank = orthonormalize(np.column_stack([base, wobble]))
        assert rank == 2
        _, rank_tight = orthonormalize(np.column_stack([base, wobble]), Tolerance(rank_eps=1e-16))
        assert rank_tight == 3


@pytest.mark.parametrize("k", [QR_MIN_COLUMNS - 1, QR_MIN_COLUMNS])
def test_the_column_count_selects_the_kernel(k, monkeypatch):
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
    _, rank = orthonormalize(random_matrix(rng_from_seed(k), Field.REAL, 8, k))
    assert rank == k and len(calls) == (k >= QR_MIN_COLUMNS)


class TestSvd:
    def test_diagonal(self):
        _, s, _ = svd(np.diag([-3.0, 1.0, 2.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)

    def test_complex_reconstruction(self):
        rng = rng_from_seed(17)
        m = random_matrix(rng, Field.COMPLEX, 4, 3)
        u, s, v = svd(m)
        assert np.linalg.norm(m - u @ np.diag(s) @ v.conj().T) <= 1e-10 * np.linalg.norm(m)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_singular_values_unitarily_invariant(self, field):
        rng = rng_from_seed(31)
        m = random_matrix(rng, field, 5, 4)
        _, s, _ = svd(m)
        left, right = random_unitary(rng, field, 5), random_unitary(rng, field, 4)
        _, s2, _ = svd(left @ m @ right)
        np.testing.assert_allclose(s, s2, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000))
def test_det_multiplicative_property(n, seed):
    rng = rng_from_seed(seed)
    a = random_matrix(rng, Field.REAL, n, n)
    b = random_matrix(rng, Field.REAL, n, n)
    assert det(a @ b) == pytest.approx(det(a) * det(b), abs=1e-8, rel=1e-8)
