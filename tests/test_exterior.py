import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann_angles import (
    Blade,
    DomainError,
    MultiIndex,
    MultiIndexError,
    Subspace,
    blade_inner,
    blade_norm,
    contract,
    coordinate_blades,
    is_partially_orthogonal,
    multi_indices,
    sigma_sign,
    wedge,
)
from grassmann_angles.fields import Field
from grassmann_angles.sampling import random_blade, random_matrix, rng_from_seed

FIELDS = (Field.REAL, Field.COMPLEX)
XI = complex(-0.5, math.sqrt(3) / 2)  # primitive cube root of unity


def permutation_parity(seq):
    """Independent oracle: sign by counting inversions."""
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def e(n, i, field=Field.REAL):
    v = np.zeros(n, dtype=field.dtype)
    v[i] = 1.0
    return v


class TestMultiIndices:
    def test_singletons(self):
        assert [m.indices for m in multi_indices(1, 3)] == [(1,), (2,), (3,)]

    def test_grade_zero(self):
        out = multi_indices(0, 3)
        assert len(out) == 1 and out[0].indices == ()
        assert out[0].complement().indices == (1, 2, 3)

    def test_pairs_in_four(self):
        out = multi_indices(2, 4)
        assert len(out) == 6
        assert MultiIndex((1, 3), 4).complement().indices == (2, 4)

    def test_p_above_q_is_empty(self):
        assert multi_indices(3, 2) == []

    def test_validation(self):
        with pytest.raises(MultiIndexError):
            MultiIndex((2, 2), 4)
        with pytest.raises(MultiIndexError):
            MultiIndex((0, 1), 4)
        with pytest.raises(MultiIndexError):
            MultiIndex((1, 5), 4)

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(0, 8), p=st.integers(0, 8))
    def test_counts_and_order(self, q, p):
        out = multi_indices(p, q)
        assert len(out) == (math.comb(q, p) if p <= q else 0)
        assert [m.indices for m in out] == sorted(m.indices for m in out)
        for m in out:
            assert all(1 <= i <= q for i in m.indices)
            assert sorted(set(m.indices)) == list(m.indices)
            assert m.weight == sum(m.indices)


class TestSigmaSign:
    def test_middle_singleton(self):
        assert sigma_sign(MultiIndex((2,), 3)) == -1

    def test_leading_block(self):
        for q in range(1, 7):
            for p in range(1, q + 1):
                assert sigma_sign(MultiIndex(tuple(range(1, p + 1)), q)) == 1

    def test_empty(self):
        assert sigma_sign(MultiIndex((), 3)) == 1

    def test_matches_permutation_parity_everywhere(self):
        for q in range(0, 7):
            for p in range(0, q + 1):
                for index in multi_indices(p, q):
                    concat = index.indices + index.complement().indices
                    assert sigma_sign(index) == permutation_parity(concat), index

    @pytest.mark.parametrize("field", FIELDS)
    def test_reassembly_identity(self, field):
        # omega == sigma_I * omega_I ^ omega_Ihat, checked through inner products
        rng = rng_from_seed(8)
        for _ in range(5):
            omega = random_blade(rng, field, 5, 3)
            norm_sq = blade_norm(omega) ** 2
            for index in multi_indices(2, 3) + multi_indices(1, 3) + multi_indices(0, 3):
                cols = index.zero_based()
                rest = index.complement().zero_based()
                part = Blade(omega.factors[:, cols], field=field, ambient_dim=5)
                other = Blade(omega.factors[:, rest], field=field, ambient_dim=5)
                reassembled = wedge(part, other)
                reassembled = Blade(
                    reassembled.factors,
                    field=field,
                    coefficient=sigma_sign(index) * omega.coefficient,
                    ambient_dim=5,
                )
                value = blade_inner(omega, reassembled)
                assert abs(value - norm_sq) <= 1e-9 * max(1.0, norm_sq)
                assert abs(blade_norm(reassembled) - blade_norm(omega)) <= 1e-9


class TestWedge:
    def test_scalar_identity(self):
        rng = rng_from_seed(3)
        nu = random_blade(rng, Field.REAL, 4, 2)
        one = Blade.scalar(1.0, 4, Field.REAL)
        assert abs(blade_inner(wedge(one, nu), nu) - blade_inner(nu, nu)) < 1e-12

    def test_repeated_factor_is_zero(self):
        v = np.array([1.0, 2.0, 0.0])
        assert blade_norm(wedge(Blade([v]), Blade([v]))) == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_square(self):
        assert blade_norm(wedge(Blade([e(3, 0)]), Blade([e(3, 1)]))) == pytest.approx(1.0)

    def test_grades_add(self):
        rng = rng_from_seed(4)
        a = random_blade(rng, Field.COMPLEX, 5, 2)
        b = random_blade(rng, Field.COMPLEX, 5, 1)
        assert wedge(a, b).grade == 3

    def test_field_mismatch_raises(self):
        with pytest.raises(DomainError):
            wedge(Blade([e(3, 0)]), Blade([e(3, 1, Field.COMPLEX)], field=Field.COMPLEX))

    @pytest.mark.parametrize("field", FIELDS)
    def test_norm_submultiplicative(self, field):
        rng = rng_from_seed(12)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            a, b = random_blade(rng, field, n, p), random_blade(rng, field, n, q)
            assert blade_norm(wedge(a, b)) <= blade_norm(a) * blade_norm(b) * (1 + 1e-12) + 1e-12


class TestBladeInner:
    def test_orthonormal_pair(self):
        b = Blade([e(3, 0), e(3, 1)])
        assert blade_inner(b, b) == pytest.approx(1.0)

    def test_distinct_grades_orthogonal(self):
        a = Blade([e(3, 0)])
        b = Blade([e(3, 0), e(3, 1)])
        assert blade_inner(a, b) == 0.0

    def test_complex_plane_pair_ratio(self):
        v1 = np.array([1, -XI, 0])
        v2 = np.array([0, XI, -(XI**2)])
        w1 = np.array([1, 0, 0], dtype=complex)
        w2 = np.array([0, XI, 0])
        nu, omega = Blade([v1, v2]), Blade([w1, w2])
        ratio = abs(blade_inner(nu, omega)) ** 2 / (blade_norm(nu) ** 2 * blade_norm(omega) ** 2)
        assert ratio == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_conjugate_symmetry_and_first_slot_conjugation(self):
        rng = rng_from_seed(6)
        a = random_blade(rng, Field.COMPLEX, 4, 2)
        b = random_blade(rng, Field.COMPLEX, 4, 2)
        assert blade_inner(a, b) == pytest.approx(np.conjugate(blade_inner(b, a)))
        c = 0.3 - 1.7j
        scaled = Blade(a.factors, field=Field.COMPLEX, coefficient=a.coefficient * c)
        assert blade_inner(scaled, b) == pytest.approx(np.conjugate(c) * blade_inner(a, b))


class TestBladeNorm:
    def test_unit_vector(self):
        assert blade_norm(Blade([e(4, 2)])) == pytest.approx(1.0)

    def test_rectangle_area(self):
        assert blade_norm(Blade([2 * e(3, 0), 3 * e(3, 1)])) == pytest.approx(6.0)

    def test_complex_pair_volume_against_gram_oracle(self):
        v1 = np.array([1, -XI, 0])
        v2 = np.array([0, XI, -(XI**2)])
        gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v2)], [np.vdot(v2, v1), np.vdot(v2, v2)]])
        expected = math.sqrt(np.linalg.det(gram).real)  # = sqrt(3)
        assert expected == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert blade_norm(Blade([v1, v2])) == pytest.approx(expected, abs=1e-12)

    def test_dependent_factors_give_zero(self):
        v = np.array([1.0, 1.0, 0.0])
        assert blade_norm(Blade([v, 2 * v])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_zero_test_and_norm_survive_a_hadamard_product_that_overflows(self, field):
        # the squared factor norms multiply to 1, but 1e300 * 1e300 overflows on the way
        q = np.linalg.qr(random_matrix(rng_from_seed(8), field, 5, 4))[0]
        scales = np.array([1e150, 1e150, 1e-150, 1e-150])
        blade = Blade(q * scales, field=field)
        assert not blade.is_zero()
        assert blade_norm(blade) == pytest.approx(1.0, rel=1e-12)
        assert Blade(q[:, [0, 1, 2, 2]] * scales, field=field).is_zero()
        assert Blade(np.eye(5)[:, [0, 1, 2, 2]] * scales, field=field).is_zero()

    def test_a_column_norm_that_overflows_warns_nothing(self):
        # the norm of this factor exceeds the largest float; it is scaled first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not Blade(np.array([[1.5e308], [1e-300], [1.6e308]])).is_zero()

    @pytest.mark.parametrize("field", FIELDS)
    def test_dependent_frames_are_zero(self, field):
        # their Gram determinants round to up to ~1e-15 of the Hadamard bound,
        # far above rank_eps^2, so a zero test on the determinant misses them
        rng = rng_from_seed(12)
        for _ in range(40):
            f = random_matrix(rng, field, 5, 4)
            assert not Blade(f, field=field).is_zero()
            f[:, 3] = 3 * f[:, 1] - f[:, 2]
            assert Blade(f, field=field).is_zero()
        assert Blade([], field=field, coefficient=0.0, ambient_dim=3).is_zero()
        assert not Blade([], field=field, coefficient=1e-300, ambient_dim=3).is_zero()


class TestContract:
    def test_grade_overflow_is_zero(self):
        rng = rng_from_seed(7)
        nu = random_blade(rng, Field.REAL, 4, 3)
        omega = random_blade(rng, Field.REAL, 4, 2)
        out = contract(nu, omega)
        assert out.terms == ()
        assert out.norm() == 0.0
        assert out.inner_with(random_blade(rng, Field.REAL, 4, 1)) == 0.0

    @pytest.mark.parametrize("field", FIELDS)
    def test_equal_grades_coincide_with_inner(self, field):
        rng = rng_from_seed(9)
        nu = random_blade(rng, field, 4, 2)
        omega = random_blade(rng, field, 4, 2)
        out = contract(nu, omega)
        assert len(out) == 1 and list(out) == list(out.terms)
        scalar = out.terms[0][1] * 1.0  # complement blade is the scalar 1
        assert scalar == pytest.approx(blade_inner(nu, omega))
        one = Blade.scalar(1.0, 4, field)
        assert out.inner_with(one) == pytest.approx(blade_inner(nu, omega))

    def test_scalar_contraction(self):
        omega = Blade([e(3, 0), e(3, 1, Field.COMPLEX)], field=Field.COMPLEX)
        c = 0.5 + 2.0j
        out = contract(Blade.scalar(c, 3, Field.COMPLEX), omega)
        assert out.inner_with(omega) == pytest.approx(np.conjugate(c) * blade_inner(omega, omega))

    @pytest.mark.parametrize("field", FIELDS)
    def test_adjoint_identity_random_probes(self, field):
        rng = rng_from_seed(13)
        nu = random_blade(rng, field, 5, 2)
        omega = random_blade(rng, field, 5, 4)
        out = contract(nu, omega)
        for _ in range(20):
            mu = random_blade(rng, field, 5, 2)
            lhs = out.inner_with(mu)
            rhs = blade_inner(wedge(nu, mu), omega)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("field", FIELDS)
    def test_adjoint_identity_grade_sweep(self, field):
        rng = rng_from_seed(37)
        for n in range(2, 7):
            for q in range(1, min(n, 5) + 1):
                for p in range(0, q + 1):
                    nu = random_blade(rng, field, n, p) if p else Blade.scalar(1.2, n, field)
                    omega = random_blade(rng, field, n, q)
                    out = contract(nu, omega)
                    mu = random_blade(rng, field, n, q - p) if q > p else Blade.scalar(1.0, n, field)
                    lhs = out.inner_with(mu)
                    rhs = blade_inner(wedge(nu, mu), omega)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestCoordinateBlades:
    def test_top_grade_single_unit(self):
        out = coordinate_blades(np.eye(3), 3)
        assert len(out.blades) == 1
        (_, blade), = out.blades.items()
        assert blade_norm(blade) == pytest.approx(1.0)

    def test_grade_zero_scalar_one(self):
        out = coordinate_blades(np.eye(3), 0)
        (_, blade), = out.blades.items()
        assert blade.grade == 0 and blade.coefficient == 1.0

    def test_orthonormal_family(self):
        out = coordinate_blades(np.eye(3), 2)
        blades = list(out.blades.values())
        assert len(blades) == 3
        for i, a in enumerate(blades):
            for j, b in enumerate(blades):
                assert blade_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


    @pytest.mark.parametrize("field", FIELDS)
    def test_writing_into_the_callers_array_leaves_the_blades(self, field):
        basis = random_matrix(rng_from_seed(3), field, 4, 3)
        saved = basis.copy()
        blade, part = Blade(basis, field=field), Blade(basis[:, 1:], field=field)
        coords = coordinate_blades(basis, 2, field=field)
        basis[:] = 0.0
        np.testing.assert_array_equal(blade.factors, saved)
        np.testing.assert_array_equal(part.factors, saved[:, 1:])
        np.testing.assert_array_equal(coords.basis, saved)


class TestPartialOrthogonalityEquivalence:
    @pytest.mark.parametrize("field", FIELDS)
    def test_blade_orthogonality_matches_subspace_test(self, field):
        rng = rng_from_seed(21)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n))
            q = int(rng.integers(p, n + 1))
            w = Subspace.from_spanning(random_matrix(rng, field, n, q), field=field)
            if trial % 2 == 0 and w.dim < n:
                # engineered rank deficiency: plant a direction orthogonal to w
                u, _, _ = np.linalg.svd(w.onb, full_matrices=True)
                extra = random_matrix(rng, field, n, p - 1) if p > 1 else np.zeros((n, 0), field.dtype)
                v = Subspace.from_spanning(np.hstack([u[:, -1:], extra]), field=field)
            else:
                v = Subspace.from_spanning(random_matrix(rng, field, n, p), field=field)
            nu = v.spanning_blade()
            inners = [
                abs(blade_inner(nu, omega))
                for _, omega in coordinate_blades(w.onb, v.dim, field=field)
            ]
            all_zero = max(inners, default=0.0) < 1e-9
            assert all_zero == is_partially_orthogonal(v, w)


class TestCaps:
    def test_ambient_cap(self):
        with pytest.raises(DomainError):
            Blade(np.eye(17))

    def test_grade_cap(self):
        with pytest.raises(DomainError):
            Blade(np.ones((4, 17)))
