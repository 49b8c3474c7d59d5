import math

import exact
import numpy as np
import pytest
from generators import random_subspace_within
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmann_angles import (
    AngleMethod,
    AngleReport,
    Blade,
    DegenerateBasisError,
    DimensionMismatchError,
    DomainError,
    GrassmannError,
    NumericalConsistencyError,
    Subspace,
    blade_norm,
    check_coordinate_pythagorean,
    complement,
    complementary_angle,
    complementary_angle_formula,
    complementary_angle_orthonormal,
    contract,
    direct_sum,
    grassmann_angle,
    grassmann_angle_any_dim,
    grassmann_angle_equal_dim,
    grassmann_angle_principal,
    oriented_grassmann_cos,
    orthogonal_complement_within,
    project_blade,
    vector_angle,
    wedge,
)
from grassmann_angles.angles import _real_scalar, _report_from_cos_sq
from grassmann_angles.fields import Field
from grassmann_angles.gallery import load_case_document
from grassmann_angles.sampling import (
    random_blade,
    random_matrix,
    random_mixing,
    random_subspace,
    random_unitary,
    rng_from_seed,
)

FIELDS = (Field.REAL, Field.COMPLEX)
XI = complex(-0.5, math.sqrt(3) / 2)

V1 = np.array([1, -XI, 0])
V2 = np.array([0, XI, -(XI**2)])
W1 = np.array([1, 0, 0], dtype=complex)
W2 = np.array([0, XI, 0])

LINE_R4 = [np.array([1.0, 0.0, 1.0, 0.0])]
PLANE_R4 = [np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 2.0, 2.0, -1.0])]


def definition_pairs(field, seed):
    """Seeded random pairs with dim V + dim W <= n, away from forced intersections."""
    rng = rng_from_seed(seed)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n))
        yield random_subspace(rng, field, n, p), random_subspace(rng, field, n, int(rng.integers(1, n - p + 1)))


class TestVectorAngle:
    def test_same_vector(self):
        # arccos spreads the 1-ulp cosine rounding to ~1e-8 near zero angles
        out = vector_angle(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert out.euclidean <= 1e-7 and out.hermitian is None
        out_c = vector_angle(np.array([1.0 + 0j, 2.0]), np.array([1.0 + 0j, 2.0]))
        assert out_c.euclidean <= 1e-7 and out_c.hermitian <= 1e-7

    def test_real_orthogonal_pair(self):
        out = vector_angle(np.array([1.0, 0.0]), np.array([0.0, 3.0]))
        assert out.euclidean == pytest.approx(math.pi / 2) and out.hermitian is None

    def test_complex_pair_matches_plane_angle(self):
        v = np.array([XI, XI**2, -2.0])
        w = np.array([1.0, XI, 0.0])
        out = vector_angle(v, w)
        assert math.cos(out.hermitian) == pytest.approx(math.sqrt(3) / 3, abs=1e-12)

    def test_antiparallel(self):
        out = vector_angle(np.array([1.0, 0.0]), np.array([-2.0, 0.0]))
        assert out.euclidean == pytest.approx(math.pi)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            vector_angle(np.zeros(3), np.ones(3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norms_that_overflow_or_underflow_are_rescaled(self):
        assert vector_angle(np.array([1e200, 1e200]), np.array([1.0, 0.0])).euclidean == pytest.approx(math.pi / 4)
        assert vector_angle(np.array([1e200, 0.0]), np.array([-1e200, 0.0])).euclidean == pytest.approx(math.pi)
        out = vector_angle(np.array([1e-200, 0.0j]), np.array([1e-200, 1e-200j]))
        assert out.hermitian == pytest.approx(math.pi / 4)
        v, w = np.array([3.0, -1.0j, 2.0]), np.array([1.0, 1.0j, -0.5])
        for ev, ew in ((600, 0), (-600, 600), (1000, -1000), (-1000, 1000)):
            out = vector_angle(v * 2.0**ev, w * 2.0**ew)
            assert abs(out.euclidean - vector_angle(v, w).euclidean) <= 1e-15
            assert abs(out.hermitian - vector_angle(v, w).hermitian) <= 1e-15


class TestGrassmannAngle:
    def test_equal_subspaces(self):
        rng = rng_from_seed(1)
        v = random_subspace(rng, Field.COMPLEX, 4, 2)
        report = grassmann_angle(v, v)
        assert report.value == pytest.approx(0.0, abs=1e-7)
        assert report.cosine == pytest.approx(1.0, abs=1e-12)

    def test_bigger_into_smaller_is_right_angle(self):
        rng = rng_from_seed(2)
        v = random_subspace(rng, Field.REAL, 5, 3)
        w = random_subspace(rng, Field.REAL, 5, 2)
        assert grassmann_angle(v, w).value == math.pi / 2

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "route, method",
        [(grassmann_angle, AngleMethod.PROJECTION), (grassmann_angle_principal, AngleMethod.PRINCIPAL_PRODUCT)],
    )
    def test_degenerate_dimension_conventions(self, route, method, field):
        # the kernels' own conventions: the empty determinant or product is 1,
        # and a bigger subspace projects onto a smaller one with rank below p
        zero, full = Subspace.zero(3, field), Subspace.full(3, field)
        plane = Subspace.from_spanning(np.eye(3)[:, :2], field)
        line = Subspace.from_spanning(np.eye(3)[:, :1], field)
        assert route(zero, zero) == route(zero, line) == route(zero, full) == AngleReport(0.0, 1.0, method)
        assert route(full, zero) == route(line, zero) == route(plane, line) == AngleReport(math.pi / 2, 0.0, method)

    def test_line_plane_pair(self):
        v = Subspace.from_spanning(LINE_R4)
        w = Subspace.from_spanning(PLANE_R4)
        assert grassmann_angle(v, w).value == pytest.approx(math.pi / 4, abs=1e-12)
        assert grassmann_angle(w, v).value == math.pi / 2

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            grassmann_angle(Subspace.full(3, Field.REAL), Subspace.full(4, Field.REAL))
        with pytest.raises(DimensionMismatchError):
            grassmann_angle(Subspace.full(3, Field.REAL), Subspace.full(3, Field.COMPLEX))

    @pytest.mark.parametrize("field", FIELDS)
    def test_projection_residual_tracks_principal_product(self, field):
        rng = rng_from_seed(3)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            v = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            report = grassmann_angle(v, w)
            assert abs(report.cosine - grassmann_angle_principal(v, w).cosine) <= 1e-10
            assert report.method is AngleMethod.PROJECTION and report.residual == 0.0

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_the_norm_of_the_projected_blade(self, field):
        # the paper's definition cos = |P nu| / |nu| for the unit blade nu of V
        for pair in definition_pairs(field, 21):
            for v, w in (pair, pair[::-1]):
                by_blade = blade_norm(project_blade(v.spanning_blade(), w))
                if v.dim <= w.dim:
                    assert abs(grassmann_angle(v, w).cosine - by_blade) <= 1e-12
                else:  # the projected blade is zero: its norm is the square root of a rounded 0
                    assert grassmann_angle(v, w).cosine == 0.0 and by_blade**2 <= 1e-12


class TestEqualDimFormula:
    def test_identical_bases(self):
        basis = [np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0])]
        assert grassmann_angle_equal_dim(basis, basis).value == pytest.approx(0.0, abs=1e-7)

    def test_complex_plane_pair(self):
        report = grassmann_angle_equal_dim([V1, V2], [W1, W2])
        assert report.cosine == pytest.approx(math.sqrt(3) / 3, abs=1e-10)
        assert report.value == pytest.approx(math.acos(math.sqrt(3) / 3), abs=1e-10)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            grassmann_angle_equal_dim(LINE_R4, PLANE_R4)

    def test_dependent_basis_rejected(self):
        v = np.array([1.0, 1.0, 0.0])
        with pytest.raises(DegenerateBasisError):
            grassmann_angle_equal_dim([v, 2 * v], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_projection_on_random_bases(self, field):
        rng = rng_from_seed(4)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            bv = random_subspace(rng, field, n, p).onb @ random_mixing(rng, field, p)
            bw = random_subspace(rng, field, n, p).onb @ random_mixing(rng, field, p)
            by_formula = grassmann_angle_equal_dim(bv, bw, field=field)
            by_projection = grassmann_angle(
                Subspace.from_spanning(bv, field=field), Subspace.from_spanning(bw, field=field)
            )
            assert abs(by_formula.cosine - by_projection.cosine) <= 1e-8


class TestAnyDimFormula:
    def test_line_plane_pair_forced_values(self):
        forward = grassmann_angle_any_dim(LINE_R4, PLANE_R4)
        assert forward.degrees == pytest.approx(45.0, abs=1e-10)
        backward = grassmann_angle_any_dim(PLANE_R4, LINE_R4)
        assert backward.value == math.pi / 2  # rank argument, no arithmetic

    def test_dependent_basis_rejected(self):
        v = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateBasisError):
            grassmann_angle_any_dim([v, v], PLANE_R4)

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_principal_product(self, field):
        rng = rng_from_seed(5)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, q)
            bv = v.onb @ random_mixing(rng, field, p)
            bw = w.onb @ random_mixing(rng, field, q)
            by_formula = grassmann_angle_any_dim(bv, bw, field=field)
            assert abs(by_formula.cosine - grassmann_angle_principal(v, w).cosine) <= 1e-8


class TestComplementaryAngle:
    def test_orthogonal_subspaces_have_zero_complementary_angle(self):
        v = Subspace.from_spanning([[1.0, 0.0, 0.0]])
        w = Subspace.from_spanning([[0.0, 1.0, 0.0]])
        assert complementary_angle(v, w).value == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("field", FIELDS)
    def test_degenerate_dimensions(self, field):
        zero = Subspace.zero(3, field)
        full = Subspace.full(3, field)
        line = Subspace.from_spanning([[1.0, 0.0, 0.0]], field=field)
        for a, b in [(zero, line), (line, zero), (zero, full), (full, zero), (zero, zero)]:
            report = complementary_angle(a, b)
            assert report.value == 0.0 and report.residual == 0.0
            assert complementary_angle_orthonormal(a, b).value == 0.0
        assert complementary_angle(full, full).value == math.pi / 2  # forced intersection

    def test_intersecting_subspaces_have_right_complementary_angle(self):
        v = Subspace.from_spanning([V1, V2], field=Field.COMPLEX)
        w = Subspace.from_spanning([W1, W2], field=Field.COMPLEX)
        report = complementary_angle(v, w)
        assert report.cos_squared <= 1e-12
        assert report.value == pytest.approx(math.pi / 2, abs=1e-5)

    def test_bundled_line_inside_a_plane_has_cosine_zero(self):
        # w_line lies in W, so the two intersect and the exact complementary cosine is 0
        doc = load_case_document("complex_planes.json")
        assert complementary_angle(doc.subspace("W"), doc.subspace("w_line")).cosine <= 1e-15
        assert complementary_angle(doc.subspace("w_line"), doc.subspace("W")).cosine <= 1e-15

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_the_grassmann_angle_against_the_complement(self, field):
        # the paper's definition: the Grassmann angle of v with the complement of w
        for v, w in definition_pairs(field, 22):
            assert abs(complementary_angle(v, w).cosine - grassmann_angle(v, complement(w)).cosine) <= 1e-12
            assert abs(complementary_angle(w, v).cosine - grassmann_angle(w, complement(v)).cosine) <= 1e-12

    def test_line_plane_pair_both_ways(self):
        v = Subspace.from_spanning(LINE_R4)
        w = Subspace.from_spanning(PLANE_R4)
        assert complementary_angle(v, w).degrees == pytest.approx(45.0, abs=1e-9)
        assert complementary_angle(w, v).degrees == pytest.approx(45.0, abs=1e-9)

    @pytest.mark.parametrize("field", FIELDS)
    def test_symmetry(self, field):
        rng = rng_from_seed(6)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            v = random_subspace(rng, field, n, int(rng.integers(0, n + 1)))
            w = random_subspace(rng, field, n, int(rng.integers(0, n + 1)))
            assert abs(complementary_angle(v, w).cosine - complementary_angle(w, v).cosine) <= 1e-9

    @pytest.mark.parametrize("field", FIELDS)
    def test_cross_route_residual_small(self, field):
        rng = rng_from_seed(7)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            v = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            # a forced intersection puts the true cosine at 0, where the
            # sine-product and determinant routes keep only half the digits
            bound = 1e-8 if v.dim + w.dim <= n else 1e-7
            cosine = complementary_angle(v, w).cosine
            cosines = np.linalg.svd(v.onb.conj().T @ w.onb, compute_uv=False)
            sine_product = float(np.prod(np.sqrt(np.clip(1.0 - cosines**2, 0.0, 1.0))))
            assert abs(cosine - sine_product) <= bound
            assert abs(cosine - complementary_angle_orthonormal(v, w).cosine) <= bound


class TestComplementaryFormula:
    def test_line_plane_pair(self):
        assert complementary_angle_formula(LINE_R4, PLANE_R4).degrees == pytest.approx(45.0, abs=1e-10)
        assert complementary_angle_formula(PLANE_R4, LINE_R4).degrees == pytest.approx(45.0, abs=1e-10)

    def test_orthonormal_route_line_plane_pair(self):
        v = Subspace.from_spanning(LINE_R4)
        w = Subspace.from_spanning(PLANE_R4)
        assert complementary_angle_orthonormal(v, w).degrees == pytest.approx(45.0, abs=1e-10)

    def test_orthogonal_pair_gives_zero(self):
        v = [np.array([1.0, 0.0, 0.0, 0.0])]
        w = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])]
        assert complementary_angle_formula(v, w).value == pytest.approx(0.0)

    def test_intersecting_complex_planes(self):
        report = complementary_angle_formula([V1, V2], [W1, W2])
        assert report.cos_squared <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_matches_projection_route(self, field):
        rng = rng_from_seed(8)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, q)
            bv = v.onb @ random_mixing(rng, field, p)
            bw = w.onb @ random_mixing(rng, field, q)
            by_formula = complementary_angle_formula(bv, bw, field=field)
            by_projection = complementary_angle(v, w)
            assert abs(by_formula.cos_squared - by_projection.cos_squared) <= 1e-10
            if p + q <= n:  # away from forced intersections the cosine itself is sharp
                assert abs(by_formula.cosine - by_projection.cosine) <= 1e-8


class TestMixedFieldBases:
    """With no field given, a pair of bases of which one has complex entries
    is read over the complex field, and each basis is checked once."""

    @pytest.mark.parametrize(
        "route, v, w, cosine",
        [
            (grassmann_angle_any_dim, [[1, 0, 0]], [[1j, 0, 0], [0, 1, 0]], 1.0),
            (grassmann_angle_any_dim, [[1j, 0, 0]], [[1, 0, 0], [0, 1, 0]], 1.0),
            (grassmann_angle_equal_dim, [[1, 1, 0]], [[1j, 0, 0]], math.sqrt(0.5)),
            (complementary_angle_formula, [[1, 0, 0]], [[0, 1j, 0]], 1.0),
        ],
    )
    def test_one_svd_per_basis(self, route, v, w, cosine, monkeypatch):
        svd, checked = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            checked.append(a.dtype)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        report = route(v, w)
        assert checked == [np.dtype(complex)] * 2
        assert report.cosine == pytest.approx(cosine, abs=1e-12)


class TestOrientedCos:
    def test_identical_unit_blade(self):
        b = Blade([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert oriented_grassmann_cos(b, b) == pytest.approx(1.0)

    def test_orientation_reversal(self):
        b = Blade([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        flipped = Blade(b.factors, coefficient=-1.0)
        assert oriented_grassmann_cos(b, flipped) == pytest.approx(-1.0)

    def test_modulus_matches_unoriented_cosine(self):
        rng = rng_from_seed(9)
        for field in FIELDS:
            for _ in range(10):
                n = int(rng.integers(1, 7))
                p = int(rng.integers(1, n + 1))
                nu = random_blade(rng, field, n, p)
                omega = random_blade(rng, field, n, p)
                v = Subspace.from_spanning(nu.factors, field=field)
                w = Subspace.from_spanning(omega.factors, field=field)
                assert abs(oriented_grassmann_cos(nu, omega)) == pytest.approx(
                    grassmann_angle(v, w).cosine, abs=1e-10
                )

    def test_grade_mismatch_rejected(self):
        with pytest.raises(DomainError):
            oriented_grassmann_cos(Blade([np.array([1.0, 0.0])]), Blade(np.eye(2)))

    def test_zero_blade_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(DomainError):
            oriented_grassmann_cos(Blade([v, v]), Blade(np.eye(2)))

    @pytest.mark.parametrize("coefficient", [math.inf, math.nan])
    def test_non_finite_coefficient_rejected(self, coefficient):
        with pytest.raises(DomainError):
            oriented_grassmann_cos(Blade(np.eye(2), coefficient=coefficient), Blade(np.eye(2)))

    def test_rounded_dependent_blades_rejected(self):
        # the Gram determinant of f4 = 3 f2 - f3 rounds to up to ~eps times
        # its Hadamard bound, not to zero; the rank rule still sees the zero
        rng = rng_from_seed(1)
        for _ in range(300):
            factors = rng.standard_normal((5, 4))
            factors[:, 3] = 3.0 * factors[:, 1] - factors[:, 2]
            nu = Blade(factors)
            omega = random_blade(rng, Field.REAL, 5, 4)
            assert nu.is_zero()
            with pytest.raises(DomainError):
                oriented_grassmann_cos(nu, omega)
            with pytest.raises(DomainError):
                oriented_grassmann_cos(omega, nu)

    def test_nearly_dependent_blades_match_the_exact_cosine(self):
        # rank-full 4-blades in R^5 with two factors within 1e-6 of others
        # (cond ~ 1e6): a Gram determinant is off by about eps * cond^2
        # relative, the unit frames by about eps * cond, the spans' own limit
        rng = rng_from_seed(3)
        for _ in range(201):
            factors = rng.standard_normal((5, 4))
            factors[:, 2] = factors[:, 0] + 1e-6 * rng.standard_normal(5)
            factors[:, 3] = factors[:, 1] + 1e-6 * rng.standard_normal(5)
            nu = Blade(factors)
            omega = random_blade(rng, Field.REAL, 5, 4)
            assert not nu.is_zero()
            truth = exact.oriented_cos(nu.factors, omega.factors, nu.coefficient, omega.coefficient)
            assert abs(oriented_grassmann_cos(nu, omega) - truth) <= 1e-8
            assert abs(oriented_grassmann_cos(omega, nu) - truth) <= 1e-8

    @pytest.mark.parametrize("field", FIELDS)
    def test_independent_pairs_match_the_exact_cosine(self, field):
        rng = rng_from_seed(4)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            nu, omega = random_blade(rng, field, n, p), random_blade(rng, field, n, p)
            truth = exact.oriented_cos(nu.factors, omega.factors, nu.coefficient, omega.coefficient)
            assert abs(oriented_grassmann_cos(nu, omega) - truth) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS))
    def test_positive_mixing_keeps_and_odd_permutation_flips_the_cosine(self, seed, field):
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, n + 1))
        nu, omega = random_blade(rng, field, n, p), random_blade(rng, field, n, p)
        mixing = random_mixing(rng, field, p, cond_limit=10.0)
        d = np.linalg.det(mixing)
        mixing[:, 0] /= d / abs(d)  # now det(mixing) = |d| > 0
        order = rng.permutation(p)
        if np.linalg.det(np.eye(p)[:, order]) > 0:
            order[[0, 1]] = order[[1, 0]]  # an odd permutation
        cosine = oriented_grassmann_cos(nu, omega)
        mixed = Blade(omega.factors @ mixing, field=field, coefficient=omega.coefficient)
        permuted = Blade(omega.factors[:, order], field=field, coefficient=omega.coefficient)
        assert abs(oriented_grassmann_cos(nu, mixed) - cosine) <= 1e-13
        assert abs(oriented_grassmann_cos(nu, permuted) + cosine) <= 1e-13


class TestMethodAgreement:
    @pytest.mark.parametrize("field", FIELDS)
    def test_all_methods_agree_across_dimension_grid(self, field):
        rng = rng_from_seed(10)
        for n in range(1, 9):
            for p in range(1, n + 1):
                for q in range(1, n + 1):
                    v = random_subspace(rng, field, n, p)
                    w = random_subspace(rng, field, n, q)
                    bv = v.onb @ random_mixing(rng, field, p)
                    bw = w.onb @ random_mixing(rng, field, q)
                    cos_proj = grassmann_angle(v, w).cosine
                    cos_any = grassmann_angle_any_dim(bv, bw, field=field).cosine
                    cos_prin = grassmann_angle_principal(v, w).cosine
                    assert abs(cos_proj - cos_any) <= 1e-8
                    assert abs(cos_proj - cos_prin) <= 1e-8
                    assert abs(cos_any - cos_prin) <= 1e-8
                    if p == q:
                        cos_eq = grassmann_angle_equal_dim(bv, bw, field=field).cosine
                        assert abs(cos_eq - cos_proj) <= 1e-8


class TestAngleProperties:
    @pytest.mark.parametrize("field", FIELDS)
    def test_symmetric_when_dimensions_match(self, field):
        rng = rng_from_seed(11)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, p)
            assert abs(grassmann_angle(v, w).cosine - grassmann_angle(w, v).cosine) <= 1e-9

    @pytest.mark.parametrize("field", FIELDS)
    def test_unitary_invariance(self, field):
        rng = rng_from_seed(12)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            v = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            t = random_unitary(rng, field, n)
            tv = Subspace(t @ v.onb, field, _validate=False)
            tw = Subspace(t @ w.onb, field, _validate=False)
            assert abs(grassmann_angle(v, w).cosine - grassmann_angle(tv, tw).cosine) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), field=st.sampled_from(FIELDS), n=st.integers(4, 8), data=st.data())
    def test_mixing_within_the_span_or_one_unitary_leaves_every_angle(self, seed, field, n, data):
        # widths on both sides of the Householder threshold reach both kernels of orthonormalize
        p, q = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        rng = rng_from_seed(seed)
        bv, bw = random_matrix(rng, field, n, p), random_matrix(rng, field, n, q)
        t = random_unitary(rng, field, n)
        mixed = (bv @ random_mixing(rng, field, p), bw @ random_mixing(rng, field, q))
        turned = (t @ bv, t @ bw)
        base = (Subspace.from_spanning(bv, field=field), Subspace.from_spanning(bw, field=field))
        for pair in (mixed, turned):
            moved = tuple(Subspace.from_spanning(b, field=field) for b in pair)
            for route in (grassmann_angle, grassmann_angle_principal, complementary_angle, complementary_angle_orthonormal):
                # cos^2, which stays accurate where the cosine of an endpoint angle does not
                assert abs(route(*moved).cos_squared - route(*base).cos_squared) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_angle_of_complements_swapped(self, field):
        rng = rng_from_seed(13)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            v = random_subspace(rng, field, n, int(rng.integers(0, n + 1)))
            w = random_subspace(rng, field, n, int(rng.integers(0, n + 1)))
            lhs = grassmann_angle(v, w).cosine
            rhs = grassmann_angle(complement(w), complement(v)).cosine
            assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("field", FIELDS)
    def test_intersection_can_be_stripped(self, field):
        rng = rng_from_seed(14)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n - 1))
            rest = n - k
            d1 = int(rng.integers(1, rest))
            d2 = int(rng.integers(1, rest - d1 + 1)) if rest - d1 >= 1 else 0
            if d1 + d2 + k > n or d2 == 0:
                continue
            shared = random_subspace(rng, field, n, k)
            outside = complement(shared)
            a = random_subspace_within(rng, outside, d1)
            b = random_subspace_within(rng, outside, d2)
            v = direct_sum(shared, a)
            w = direct_sum(shared, b)
            v_stripped = orthogonal_complement_within(shared, v)
            w_stripped = orthogonal_complement_within(shared, w)
            lhs = grassmann_angle(v, w).cosine
            rhs = grassmann_angle(v_stripped, w_stripped).cosine
            assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("field", FIELDS)
    def test_line_complement_is_ordinary_complement(self, field):
        rng = rng_from_seed(15)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            line = random_subspace(rng, field, n, 1)
            # a full-space w forces a zero angle where arccos keeps half digits
            w = random_subspace(rng, field, n, int(rng.integers(1, n)))
            plain = grassmann_angle(line, w).value
            comp = complementary_angle(line, w).value
            assert abs(comp - (math.pi / 2 - plain)) <= 1e-9

    @pytest.mark.parametrize("field", FIELDS)
    def test_blade_product_norms(self, field):
        # the squared-norm identities carry the full precision; the plain
        # norms lose half the digits exactly at the zero endpoint (square
        # root of a rounded near-zero Gram determinant)
        rng = rng_from_seed(16)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            nu = random_blade(rng, field, n, p)
            omega = random_blade(rng, field, n, q)
            v = Subspace.from_spanning(nu.factors, field=field)
            w = Subspace.from_spanning(omega.factors, field=field)
            scale = blade_norm(nu) * blade_norm(omega)
            if p == q:
                lhs = abs(
                    np.conjugate(nu.coefficient)
                    * omega.coefficient
                    * np.linalg.det(nu.factors.conj().T @ omega.factors)
                )
                target = scale * grassmann_angle(v, w).cosine
                assert abs(lhs**2 - target**2) <= 1e-8 * max(1.0, scale**2)
            target = scale * grassmann_angle(v, w).cosine
            assert abs(contract(nu, omega).norm() ** 2 - target**2) <= 1e-8 * max(1.0, scale**2)
            comp = complementary_angle(v, w)
            assert abs(blade_norm(wedge(nu, omega)) ** 2 - (scale * comp.cosine) ** 2) <= 1e-8 * max(
                1.0, scale**2
            )
            if comp.cosine > 1e-3:  # away from zero the plain norms are sharp too
                assert abs(blade_norm(wedge(nu, omega)) - scale * comp.cosine) <= 1e-8 * max(1.0, scale)

    @pytest.mark.parametrize("field", FIELDS)
    def test_vector_and_volume_contraction(self, field):
        rng = rng_from_seed(17)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            q = int(rng.integers(1, n + 1))
            w = random_subspace(rng, field, n, q)
            # line case: |P v| = |v| cos
            line_vec = random_matrix(rng, field, n, 1)[:, 0]
            line = Subspace.from_spanning([line_vec], field=field)
            from grassmann_angles import project

            lhs = np.linalg.norm(project(line_vec, w))
            rhs = np.linalg.norm(line_vec) * grassmann_angle(line, w).cosine
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(line_vec))
            # parallelotope case, in squared volumes (sharp at the endpoint)
            p = int(rng.integers(1, n + 1))
            nu = random_blade(rng, field, n, p)
            v = Subspace.from_spanning(nu.factors, field=field)
            from grassmann_angles import project_blade

            lhs_b = blade_norm(project_blade(nu, w)) ** 2
            rhs_b = (blade_norm(nu) * grassmann_angle(v, w).cosine) ** 2
            assert abs(lhs_b - rhs_b) <= 1e-9 * max(1.0, blade_norm(nu) ** 2)


class TestConsistencyGuards:
    def test_far_negative_cos_sq_raises(self):
        with pytest.raises(NumericalConsistencyError):
            _report_from_cos_sq(-1e-6, AngleMethod.PROJECTION)

    def test_round_off_negative_cos_sq_clamps(self):
        report = _report_from_cos_sq(-1e-12, AngleMethod.PROJECTION)
        assert report.cosine == 0.0 and report.value == pytest.approx(math.pi / 2)

    def test_above_one_clamps(self):
        report = _report_from_cos_sq(1.0 + 1e-12, AngleMethod.PROJECTION)
        assert report.cosine == 1.0 and report.value == 0.0

    @pytest.mark.parametrize("scale", [16.0, 256.0, 2.0**-30, 2.0**30, 2.0**-200, 2.0**200])
    def test_intersecting_complex_pairs_stay_real_on_any_scale(self, scale):
        # a 2- and a 3-dimensional subspace of C^4 share a line, so the Schur
        # complement is singular and its determinant is rounding noise whose
        # imaginary part is as large as its real one: only its size relative
        # to the bases tells noise from a fault
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            w = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            for a, b in ((v, w * scale), (w * scale, v), (v * scale, w)):
                assert complementary_angle_formula(a, b).cos_squared <= 1e-12

    def test_an_imaginary_part_far_above_the_bound_raises(self):
        gram = np.diag([4.0, 0.25, 2.0]).astype(complex)  # Hadamard bound 2
        assert _real_scalar(2.0 + 1e-10j, gram, "det") == 2.0
        with pytest.raises(NumericalConsistencyError, match="imaginary part"):
            _real_scalar(2.0 + 1e-6j, gram, "det")
        with pytest.raises(NumericalConsistencyError):
            _real_scalar(1e-20 + 1e-12j, gram * 2.0**-40, "det")  # the bound scales with the matrix


class TestNonFiniteAndExtremeInput:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_entry_point_rejects_non_finite_entries(self, bad):
        bv = np.array([[1.0, bad, 0.0], [0.0, 1.0, 1.0]]).T
        bw = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T
        calls = [
            lambda: grassmann_angle_any_dim(bv, bw),
            lambda: grassmann_angle_equal_dim(bv, bw),
            lambda: complementary_angle_formula(bv, bw),
            lambda: Subspace.from_spanning(bv),
            lambda: Subspace(np.array([[bad], [0.0], [0.0]]), Field.REAL),
            lambda: vector_angle(bv[:, 0], bw[:, 0]),
            lambda: blade_norm(Blade(bv)),
            lambda: oriented_grassmann_cos(Blade(bv), Blade(bw)),
            lambda: check_coordinate_pythagorean(Subspace.from_spanning(bw), np.diag([1.0, bad, 1.0])),
            lambda: check_coordinate_pythagorean(Subspace.full(1, Field.REAL), np.array([[bad]])),
        ]
        for call in calls:
            with pytest.raises(GrassmannError):
                call()

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: grassmann_angle_equal_dim(np.zeros((3, 0)), np.eye(3)[:, :1]), DegenerateBasisError, "one vector"),
            (lambda: grassmann_angle_any_dim(LINE_R4, [np.ones(3)]), DimensionMismatchError, "ambient dimensions differ"),
            (lambda: vector_angle(np.ones(3), np.ones(4)), DimensionMismatchError, "vectors of equal length"),
        ],
        ids=["no-columns", "ambient", "vector-lengths"],
    )
    def test_malformed_bases_are_rejected_by_name(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_empty_basis_is_degenerate_on_every_input_path(self):
        for call in (
            lambda: Subspace.from_spanning([]),
            lambda: grassmann_angle_any_dim([], PLANE_R4),
            lambda: Blade([]),
            lambda: check_coordinate_pythagorean(Subspace.from_spanning(LINE_R4), []),
        ):
            with pytest.raises(DegenerateBasisError):
                call()
        assert Blade([], ambient_dim=3).grade == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_determinants_of_wide_ill_scaled_bases_stay_in_range(self):
        # cond 5e5 each, inside the accepted 1e6, yet det G = prod s_i^2 is
        # about 2^-568: the singular values, not the largest one, set the scale
        v = np.diag([1.0] + [2e-6] * 15)
        w = random_unitary(rng_from_seed(16), Field.REAL, 16) @ v
        span_v, span_w = Subspace.from_spanning(v), Subspace.from_spanning(w)
        for route, oracle in (
            (grassmann_angle_equal_dim, grassmann_angle),
            (grassmann_angle_any_dim, grassmann_angle),
            (complementary_angle_formula, complementary_angle),
        ):
            for a, b, span_a, span_b in ((v, w, span_v, span_w), (w, v, span_w, span_v)):
                assert abs(route(a, b).cosine - oracle(span_a, span_b).cosine) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("exponent", [600, -600, 1000, -1000])
    def test_bases_scaled_past_the_squares_keep_every_angle(self, field, exponent):
        rng = rng_from_seed((17, abs(exponent), exponent < 0, FIELDS.index(field)))
        for n, p, q in ((3, 1, 2), (5, 2, 2), (6, 3, 3), (6, 2, 4)):
            bv, bw = random_matrix(rng, field, n, p), random_matrix(rng, field, n, q)
            scaled = bv * 2.0**exponent
            routes = [
                lambda a, b: grassmann_angle(*map(Subspace.from_spanning, (a, b))),
                lambda a, b: grassmann_angle_principal(*map(Subspace.from_spanning, (a, b))),
                lambda a, b: complementary_angle(*map(Subspace.from_spanning, (a, b))),
                lambda a, b: complementary_angle_orthonormal(*map(Subspace.from_spanning, (a, b))),
                grassmann_angle_any_dim,
                complementary_angle_formula,
            ]
            if p == q:
                routes += [grassmann_angle_equal_dim, lambda a, b: oriented_grassmann_cos(Blade(a), Blade(b))]
            for route in routes:
                for order in (slice(None), slice(None, None, -1)):
                    got, expected = route(*(scaled, bw)[order]), route(*(bv, bw)[order])
                    assert abs(getattr(got, "cosine", got) - getattr(expected, "cosine", expected)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        field=st.sampled_from(FIELDS),
        exponents=st.lists(st.integers(-150, 150), min_size=10, max_size=10),
    )
    def test_scaling_the_columns_leaves_every_cosine(self, seed, field, exponents):
        rng = rng_from_seed(seed)
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n))
        q = int(rng.integers(1, n - p + 1))  # p + q <= n keeps complementary cosines off the endpoint 0
        bv = random_subspace(rng, field, n, p).onb @ random_mixing(rng, field, p, cond_limit=10.0)
        bw = random_subspace(rng, field, n, q).onb @ random_mixing(rng, field, q, cond_limit=10.0)
        scales = 10.0 ** np.array(exponents, dtype=float)
        # the spanning routes normalize column by column; the raw-basis
        # routes get one scale per basis, since per-column scales change cond
        span = (Subspace.from_spanning(bv, field=field), Subspace.from_spanning(bw, field=field))
        span_scaled = (
            Subspace.from_spanning(bv * scales[:p], field=field),
            Subspace.from_spanning(bw * scales[5 : 5 + q], field=field),
        )
        for route in (grassmann_angle, grassmann_angle_principal, complementary_angle, complementary_angle_orthonormal):
            assert abs(route(*span_scaled).cosine - route(*span).cosine) <= 1e-12
        raw, raw_scaled = (bv, bw), (bv * scales[0], bw * scales[9])
        routes = [grassmann_angle_any_dim, complementary_angle_formula] + ([grassmann_angle_equal_dim] if p == q else [])
        for route in routes:
            for order in (slice(None), slice(None, None, -1)):
                scaled = route(*raw_scaled[order], field=field).cosine
                assert abs(scaled - route(*raw[order], field=field).cosine) <= 1e-12
        if p == q:
            # a blade moves by a positive factor under column scaling, so its oriented cosine stays
            nu, omega = Blade(bv, field=field), Blade(bw, field=field)
            nu_scaled, omega_scaled = Blade(bv * scales[:p], field=field), Blade(bw * scales[5 : 5 + q], field=field)
            assert abs(oriented_grassmann_cos(nu_scaled, omega_scaled) - oriented_grassmann_cos(nu, omega)) <= 1e-12
