import math

import numpy as np
import pytest

from grassmann_angles import (
    Blade,
    DomainError,
    Partition,
    Subspace,
    check_binomial_identities,
    check_coordinate_pythagorean,
    check_direct_sum,
    check_line_partition,
    check_oriented_sum,
    check_partition_chain,
    check_partition_converse,
    check_weighted_average,
    coordinate_blades,
    grassmann_angle,
    multi_indices,
    oriented_grassmann_cos,
    principal_decomposition,
    random_instance,
    run_suite,
)
from grassmann_angles.fields import Field
from grassmann_angles.identities import _index_stack, _stacked_cos_squared
from grassmann_angles.linalg import gram
from grassmann_angles.sampling import (
    random_blade,
    random_mixing,
    random_orthogonal_basis,
    random_partition,
    random_subspace,
    random_subspace_within,
    rng_from_seed,
    split_subspace,
)
from grassmann_angles.subspaces import _coordinate_subspaces

FIELDS = (Field.REAL, Field.COMPLEX)
XI = complex(-0.5, math.sqrt(3) / 2)


def axes_partition(n, field=Field.REAL):
    eye = np.eye(n, dtype=field.dtype)
    return Partition(tuple(Subspace(eye[:, i : i + 1], field, _validate=False) for i in range(n)))


class TestLinePartition:
    def test_direction_cosines_in_r3(self):
        line = Subspace.from_spanning([[1.0, 2.0, 3.0]])
        out = check_line_partition(line, axes_partition(3))
        assert out.passed and out.residual <= 1e-10

    def test_line_inside_one_part(self):
        parts = random_partition(rng_from_seed(1), Field.REAL, 4, [2, 2])
        line = Subspace(parts.parts[0].onb[:, :1], Field.REAL, _validate=False)
        terms = [grassmann_angle(line, p).cos_squared for p in parts.parts]
        assert terms[0] == pytest.approx(1.0, abs=1e-12)
        assert terms[1] == pytest.approx(0.0, abs=1e-12)
        assert check_line_partition(line, parts).passed

    def test_complex_line_probabilities(self):
        rng = rng_from_seed(2)
        line = random_subspace(rng, Field.COMPLEX, 3, 1)
        parts = random_partition(rng, Field.COMPLEX, 3, [2, 1])
        out = check_line_partition(line, parts)
        assert out.passed and out.residual <= 1e-10
        terms = [grassmann_angle(line, p).cos_squared for p in parts.parts]
        assert all(0.0 <= t <= 1.0 for t in terms)
        assert sum(terms) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_line(self):
        plane = Subspace.from_spanning(np.eye(3)[:, :2])
        with pytest.raises(DomainError):
            check_line_partition(plane, axes_partition(3))

    def test_rejects_partial_partition(self):
        line = Subspace.from_spanning([[1.0, 1.0, 1.0]])
        partial = Partition(tuple(axes_partition(3).parts[:2]))
        with pytest.raises(DomainError):
            check_line_partition(line, partial)


class TestCoordinatePythagorean:
    def test_plane_against_coordinate_planes(self):
        v = Subspace.from_spanning([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        out = check_coordinate_pythagorean(v, np.eye(3))
        assert out.passed and out.residual <= 1e-10

    def test_unitary_phase_basis(self):
        # basis columns carry complex phases; each coordinate plane takes an
        # equal third of the squared cosine mass for this subspace
        basis = np.diag([1.0, XI, XI**2]).astype(complex)
        v = Subspace.from_spanning([[1, -XI, 0], [0, XI, -(XI**2)]], field=Field.COMPLEX)
        out = check_coordinate_pythagorean(v, basis)
        assert out.passed and out.residual <= 1e-10

    def test_subspace_equal_to_coordinate_subspace(self):
        v = Subspace.from_spanning(np.eye(4)[:, 1:3])
        out = check_coordinate_pythagorean(v, np.eye(4))
        assert out.passed

    def test_scaled_orthogonal_basis_accepted(self):
        rng = rng_from_seed(3)
        v = random_subspace(rng, Field.REAL, 4, 2)
        basis = np.eye(4) * np.array([0.5, 2.0, 3.0, 0.25])
        assert check_coordinate_pythagorean(v, basis).passed

    def test_non_orthogonal_basis_rejected(self):
        v = Subspace.from_spanning([[1.0, 0.0, 0.0]])
        skew = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DomainError):
            check_coordinate_pythagorean(v, skew)


class TestBinomialIdentities:
    def test_line_against_planes_sums_to_two(self):
        line = Subspace.from_spanning([[1.0, 2.0, 3.0]])
        out = check_binomial_identities(line, np.eye(3), 2)
        assert out.passed and "target 2" in out.witness

    def test_plane_against_axes_sums_to_two(self):
        plane = Subspace.from_spanning([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        out = check_binomial_identities(plane, np.eye(3), 1)
        assert out.passed and "target 2" in out.witness

    def test_equal_dimensions_reduce_to_pythagorean(self):
        rng = rng_from_seed(4)
        v = random_subspace(rng, Field.COMPLEX, 4, 2)
        basis = random_orthogonal_basis(rng, Field.COMPLEX, 4)
        binom = check_binomial_identities(v, basis, 2)
        pythag = check_coordinate_pythagorean(v, basis)
        assert binom.passed and pythag.passed
        assert "target 1" in binom.witness

    @pytest.mark.parametrize("q", [0, 4])
    def test_degenerate_coordinate_dimensions(self, q):
        rng = rng_from_seed(5)
        v = random_subspace(rng, Field.REAL, 4, 2)
        assert check_binomial_identities(v, np.eye(4), q).passed


class TestOrientedSum:
    def test_oriented_lines_in_r3(self):
        a = np.array([1.0, 2.0, 2.0])
        b = np.array([-2.0, 1.0, 0.0])
        nu, omega = Blade([a]), Blade([b])
        out = check_oriented_sum(nu, omega, np.eye(3))
        assert out.passed
        # the classic component form of the same identity
        lhs = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        rhs = sum(
            (a[i] / np.linalg.norm(a)) * (b[i] / np.linalg.norm(b)) for i in range(3)
        )
        assert lhs == pytest.approx(rhs)

    def test_coordinate_blade_against_itself(self):
        nu = Blade(np.eye(4)[:, :2])
        out = check_oriented_sum(nu, nu, np.eye(4))
        assert out.passed and out.residual <= 1e-12

    def test_random_complex_planes(self):
        rng = rng_from_seed(6)
        from grassmann_angles.sampling import random_blade

        nu = random_blade(rng, Field.COMPLEX, 4, 2)
        omega = random_blade(rng, Field.COMPLEX, 4, 2)
        out = check_oriented_sum(nu, omega, random_orthogonal_basis(rng, Field.COMPLEX, 4))
        assert out.passed and out.residual <= 1e-9

    def test_grade_mismatch_rejected(self):
        with pytest.raises(DomainError):
            check_oriented_sum(Blade(np.eye(3)[:, :1]), Blade(np.eye(3)[:, :2]), np.eye(3))


class TestWeightedAverage:
    def test_planes_in_r3_closed_form(self):
        # V = xy-plane, W = V rotated around the x-axis; U a line in V at
        # angle alpha to the shared axis: cos^2(U, W) = cos^2 a + sin^2 a cos^2 t
        theta, alpha = 0.7, 0.4
        v = Subspace.from_spanning(np.eye(3)[:, :2])
        w = Subspace.from_spanning([[1.0, 0.0, 0.0], [0.0, math.cos(theta), math.sin(theta)]])
        u = Subspace.from_spanning([[math.cos(alpha), math.sin(alpha), 0.0]])
        out = check_weighted_average(u, v, w)
        assert out.passed and out.residual <= 1e-10
        expected = math.cos(alpha) ** 2 + math.sin(alpha) ** 2 * math.cos(theta) ** 2
        assert grassmann_angle(u, w).cos_squared == pytest.approx(expected, abs=1e-12)

    def test_principal_line_collapses_to_single_term(self):
        rng = rng_from_seed(7)
        v = random_subspace(rng, Field.REAL, 4, 2)
        w = random_subspace(rng, Field.REAL, 4, 2)
        pd = principal_decomposition(v, w)
        u = Subspace(pd.e_basis[:, :1], Field.REAL, _validate=False)
        out = check_weighted_average(u, v, w)
        assert out.passed
        assert grassmann_angle(u, w).cos_squared == pytest.approx(
            math.cos(pd.angles[0]) ** 2, abs=1e-10
        )

    def test_random_complex_instance(self):
        rng = rng_from_seed(8)
        v = random_subspace(rng, Field.COMPLEX, 4, 3)
        u = random_subspace_within(rng, v, 2)
        w = random_subspace(rng, Field.COMPLEX, 4, 2)
        out = check_weighted_average(u, v, w)
        assert out.passed and out.residual <= 1e-8

    def test_requires_containment(self):
        rng = rng_from_seed(9)
        v = random_subspace(rng, Field.REAL, 4, 2)
        u = random_subspace(rng, Field.REAL, 4, 1)
        w = random_subspace(rng, Field.REAL, 4, 2)
        with pytest.raises(DomainError):
            check_weighted_average(u, v, w)


class TestDirectSum:
    def test_part_orthogonal_to_w_kills_both_sides(self):
        v1 = Subspace.from_spanning(np.eye(4)[:, :1])
        v2 = Subspace.from_spanning(np.eye(4)[:, 1:2])
        w = Subspace.from_spanning(np.eye(4)[:, 2:4])  # v1, v2 both orthogonal to w
        out = check_direct_sum(v1, v2, w)
        assert out.passed and out.residual <= 1e-12

    def test_principal_partition_recovers_plain_product(self):
        rng = rng_from_seed(10)
        v = random_subspace(rng, Field.REAL, 5, 3)
        w = random_subspace(rng, Field.REAL, 5, 3)
        e = principal_decomposition(v, w).e_basis
        v1 = Subspace(e[:, :1], Field.REAL, _validate=False)
        v2 = Subspace(e[:, 1:], Field.REAL, _validate=False)
        out = check_direct_sum(v1, v2, w)
        assert out.passed
        product = grassmann_angle(v1, w).cosine * grassmann_angle(v2, w).cosine
        assert grassmann_angle(v, w).cosine == pytest.approx(product, abs=1e-10)

    def test_random_complex_pair(self):
        rng = rng_from_seed(11)
        parent = random_subspace(rng, Field.COMPLEX, 4, 3)
        v1, v2 = split_subspace(rng, parent, [1, 2]).parts
        w = random_subspace(rng, Field.COMPLEX, 4, 2)
        out = check_direct_sum(v1, v2, w)
        assert out.passed and out.residual <= 1e-8

    def test_non_orthogonal_parts_rejected(self):
        a = Subspace.from_spanning([[1.0, 0.0, 0.0]])
        b = Subspace.from_spanning([[1.0, 1.0, 0.0]])
        w = Subspace.from_spanning([[0.0, 0.0, 1.0]])
        with pytest.raises(DomainError):
            check_direct_sum(a, b, w)


class TestPartitionChain:
    @pytest.mark.parametrize("field", FIELDS)
    def test_multiway_partitions(self, field):
        rng = rng_from_seed(12)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(2, n + 1))
            k = int(rng.integers(2, p + 1))
            dims = [1] * (k - 1) + [p - k + 1]
            partition = split_subspace(rng, random_subspace(rng, field, n, p), dims)
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            out = check_partition_chain(partition, w)
            assert out.passed, out.witness


class TestPartitionConverse:
    def _pair(self, rng, field):
        while True:
            v = random_subspace(rng, field, 5, 3)
            w = random_subspace(rng, field, 5, 4)
            cos = np.linalg.svd(gram(w.onb, v.onb), compute_uv=False)
            if cos[-1] > 0.3 and cos[0] - cos[-1] > 0.15:
                return v, w

    @pytest.mark.parametrize("field", FIELDS)
    def test_principal_grouping_passes(self, field):
        rng = rng_from_seed(13)
        v, w = self._pair(rng, field)
        e = principal_decomposition(v, w).e_basis
        parts = (
            Subspace(e[:, :1], field, _validate=False),
            Subspace(e[:, 1:], field, _validate=False),
        )
        out = check_partition_converse(Partition(parts), w)
        assert out.passed and "principal partition" in out.witness

    @pytest.mark.parametrize("field", FIELDS)
    def test_mixed_partition_fails_both_sides(self, field):
        rng = rng_from_seed(14)
        v, w = self._pair(rng, field)
        e = principal_decomposition(v, w).e_basis
        g1 = (e[:, 0] + e[:, 2]) / math.sqrt(2)
        g2 = (e[:, 0] - e[:, 2]) / math.sqrt(2)
        parts = (
            Subspace(g1[:, None], field, _validate=False),
            Subspace(g2[:, None], field, _validate=False),
            Subspace(e[:, 1:2], field, _validate=False),
        )
        out = check_partition_converse(Partition(parts), w)
        assert out.passed and "as it should be" in out.witness

    def test_trivial_partition_passes(self):
        rng = rng_from_seed(15)
        v, w = self._pair(rng, Field.REAL)
        out = check_partition_converse(Partition((v,)), w)
        assert out.passed

    def test_partial_orthogonality_reported_not_raised(self):
        v = Subspace.from_spanning(np.eye(4)[:, :2])
        w = Subspace.from_spanning(np.eye(4)[:, 2:3])  # dim v > dim w forces it
        out = check_partition_converse(Partition((v,)), w)
        assert not out.passed and math.isinf(out.residual)
        assert "precondition" in out.witness


# Per-term references for the stacked checkers: one scalar route call per
# coordinate subspace, as the checkers evaluated their sums before stacking.


def loop_binomial_residual(v, mat, q):
    n, p = v.ambient_dim, v.dim
    parts = _coordinate_subspaces(mat, q, v.field)
    if p <= q:
        return abs(sum(grassmann_angle(v, x).cos_squared for x in parts) - math.comb(n - p, n - q))
    return abs(sum(grassmann_angle(x, v).cos_squared for x in parts) - math.comb(p, q))


def loop_oriented_residual(nu, omega, mat):
    lhs = oriented_grassmann_cos(nu, omega)
    pairs = [(oriented_grassmann_cos(nu, x), oriented_grassmann_cos(omega, x)) for _, x in coordinate_blades(mat, nu.grade)]
    rhs = sum(cv * np.conjugate(cw) for cv, cw in pairs)
    bound = sum(abs(cv) * abs(cw) for cv, cw in pairs)
    return max(abs(lhs - rhs), max(abs(lhs) - bound, 0.0))


def loop_weighted_residual(u, v, w):
    e_basis = principal_decomposition(v, w).e_basis
    total = weight_sum = 0.0
    for index in multi_indices(u.dim, v.dim):
        v_i = Subspace(e_basis[:, index.zero_based()], v.field, _validate=False)
        weight = grassmann_angle(u, v_i).cos_squared
        total += weight * grassmann_angle(v_i, w).cos_squared
        weight_sum += weight
    return max(abs(grassmann_angle(u, w).cos_squared - total), abs(weight_sum - 1.0))


class TestStackedCoordinateSums:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("field", FIELDS)
    def test_checkers_match_the_per_term_routes(self, field, n):
        rng = rng_from_seed((41, n, FIELDS.index(field)))
        mat = random_orthogonal_basis(rng, field, n)
        for p in range(n + 1):  # p = 0, p > q, q = 0 and q = n all occur
            v = random_subspace(rng, field, n, p)
            for q in range(n + 1):
                stacked = check_binomial_identities(v, mat, q).residual
                assert abs(stacked - loop_binomial_residual(v, mat, q)) <= 1e-13
            if p == 0:
                continue
            stacked = check_coordinate_pythagorean(v, mat).residual
            assert abs(stacked - loop_binomial_residual(v, mat, p)) <= 1e-13
            nu, omega = random_blade(rng, field, n, p), random_blade(rng, field, n, p)
            assert abs(check_oriented_sum(nu, omega, mat).residual - loop_oriented_residual(nu, omega, mat)) <= 1e-13
            for r in range(1, p + 1):  # r = p included
                u = random_subspace_within(rng, v, r)
                w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
                assert abs(check_weighted_average(u, v, w).residual - loop_weighted_residual(u, v, w)) <= 1e-13

    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_terms_match_grassmann_angle(self, field):
        rng = rng_from_seed(42)
        n = 5
        mat = random_orthogonal_basis(rng, field, n)
        units = mat / np.linalg.norm(mat, axis=0)
        for p in range(n + 1):
            v = random_subspace(rng, field, n, p)
            for q in range(n + 1):
                parts = _coordinate_subspaces(mat, q, field)
                blocks = gram(units, v.onb)[_index_stack(n, q)]
                expected = [grassmann_angle(v, x).cos_squared for x in parts]
                assert np.allclose(_stacked_cos_squared(blocks), expected, rtol=0.0, atol=1e-13)
                expected = [grassmann_angle(x, v).cos_squared for x in parts]
                assert np.allclose(_stacked_cos_squared(np.swapaxes(blocks, 1, 2).conj()), expected, rtol=0.0, atol=1e-13)

    def test_kernel_conventions(self):
        assert _stacked_cos_squared(np.zeros((3, 2, 0))).tolist() == [1.0, 1.0, 1.0]  # p = 0
        assert _stacked_cos_squared(np.ones((2, 1, 2))).tolist() == [0.0, 0.0]  # p > q
        assert _stacked_cos_squared(np.zeros((1, 0, 0), dtype=complex)).tolist() == [1.0]  # p = q = 0

    def test_index_stack_follows_multi_indices(self):
        for n in range(9):
            for p in range(n + 2):
                stack = _index_stack(n, p)
                assert stack.dtype == np.intp and stack.shape == (math.comb(n, p), p)
                assert stack.tolist() == [index.zero_based() for index in multi_indices(p, n)]


class TestRandomInstance:
    def test_reproducible(self):
        a = random_instance(Field.REAL, 5, [2, 3], seed=99)
        b = random_instance(Field.REAL, 5, [2, 3], seed=99)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.onb, y.onb)

    def test_complex_instances_have_imaginary_parts(self):
        (s,) = random_instance(Field.COMPLEX, 4, [2], seed=0)
        assert np.max(np.abs(s.onb.imag)) > 1e-3

    def test_infeasible_dims_rejected(self):
        with pytest.raises(DomainError):
            random_instance(Field.REAL, 3, [4], seed=0)

    def test_unmeetable_rejection_loop_gives_up(self):
        # no 2 x 2 Gaussian draw has condition number exactly 1
        with pytest.raises(DomainError):
            random_mixing(rng_from_seed(0), Field.REAL, 2, cond_limit=1.0)


class TestRunSuite:
    def test_deterministic_under_seed(self):
        a = run_suite("pythagorean", field=Field.COMPLEX, n_max=4, trials=5, seed=7)
        b = run_suite("pythagorean", field=Field.COMPLEX, n_max=4, trials=5, seed=7)
        assert [(c.name, c.residual) for c in a] == [(c.name, c.residual) for c in b]

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite("no-such-suite", trials=1)

    def test_smoke_all_suites_both_fields(self):
        checks = run_suite("all", field=None, n_max=5, trials=8, seed=2)
        assert len(checks) == 8 * 8 * 2
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_thousand_instances_all_pass(self):
        checks = run_suite("all", field=None, n_max=6, trials=63, seed=31)
        assert len(checks) == 8 * 63 * 2  # just over a thousand configurations
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_binomial_suite_hits_both_branches(self):
        checks = run_suite("binomial", field=Field.REAL, n_max=5, trials=60, seed=3)
        assert any("target 1" in c.witness for c in checks)
        targets = {c.witness.split("target ")[1] for c in checks}
        assert len(targets) > 2  # several distinct binomial targets exercised
