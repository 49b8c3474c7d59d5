import math
import re

import numpy as np
import pytest
from generators import random_partition, random_subspace_within, split_subspace

from grassmann_angles import (
    Blade,
    DimensionMismatchError,
    DomainError,
    MultiIndexError,
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
    complementary_angle,
    coordinate_blades,
    direct_sum,
    grassmann_angle,
    is_principal_partition,
    multi_indices,
    oriented_grassmann_cos,
    principal_decomposition,
    project_subspace,
    random_instance,
    run_suite,
)
from grassmann_angles import identities, sampling, subspaces
from grassmann_angles.fields import DEFAULT_TOLERANCE, Field, Tolerance
from grassmann_angles.gallery import load_case_document, run_gallery
from grassmann_angles.identities import _coordinate_cos_squared, _index_stack, _stacked_cos_squared
from grassmann_angles.linalg import gram
from grassmann_angles.sampling import (
    random_blade,
    random_matrix,
    random_mixing,
    random_orthogonal_basis,
    random_subspace,
    random_unitary,
    rng_from_seed,
)

FIELDS = (Field.REAL, Field.COMPLEX)
REAL = Field.REAL
FULL_R3 = Subspace.full(3, REAL)
LOOSE = Tolerance(residual_eps=0.5)
XI = complex(-0.5, math.sqrt(3) / 2)


def _coordinate_subspaces(basis: np.ndarray, p: int, field: Field) -> list[Subspace]:
    """Spans of the p-subsets of the columns of an orthogonal basis, in lexicographic order."""
    blocks = [basis[:, index.zero_based()] for index in multi_indices(p, basis.shape[1])]
    return [Subspace(b / np.linalg.norm(b, axis=0), field, _validate=False) for b in blocks]


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


@pytest.mark.parametrize(
    "check, match",
    [
        (lambda: check_coordinate_pythagorean(FULL_R3, np.diag([1.0, 0.0, 1.0])), "basis vectors must be nonzero"),
        (lambda: check_coordinate_pythagorean(Subspace.zero(3, REAL), np.eye(3)), "the subspace must be nonzero"),
        (lambda: check_weighted_average(Subspace.zero(3, REAL), FULL_R3, FULL_R3), "all three subspaces must be nonzero"),
        (lambda: check_weighted_average(FULL_R3, FULL_R3, Subspace.zero(3, REAL)), "all three subspaces must be nonzero"),
        (lambda: check_partition_converse(Partition((Subspace.zero(3, REAL),)), FULL_R3), "need nonzero subspaces"),
        (lambda: check_partition_converse(axes_partition(3), Subspace.zero(3, REAL)), "need nonzero subspaces"),
    ],
    ids=["zero-basis-vector", "pythagorean", "weighted-u", "weighted-w", "converse-parent", "converse-w"],
)
def test_zero_inputs_are_rejected_by_name(check, match):
    with pytest.raises(DomainError, match=match):
        check()


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
        for field in FIELDS:  # one sum: the residuals agree bit for bit
            for _ in range(20):
                n = int(rng.integers(1, 7))
                p = int(rng.integers(1, n + 1))
                v = random_subspace(rng, field, n, p)
                basis = random_orthogonal_basis(rng, field, n)
                assert check_coordinate_pythagorean(v, basis).residual == check_binomial_identities(v, basis, p).residual

    @pytest.mark.parametrize("q", [0, 4])
    def test_degenerate_coordinate_dimensions(self, q):
        rng = rng_from_seed(5)
        v = random_subspace(rng, Field.REAL, 4, 2)
        assert check_binomial_identities(v, np.eye(4), q).passed


class TestAmbientCap:
    """Coordinate enumerations stop at the ambient cap of 16, as blades do."""

    @staticmethod
    def _subspace(n, p, field=Field.REAL):
        return random_subspace(rng_from_seed(n), field, n, p)

    def test_coordinate_sums_reject_dimension_17(self):
        v = self._subspace(17, 1)
        with pytest.raises(DomainError, match="ambient dimension 17 exceeds the cap of 16"):
            check_coordinate_pythagorean(v, np.eye(17))
        with pytest.raises(DomainError, match="ambient dimension 17 exceeds the cap of 16"):
            check_binomial_identities(v, np.eye(17), 1)

    def test_coordinate_sums_accept_dimension_16(self):
        v = self._subspace(16, 8)
        out = check_coordinate_pythagorean(v, np.eye(16))
        assert out.passed and "C(16,8)" in out.witness
        assert check_binomial_identities(v, np.eye(16), 8).residual == out.residual

    def test_weighted_average_rejects_dimension_17(self):
        v = self._subspace(17, 2)
        u = Subspace(v.onb[:, :1], Field.REAL)
        with pytest.raises(DomainError, match="ambient dimension 17 exceeds the cap of 16"):
            check_weighted_average(u, v, self._subspace(17, 1))

    def test_weighted_average_accepts_dimension_16(self):
        v = self._subspace(16, 4)
        u = Subspace(v.onb[:, :2], Field.REAL)
        assert check_weighted_average(u, v, self._subspace(16, 3)).passed


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

    def test_zero_blade_rejected(self):
        plane = Blade(np.eye(3)[:, :2])
        for zero in (Blade(np.eye(3)[:, [0, 0]]), Blade(np.eye(3)[:, :2], coefficient=0.0)):
            for pair in ((zero, plane), (plane, zero)):
                with pytest.raises(DomainError, match="zero blades"):
                    check_oriented_sum(*pair, np.eye(3))


@pytest.mark.parametrize("shape", [(4, 3), (5, 5)])
@pytest.mark.parametrize(
    "checker",
    [
        lambda basis: check_coordinate_pythagorean(Subspace.from_spanning(np.eye(4)[:, :2]), basis),
        lambda basis: check_binomial_identities(Subspace.from_spanning(np.eye(4)[:, :2]), basis, 1),
        lambda basis: check_oriented_sum(Blade(np.eye(4)[:, :2]), Blade(np.eye(4)[:, 1:3]), basis),
    ],
    ids=["pythagorean", "binomial", "oriented-sum"],
)
def test_coordinate_sums_need_a_full_basis_of_the_space(checker, shape):
    # orthogonal columns, but n x (n - 1) or (n + 1) x (n + 1) in R^4
    with pytest.raises(DimensionMismatchError, match=re.escape(f"need 4 basis vectors of dimension 4, got shape {shape}")):
        checker(np.eye(*shape))


class TestExtremeScaleBases:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("scale", [1e150, 1e-160, 1e200, 1e-200, 1e300, 1e-300])
    def test_coordinate_sums_hold_on_any_scale(self, scale, field):
        # squared entries of these bases over- or underflow, so they are
        # normalized after an exact power-of-two rescale, never by their squares
        rng = rng_from_seed(7)
        for _ in range(20):
            p, q = int(rng.integers(1, 6)), int(rng.integers(0, 6))
            basis = random_orthogonal_basis(rng, field, 5) * scale
            v = random_subspace(rng, field, 5, p)
            nu, omega = random_blade(rng, field, 5, p), random_blade(rng, field, 5, p)
            checks = (
                check_coordinate_pythagorean(v, basis),
                check_binomial_identities(v, basis, q),
                check_oriented_sum(nu, omega, basis),
            )
            for check in checks:
                assert check.passed and check.residual <= 1e-13, check


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

    @pytest.mark.parametrize("n, field", [(5, Field.REAL), (4, Field.COMPLEX)])
    def test_requires_the_same_space(self, n, field):
        # a u of another ambient dimension or field is a mismatch, not numpy's
        # matmul ValueError or a subspace that is "not contained"
        rng = rng_from_seed(10)
        v = random_subspace(rng, Field.REAL, 4, 2)
        w = random_subspace(rng, Field.REAL, 4, 2)
        with pytest.raises(DimensionMismatchError):
            check_weighted_average(random_subspace(rng, field, n, 1), v, w)


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

    @pytest.mark.parametrize("field", FIELDS)
    def test_direct_sum_is_the_two_part_chain(self, field):
        rng = rng_from_seed(42)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            d1 = int(rng.integers(1, n))
            d2 = int(rng.integers(1, n - d1 + 1))
            v1, v2 = split_subspace(rng, random_subspace(rng, field, n, d1 + d2), [d1, d2]).parts
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            pair = check_direct_sum(v1, v2, w).residual
            assert pair == check_partition_chain(Partition((v1, v2)), w).residual

    @pytest.mark.parametrize("suite", ["direct-sum", "partition-chain"])
    def test_suite_builds_no_partition(self, suite, monkeypatch):
        # the trials hand the chain kernel a column matrix and its widths: no Partition and no
        # direct_sum, while they keep direct_sum's orthogonality rule (test_suite_rejects_a_skewed_mix)
        built = []
        build, post_init = subspaces.direct_sum, Partition.__post_init__
        monkeypatch.setattr(subspaces, "direct_sum", lambda *parts: built.append(parts) or build(*parts))
        monkeypatch.setattr(Partition, "__post_init__", lambda self: built.append(self) or post_init(self))
        checks = run_suite(suite, trials=20)
        assert len(checks) == 40 and not built
        # the suite rows carry the chain's witness: one implementation
        assert all(c.passed and c.witness.startswith("parts [") for c in checks)
        Partition((FULL_R3,))  # the counters see a Partition and its direct_sum
        assert len(built) == 2


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

    @pytest.mark.parametrize("field", FIELDS)
    def test_tails_match_public_direct_sums(self, field):
        # the checker reads each tail V_i+1 + ... + V_k off the partition's
        # stored direct sum; the chain built from public direct_sum tails
        # must give the same residual, bit for bit
        rng = rng_from_seed(43)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(2, 6))
            dims = rng.multinomial(int(rng.integers(1, n + 1)), np.ones(k) / k).tolist()
            partition = split_subspace(rng, random_subspace(rng, field, n, sum(dims)), dims)
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            parts = partition.parts
            rhs = math.prod(grassmann_angle(part, w).cosine for part in parts)
            for i in range(k - 1):
                tail = direct_sum(*parts[i + 1 :])
                rhs *= complementary_angle(project_subspace(parts[i], w), project_subspace(tail, w)).cosine
            expected = abs(grassmann_angle(direct_sum(*parts), w).cosine - rhs)
            assert check_partition_chain(partition, w).residual == expected

    @pytest.mark.parametrize("suite", ["direct-sum", "partition-chain"])
    def test_suite_rejects_a_skewed_mix(self, suite, monkeypatch):
        # a mix that is not unitary splits the parent into parts that are not orthogonal,
        # which the trial rejects by direct_sum's rule before the kernel trusts them
        haar = identities._haar

        def skewed(draws):
            qv, mix, qw = haar(draws)
            return qv, mix + 0.1 * np.eye(len(mix), k=1), qw

        monkeypatch.setattr(identities, "_haar", skewed)
        with pytest.raises(DomainError, match=r"^parts are not pairwise orthogonal \(defect "):
            run_suite(suite, field=REAL, trials=1)

    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_input_meets_the_public_checkers_precondition(self, field, chain_draws):
        # each column matrix the trials hand the kernel is one direct_sum accepts, and the
        # kernel's result is the public checker's on the partition into its blocks
        assert len(chain_draws[field]) == 400
        for columns, dims, w, tol, out in chain_draws[field]:
            assert subspaces._orthonormality_defect(columns) <= subspaces.ORTHOGONALITY_DEFECT
            assert out == check_partition_chain(sampling._parts(columns, field, dims), w, tol)

    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_matches_the_public_routes(self, field, chain_draws):
        # the chain from one public route call per cosine, on Subspace objects, bit for bit
        for columns, dims, w, tol, out in chain_draws[field]:
            parts = sampling._parts(columns, field, dims).parts
            rhs = math.prod(grassmann_angle(part, w).cosine for part in parts)
            for i in range(len(parts) - 1):
                tail = direct_sum(*parts[i + 1 :])
                rhs *= complementary_angle(project_subspace(parts[i], w, tol), project_subspace(tail, w, tol)).cosine
            assert out.residual == abs(grassmann_angle(direct_sum(*parts), w).cosine - rhs)


@pytest.fixture(scope="module")
def chain_draws():
    """Per field, each (columns, dims, w, tol, result) the direct-sum and partition-chain trials
    hand their kernel, over seeds 0-3 at n_max=8 and 50 trials each."""
    draws = {field: [] for field in FIELDS}
    kernel = identities._chain

    def record(columns, dims, w, tol):
        out = kernel(columns, dims, w, tol)
        draws[w.field].append((columns, dims, w, tol, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_chain", record)
        for seed in range(4):
            run_suite(["direct-sum", "partition-chain"], n_max=8, trials=50, seed=seed)
    return draws


@pytest.fixture(scope="module")
def converse_draws():
    """Per field, each (columns, dims, w, tol, result) the converse trials hand their kernel,
    over seeds 0-3 at n_max=8 and 50 trials each."""
    draws = {field: [] for field in FIELDS}
    kernel = identities._converse

    def record(columns, dims, w, tol):
        out = kernel(columns, dims, w, tol)
        draws[w.field].append((columns, dims, w, tol, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_converse", record)
        for seed in range(4):
            run_suite("converse", n_max=8, trials=50, seed=seed)
    return draws


class TestPartitionConverse:
    def _pair(self, rng, field):
        while True:
            v = random_subspace(rng, field, 5, 3)
            w = random_subspace(rng, field, 5, 4)
            cos = np.linalg.svd(gram(w.onb, v.onb), compute_uv=False)
            if cos[-1] > 0.3 and cos[0] - cos[-1] > 0.15:
                return v, w

    @pytest.mark.parametrize("tol", [DEFAULT_TOLERANCE, LOOSE])
    @pytest.mark.parametrize("field", FIELDS)
    def test_principal_grouping_passes(self, field, tol):
        rng = rng_from_seed(13)
        v, w = self._pair(rng, field)
        e = principal_decomposition(v, w).e_basis
        parts = (
            Subspace(e[:, :1], field, _validate=False),
            Subspace(e[:, 1:], field, _validate=False),
        )
        out = check_partition_converse(Partition(parts), w, tol)
        assert out.passed and "principal partition" in out.witness

    def _mixed(self, rng, field, angle):
        """A pair (v, w) and the 3-part partition of v whose extreme principal
        vectors are rotated into each other by ``angle``."""
        v, w = self._pair(rng, field)
        e = principal_decomposition(v, w).e_basis
        g1 = math.cos(angle) * e[:, 0] + math.sin(angle) * e[:, 2]
        g2 = -math.sin(angle) * e[:, 0] + math.cos(angle) * e[:, 2]
        parts = (
            Subspace(g1[:, None], field, _validate=False),
            Subspace(g2[:, None], field, _validate=False),
            Subspace(e[:, 1:2], field, _validate=False),
        )
        return Partition(parts), w

    @pytest.mark.parametrize("tol", [DEFAULT_TOLERANCE, LOOSE])
    @pytest.mark.parametrize("field", FIELDS)
    def test_mixed_partition_fails_both_sides(self, field, tol):
        partition, w = self._mixed(rng_from_seed(14), field, math.pi / 4)
        out = check_partition_converse(partition, w, tol)
        assert out.passed and out.residual == 0.0 and "as it should be" in out.witness

    @pytest.mark.parametrize("residual_eps", [1e-12, 1e-8, 0.5])
    @pytest.mark.parametrize("field", FIELDS)
    def test_product_held_for_a_non_principal_partition_fails_at_every_tolerance(self, field, residual_eps):
        # mixed by 1e-5 rad the partition is not principal, but its product
        # rule misses by ~1e-11, below ORTHOGONALITY_DEFECT: the equivalence
        # is broken whatever the grading tolerance
        partition, w = self._mixed(rng_from_seed(14), field, 1e-5)
        out = check_partition_converse(partition, w, Tolerance(residual_eps=residual_eps))
        assert not out.passed and math.isinf(out.residual)
        assert "NON-principal partition but the product rule held" in out.witness

    def test_principal_partition_takes_no_precondition_svd(self, monkeypatch):
        rng = rng_from_seed(13)
        v, w = self._pair(rng, Field.REAL)
        e = principal_decomposition(v, w).e_basis
        partition = Partition(tuple(Subspace(e[:, i : i + 1], Field.REAL, _validate=False) for i in range(3)))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        out = check_partition_converse(partition, w)
        assert out.passed and "principal partition" in out.witness
        assert len(calls) == len(partition.parts)

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

    @pytest.mark.parametrize("widths", [[2], [1, 1]])
    def test_partial_orthogonality_within_dim_w_reported(self, widths):
        # V = span(e1, e3) meets W = span(e1, e2) only along e1, with dim V <= dim W: the
        # rank cut drops e3's zero projection, whether e3 sits in a part of its own or not
        eye = np.eye(4)
        out = check_partition_converse(sampling._parts(eye[:, [0, 2]], REAL, widths), Subspace(eye[:, :2], REAL))
        assert not out.passed and out.witness == "precondition violated: V is partially orthogonal to W"

    def test_partial_orthogonality_of_a_non_principal_partition_reported(self):
        # V = span(e1, e3) meets W = span(e1, e2) only along e1; both parts
        # (e1 +- e3)/sqrt(2) project onto e1, so the partition is not principal
        eye = np.eye(4)
        w = Subspace(eye[:, :2], Field.REAL, _validate=False)
        parts = tuple(
            Subspace(((eye[:, 0] + sign * eye[:, 2]) / math.sqrt(2))[:, None], Field.REAL, _validate=False)
            for sign in (1.0, -1.0)
        )
        out = check_partition_converse(Partition(parts), w)
        assert not out.passed and math.isinf(out.residual)
        assert out.witness == "precondition violated: V is partially orthogonal to W"

    def test_suite_builds_no_direct_sum(self, monkeypatch):
        # the trial hands the kernel column matrices: no Partition, so no direct_sum check
        calls = []
        build = subspaces.direct_sum
        monkeypatch.setattr(subspaces, "direct_sum", lambda *parts: calls.append(parts) or build(*parts))
        checks = run_suite("converse", trials=20)
        assert len(checks) == 40 and all(c.passed for c in checks) and not calls

    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_input_meets_the_public_checkers_precondition(self, field, converse_draws):
        # each column matrix the trial hands the kernel is one direct_sum accepts, and the
        # kernel's result is the public checker's on the partition into its blocks
        for columns, dims, w, tol, out in converse_draws[field]:
            assert subspaces._orthonormality_defect(columns) <= subspaces.ORTHOGONALITY_DEFECT
            assert sum(dims) == columns.shape[1]
            assert out == check_partition_converse(sampling._parts(columns, field, dims), w, tol)

    @pytest.mark.parametrize("field", FIELDS)
    def test_kernel_agrees_with_the_public_routes(self, field, converse_draws):
        # independent cross-check: the principal test by projections in n dimensions, and
        # the product rule from one grassmann_angle call per part and one for the parent
        assert len(converse_draws[field]) >= 200
        principal_seen = 0
        for columns, dims, w, _, out in converse_draws[field]:
            bounds = np.cumsum([0, *dims])
            parts = [Subspace(columns[:, lo:hi], field) for lo, hi in zip(bounds, bounds[1:])]
            principal = out.witness.split(": ", 1)[1] == "principal partition, product rule"
            assert principal == is_principal_partition(Partition(tuple(parts)), w)
            if principal:
                principal_seen += 1
                product = math.prod(grassmann_angle(part, w).cosine for part in parts)
                expected = abs(grassmann_angle(direct_sum(*parts), w).cosine - product)
                assert abs(out.residual - expected) <= 1e-15
        assert 0 < principal_seen < len(converse_draws[field])

    @pytest.mark.parametrize("residual_eps", [0.1, 0.5])
    def test_loose_grading_passes_the_suite(self, residual_eps):
        checks = run_suite("converse", field=Field.REAL, n_max=3, trials=10, tol=Tolerance(residual_eps=residual_eps))
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]


# References for the converse trial's draw helpers, as they were built: compositions
# on numpy arrays, one principal_decomposition per draw, and a lexsort grouping.


def array_composition(rng, total, allow_zero=True):
    k = int(rng.integers(1, total + 1))
    cuts = np.sort(rng.choice(np.arange(1, total), size=k - 1, replace=False)) if k > 1 else np.array([], int)
    dims = np.diff(np.concatenate([[0], cuts, [total]])).tolist()
    if allow_zero and rng.uniform() < 0.15:
        dims.insert(int(rng.integers(0, len(dims) + 1)), 0)
    return dims


def decomposition_pair(rng, field, n, p):
    for _ in range(sampling.MAX_DRAWS):
        q = int(rng.integers(p, n)) if p < n else p
        qv, qw = sampling._haar([random_matrix(rng, field, n, n) for _ in range(2)])
        w = sampling._span(qw, field, q)
        decomposition = principal_decomposition(sampling._span(qv, field, p), w)
        cosines = decomposition.cosines
        if cosines[-1] >= identities._MIN_COSINE and (p < 2 or q == n or cosines[0] - cosines[-1] >= identities._MIN_GAP):
            return decomposition.e_basis, w
    raise AssertionError("no pair met the margins")


def lexsort_grouping(rng, e_basis):
    p = e_basis.shape[1]
    order = rng.permutation(p)
    dims = array_composition(rng, p, allow_zero=False)
    idx = np.lexsort((order, np.repeat(np.arange(len(dims)), dims)))
    return e_basis[:, order[idx]], dims


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDrawHelpers:
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_composition_matches_the_array_form(self, allow_zero):
        for seed in range(1000):
            for total in range(1, 9):
                new, old = rng_from_seed((seed, total)), rng_from_seed((seed, total))
                dims = identities._random_composition(new, total, allow_zero)
                assert dims == array_composition(old, total, allow_zero)
                assert all(type(d) is int for d in dims)
                assert new.bit_generator.state == old.bit_generator.state

    @pytest.mark.parametrize("field", FIELDS)
    def test_principal_pair_and_grouping_match_the_decomposition_loop(self, field):
        shapes = [(2, 2)] + [(n, p) for n in range(3, 9) for p in range(1, n)]
        for seed in range(1000):
            n, p = shapes[seed % len(shapes)]
            new, old = rng_from_seed(seed), rng_from_seed(seed)
            (e_basis, w), (e_old, w_old) = identities._principal_pair(new, field, n, p), decomposition_pair(old, field, n, p)
            assert same_bits(e_basis, e_old) and same_bits(w.onb, w_old.onb)
            assert new.bit_generator.state == old.bit_generator.state
            (columns, dims), (columns_old, dims_old) = (
                identities._grouped_principal_partition(new, e_basis),
                lexsort_grouping(old, e_old),
            )
            assert same_bits(columns, columns_old) and dims == dims_old
            assert new.bit_generator.state == old.bit_generator.state


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
                pairs = [(v, x) if p <= q else (x, v) for x in parts]
                expected = [grassmann_angle(a, b).cos_squared for a, b in pairs]
                assert np.allclose(_coordinate_cos_squared(units, v.onb, q), expected, rtol=0.0, atol=1e-13)

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
                # multi_indices is read off the stack, so the order is checked against subsets from bitmasks
                subsets = (tuple(i for i in range(n) if mask >> i & 1) for mask in range(2**n))
                assert [tuple(row) for row in stack.tolist()] == sorted(s for s in subsets if len(s) == p)


class TestGalleryCoordinateSums:
    """The 4.x worked examples against one grassmann_angle call per
    coordinate subspace, as the gallery evaluated them before stacking."""

    @staticmethod
    def computed(case_id):
        (result,) = run_gallery(only=case_id)
        return [c.computed for c in result.checks]

    @staticmethod
    def axes_and_planes():
        eye = np.eye(3)
        return _coordinate_subspaces(eye, 1, Field.REAL), _coordinate_subspaces(eye, 2, Field.REAL)

    def test_case_4_2(self):
        line = load_case_document("line_r3.json").subspace("L")
        axes, _ = self.axes_and_planes()
        expected = [sum(grassmann_angle(line, axis).cos_squared for axis in axes)]
        assert np.allclose(self.computed("4.2"), expected, rtol=0.0, atol=1e-14)

    def test_case_4_6(self):
        doc = load_case_document("complex_planes.json")
        v = doc.subspace("V")
        cosines = [grassmann_angle(v, x).cosine for x in _coordinate_subspaces(doc.basis("basis"), 2, doc.field)]
        expected = cosines + [sum(c * c for c in cosines)]
        assert np.allclose(self.computed("4.6"), expected, rtol=0.0, atol=1e-14)

    def test_case_4_8(self):
        line = load_case_document("line_r3.json").subspace("L")
        _, planes = self.axes_and_planes()
        expected = [sum(grassmann_angle(line, plane).cos_squared for plane in planes)]
        assert np.allclose(self.computed("4.8"), expected, rtol=0.0, atol=1e-14)

    def test_case_4_9(self):
        plane = load_case_document("plane_r3.json").subspace("V")
        axes, _ = self.axes_and_planes()
        expected = [sum(grassmann_angle(axis, plane).cos_squared for axis in axes)]
        assert np.allclose(self.computed("4.9"), expected, rtol=0.0, atol=1e-14)


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

    @pytest.mark.parametrize(
        "draw, got",
        [
            pytest.param(lambda rng: random_instance(REAL, 4, [1.9, True], 0), "[4, 1.9, True]", id="random_instance"),
            pytest.param(lambda rng: random_subspace(rng, REAL, 4, 2.5), "[4, 2.5]", id="random_subspace-float"),
            pytest.param(lambda rng: random_subspace(rng, REAL, 4, True), "[4, True]", id="random_subspace-bool"),
            pytest.param(lambda rng: random_subspace(rng, REAL, 4.0, 2), "[4.0, 2]", id="random_subspace-n"),
            pytest.param(lambda rng: random_orthogonal_basis(rng, REAL, True), "[True, True]", id="random_orthogonal_basis"),
            pytest.param(lambda rng: random_blade(rng, REAL, 3, True), "[3, True]", id="random_blade"),
            pytest.param(lambda rng: random_mixing(rng, REAL, 2.0), "[2.0, 2.0]", id="random_mixing"),
            pytest.param(lambda rng: random_unitary(rng, REAL, True), "[True, True]", id="random_unitary"),
        ],
    )
    def test_non_integer_dimensions_rejected(self, draw, got):
        # the run_suite rule: a float or a bool is not a dimension, never truncated
        with pytest.raises(DomainError, match=f"dimensions must be integers, got {re.escape(got)}$"):
            draw(rng_from_seed(0))

    @pytest.mark.parametrize(
        "draw",
        [
            pytest.param(lambda rng: random_mixing(rng, REAL, 0), id="random_mixing-empty"),
            pytest.param(lambda rng: random_mixing(rng, REAL, -1), id="random_mixing-negative"),
            pytest.param(lambda rng: random_matrix(rng, REAL, -1, 2), id="random_matrix-negative"),
        ],
    )
    def test_empty_or_negative_draw_sizes_rejected(self, draw):
        # an empty draw has no condition number, and numpy has no negative size
        with pytest.raises(DomainError, match="sizes of at least 1|must be nonnegative"):
            draw(rng_from_seed(0))

    def test_numpy_integer_dimensions_accepted(self):
        a = random_instance(Field.REAL, np.int64(5), [np.int32(2), np.uint8(3)], seed=99)
        b = random_instance(Field.REAL, 5, [2, 3], seed=99)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.onb, y.onb)

    def test_unmeetable_rejection_loop_gives_up(self, monkeypatch):
        # no 2 x 2 Gaussian draw has condition number exactly 1: the loop runs every draw
        monkeypatch.setattr(sampling, "MAX_DRAWS", 50)
        with pytest.raises(DomainError, match="^no 2 x 2 draw had condition number <= 1.0 in 50 draws$"):
            random_mixing(rng_from_seed(0), Field.REAL, 2, cond_limit=1.0)

    @pytest.mark.parametrize("cond_limit", [math.nan, 0.5])
    def test_unmeetable_condition_limit_rejected_before_drawing(self, cond_limit):
        # no matrix has a condition number below 1: reject at once, not after MAX_DRAWS SVDs
        rng = rng_from_seed(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match=f"^condition number limit must be at least 1, got {cond_limit}$"):
            random_mixing(rng, Field.REAL, 3, cond_limit=cond_limit)
        assert rng.bit_generator.state == state

    def test_blade_draw_gives_up(self, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_DRAWS", 0)
        with pytest.raises(DomainError, match="^no 4 x 2 draw had condition number <= 10.0 in 0 draws$"):
            random_blade(rng_from_seed(0), Field.REAL, 4, 2)

    @pytest.mark.parametrize("dim", [-1, 4])
    def test_subspace_within_too_small_parent_rejected(self, dim):
        with pytest.raises(DomainError, match=f"^cannot fit a {dim}-dimensional subspace in dimension 3$"):
            random_subspace(rng_from_seed(0), REAL, 3, dim)

    @pytest.mark.parametrize("field", FIELDS)
    def test_zero_dimensional_draws(self, field):
        rng = rng_from_seed(0)
        drawn = [
            random_subspace_within(rng, random_subspace(rng, field, 5, 3), 0),
            *split_subspace(rng, Subspace.zero(5, field), [0, 0]).parts,
        ]
        for part in drawn:
            assert part.onb.shape == (5, 0) and part.onb.dtype == field.dtype


V_R4 = Subspace(np.eye(4)[:, :2], REAL)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: check_binomial_identities(V_R4, np.eye(4), 2.0), DomainError, id="binomial-2.0"),
        pytest.param(lambda: check_binomial_identities(V_R4, np.eye(4), 2.5), DomainError, id="binomial-2.5"),
        pytest.param(lambda: check_binomial_identities(V_R4, np.eye(4), True), DomainError, id="binomial-True"),
        pytest.param(lambda: multi_indices(2.0, 4), MultiIndexError, id="multi_indices-2.0"),
        pytest.param(lambda: multi_indices(True, 3), MultiIndexError, id="multi_indices-True"),
        pytest.param(lambda: coordinate_blades(np.eye(4), 2.0), MultiIndexError, id="coordinate_blades-2.0"),
        pytest.param(lambda: coordinate_blades(np.eye(4), True), MultiIndexError, id="coordinate_blades-True"),
        pytest.param(lambda: Subspace.zero(2.0, REAL), DomainError, id="zero-2.0"),
        pytest.param(lambda: Subspace.full(True, REAL), DomainError, id="full-True"),
    ],
)
def test_non_integer_dimension_arguments_rejected(call, error):
    # the fields._is_integer rule of the sampling generators and run_suite: never numpy's TypeError
    with pytest.raises(error, match="integer"):
        call()


def test_numpy_integer_dimension_arguments_accepted():
    assert check_binomial_identities(V_R4, np.eye(4), np.int64(2)).passed
    assert len(multi_indices(np.int32(2), np.int64(4))) == 6
    assert len(coordinate_blades(np.eye(4), np.int8(2)).blades) == 6
    assert Subspace.zero(np.int64(3), REAL).ambient_dim == Subspace.full(np.uint8(3), REAL).dim == 3


class TestRunSuite:
    def test_deterministic_under_seed(self):
        a = run_suite("pythagorean", field=Field.COMPLEX, n_max=4, trials=5, seed=7)
        b = run_suite("pythagorean", field=Field.COMPLEX, n_max=4, trials=5, seed=7)
        assert [(c.name, c.residual) for c in a] == [(c.name, c.residual) for c in b]

    def test_unknown_suite_rejected(self):
        with pytest.raises(DomainError):
            run_suite("no-such-suite", trials=1)

    @pytest.mark.parametrize("suites", [[], ()])
    def test_empty_selection_rejected_before_any_trial(self, suites, monkeypatch):
        calls = []
        for name in identities._TRIALS:
            monkeypatch.setitem(identities._TRIALS, name, lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="^no suite selected"):
            run_suite(suites, trials=1)
        assert calls == []

    @pytest.mark.parametrize("name", ["direct-sum", "partition-chain", "converse"])
    def test_two_dimensional_suites_rejected_before_any_trial(self, name, monkeypatch):
        calls = []
        monkeypatch.setitem(identities._TRIALS, "line-partition", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=f"^the {name} suite needs ambient dimension >= 2$"):
            run_suite(["line-partition", name], n_max=1)
        assert calls == []

    @pytest.mark.parametrize("trials", [0, -3])
    def test_empty_runs_rejected(self, trials):
        with pytest.raises(DomainError, match=f"trials must be at least 1, got {trials}"):
            run_suite("pythagorean", trials=trials)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"n_max": 6.5}, "n_max must be an integer, got 6.5"),
            ({"n_max": True}, "n_max must be an integer, got True"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"trials": 1.5}, "trials must be an integer, got 1.5"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"seed": 0.5}, "seed must be an integer, got 0.5"),
            ({"field": "real"}, "field must be a Field or None, got 'real'"),
            ({"tol": None}, "tol must be a Tolerance, got None"),
            ({"tol": 1e-8}, "tol must be a Tolerance, got 1e-08"),
        ],
    )
    def test_malformed_arguments_rejected_before_any_trial(self, kwargs, message, monkeypatch):
        calls = []
        monkeypatch.setitem(identities._TRIALS, "binomial", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            run_suite("binomial", **{"trials": 2, **kwargs})
        assert calls == []

    def test_numpy_integer_arguments_accepted(self):
        a = run_suite("binomial", field=Field.REAL, n_max=np.int64(4), trials=np.int32(3), seed=np.uint8(5))
        b = run_suite("binomial", field=Field.REAL, n_max=4, trials=3, seed=5)
        assert [c.to_dict() for c in a] == [c.to_dict() for c in b]

    @pytest.mark.parametrize("n_max", [0, -2, 17])
    def test_ambient_dimension_out_of_range_rejected(self, n_max):
        with pytest.raises(DomainError, match=rf"n_max must be in \[1, 16\], got {n_max}"):
            run_suite("binomial", n_max=n_max, trials=2)

    def test_ambient_dimension_16_accepted(self):
        checks = run_suite("binomial", field=Field.REAL, n_max=16, trials=2)
        assert len(checks) == 2 and all(c.passed for c in checks)

    def test_smoke_all_suites_both_fields(self):
        checks = run_suite("all", field=None, n_max=5, trials=8, seed=2)
        assert len(checks) == 8 * 8 * 2
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_thousand_instances_all_pass(self):
        checks = run_suite("all", field=None, n_max=6, trials=63, seed=31)
        assert len(checks) == 8 * 63 * 2  # just over a thousand configurations
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_repeated_suite_runs_once(self):
        # a suite named twice runs once, where it is first named, so each row name is unique
        checks = run_suite(["converse", "pythagorean", "converse"], trials=1)
        names = ["converse[real]#0", "converse[complex]#0", "pythagorean[real]#0", "pythagorean[complex]#0"]
        assert [c.name for c in checks] == names
        assert checks == run_suite(["converse", "pythagorean"], trials=1)

    def test_binomial_suite_hits_both_branches(self):
        checks = run_suite("binomial", field=Field.REAL, n_max=5, trials=60, seed=3)
        assert any("target 1" in c.witness for c in checks)
        targets = {c.witness.split("target ")[1] for c in checks}
        assert len(targets) > 2  # several distinct binomial targets exercised
