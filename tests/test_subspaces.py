import math

import numpy as np
import pytest

from grassmann_angles import (
    Blade,
    DimensionMismatchError,
    DomainError,
    Partition,
    Subspace,
    blade_inner,
    blade_norm,
    complement,
    direct_sum,
    is_partially_orthogonal,
    is_principal_partition,
    is_principal_subspace,
    orthogonal_complement_within,
    principal_decomposition,
    project,
    project_blade,
    project_subspace,
)
from grassmann_angles.fields import DEFAULT_TOLERANCE, Field, Tolerance
from grassmann_angles.linalg import gram
from grassmann_angles.sampling import (
    random_matrix,
    random_subspace,
    random_subspace_within,
    rng_from_seed,
    split_subspace,
)

FIELDS = (Field.REAL, Field.COMPLEX)


def max_principal_angle(a, b):
    cos = np.clip(np.linalg.svd(gram(a.onb, b.onb), compute_uv=False), 0.0, 1.0)
    return float(np.max(np.arccos(cos))) if cos.size else 0.0


class TestSubspaceConstruction:
    def test_from_spanning_drops_dependent(self):
        v = np.array([1.0, 2.0, 0.0])
        s = Subspace.from_spanning([v, 3 * v, np.array([0.0, 0.0, 1.0])])
        assert s.dim == 2

    def test_zero_and_full(self):
        assert Subspace.zero(4, Field.REAL).dim == 0
        assert Subspace.full(4, Field.COMPLEX).dim == 4

    def test_onb_validated(self):
        with pytest.raises(DomainError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]), Field.REAL)

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: Subspace(np.array([1.0, 0.0]), Field.REAL), DimensionMismatchError, "2-D column matrix"),
            (lambda: Subspace(np.eye(2, 3), Field.REAL), DimensionMismatchError, "3 basis columns in ambient"),
            (lambda: Subspace([[1j], [0.0]], Field.REAL), DimensionMismatchError, "complex entries are not allowed"),
            (lambda: Subspace.from_spanning([np.eye(2)]), DimensionMismatchError, "basis vectors must be 1-D"),
            (lambda: Tolerance(residual_eps=1.0), ValueError, r"residual_eps must be in \(0, 1\)"),
            (lambda: Tolerance(residual_eps=0.0), ValueError, r"residual_eps must be in \(0, 1\)"),
            (lambda: direct_sum(), DomainError, "direct_sum needs at least one part"),
            (lambda: Partition(()), DomainError, "a partition needs at least one part"),
        ],
        ids=["1-D", "too-many-columns", "complex-over-reals", "2-D-vector", "residual-1", "residual-0", "sum", "parts"],
    )
    def test_malformed_inputs_rejected_by_name(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("k", [2, 5])
    def test_writing_into_the_callers_array_leaves_the_subspace(self, field, k):
        basis = np.eye(6, k, dtype=field.dtype)
        subspaces = [Subspace(basis, field), Subspace(basis[:, :1], field), Subspace.from_spanning(basis, field=field)]
        basis[:] = 3.0
        for s in subspaces:
            np.testing.assert_array_equal(s.onb, np.eye(6, s.dim))

    def test_contains_vector(self):
        w = Subspace.from_spanning([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert w.contains(np.array([2.0, -3.0, 2.0]))
        assert not w.contains(np.array([1.0, 0.0, 0.0]))
        assert w.contains(np.zeros(3))

    @pytest.mark.parametrize("field", FIELDS)
    def test_onb_orthonormal_within_1e12(self, field):
        rng = rng_from_seed(1)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 1))
            s = Subspace.from_spanning(random_matrix(rng, field, n, k), field=field)
            if s.dim:
                assert np.max(np.abs(gram(s.onb, s.onb) - np.eye(s.dim))) <= 1e-12


class TestProject:
    def test_full_space_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(project(v, Subspace.full(3, Field.REAL)), v)

    def test_zero_space(self):
        v = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(project(v, Subspace.zero(3, Field.REAL)), 0.0)

    def test_line_into_plane_contracts_by_cos_45(self):
        v = np.array([1.0, 0.0, 1.0, 0.0])
        w = Subspace.from_spanning([[0.0, 1.0, 1.0, 0.0], [1.0, 2.0, 2.0, -1.0]])
        ratio = np.linalg.norm(project(v, w)) / np.linalg.norm(v)
        assert ratio == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_idempotent(self):
        rng = rng_from_seed(2)
        for field in FIELDS:
            w = random_subspace(rng, field, 5, 3)
            v = random_matrix(rng, field, 5, 1)[:, 0]
            once = project(v, w)
            assert np.max(np.abs(project(once, w) - once)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            project(np.ones(3), Subspace.full(4, Field.REAL))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "call", [lambda w: project([np.nan, 0.0], w), lambda w: w.contains([np.inf, 0.0])], ids=["project", "contains"]
    )
    def test_an_entry_that_is_not_finite_is_rejected(self, call):
        with pytest.raises(DomainError, match=r"entries must be finite \(no NaN or infinity\)"):
            call(Subspace.from_spanning([[1.0, 0.0]]))


class TestProjectBlade:
    def test_contained_blade_unchanged(self):
        rng = rng_from_seed(3)
        w = random_subspace(rng, Field.REAL, 5, 3)
        nu = Blade(w.onb[:, :2])
        pnu = project_blade(nu, w)
        assert abs(blade_inner(pnu, nu) - blade_inner(nu, nu)) < 1e-12

    def test_a_scalar_blade_is_returned_as_it_is(self):
        nu = Blade.scalar(-2.0, 3, Field.REAL)
        assert project_blade(nu, Subspace.from_spanning([[1.0, 0.0, 0.0]])) is nu

    def test_orthogonal_factor_kills_blade(self):
        w = Subspace.from_spanning([[1.0, 0.0, 0.0]])
        nu = Blade([np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])])
        assert blade_norm(project_blade(nu, w)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("field", FIELDS)
    def test_norm_ratio_is_product_of_principal_cosines(self, field):
        rng = rng_from_seed(4)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(p, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, q)
            nu = v.spanning_blade()
            expected = float(np.prod(np.cos(principal_decomposition(v, w).angles)))
            assert blade_norm(project_blade(nu, w)) / blade_norm(nu) == pytest.approx(expected, abs=1e-10)


class TestComplement:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_and_full(self, n, field):
        whole = complement(Subspace.zero(n, field)).onb
        assert whole.dtype == field.dtype
        np.testing.assert_array_equal(whole, np.eye(n))
        empty = complement(Subspace.full(n, field)).onb
        assert empty.shape == (n, 0) and empty.dtype == field.dtype

    @pytest.mark.parametrize("field", FIELDS)
    def test_involution_and_orthogonality(self, field):
        rng = rng_from_seed(5)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            w = random_subspace(rng, field, n, int(rng.integers(0, n + 1)))
            wp = complement(w)
            assert wp.dim == n - w.dim
            if w.dim and wp.dim:
                assert np.max(np.abs(gram(w.onb, wp.onb))) <= 1e-12
            if w.dim:
                assert max_principal_angle(complement(wp), w) <= 1e-7


class TestPartialOrthogonality:
    def test_contained_is_not_partially_orthogonal(self):
        rng = rng_from_seed(6)
        w = random_subspace(rng, Field.REAL, 5, 3)
        v = random_subspace_within(rng, w, 2)
        assert not is_partially_orthogonal(v, w)

    def test_orthogonal_is_partially_orthogonal(self):
        rng = rng_from_seed(7)
        w = random_subspace(rng, Field.COMPLEX, 5, 2)
        v = random_subspace_within(rng, complement(w), 1)
        assert is_partially_orthogonal(v, w)

    @pytest.mark.parametrize("field", FIELDS)
    def test_bigger_dimension_always_partially_orthogonal(self, field):
        rng = rng_from_seed(8)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            q = int(rng.integers(1, n))
            p = int(rng.integers(q + 1, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, q)
            assert is_partially_orthogonal(v, w)
            # oracle: the projected basis must lose rank
            projected = w.onb @ gram(w.onb, v.onb)
            assert np.linalg.matrix_rank(projected) < v.dim

    def test_subsets_inherit_non_partial_orthogonality(self):
        rng = rng_from_seed(9)
        for field in FIELDS:
            for _ in range(10):
                n = int(rng.integers(2, 7))
                p = int(rng.integers(1, n + 1))
                q = int(rng.integers(p, n + 1))
                v = random_subspace(rng, field, n, p)
                w = random_subspace(rng, field, n, q)
                if is_partially_orthogonal(v, w):
                    continue
                for r in range(0, p + 1):
                    u = random_subspace_within(rng, v, r)
                    assert not is_partially_orthogonal(u, w)


class TestPrincipalDecomposition:
    def test_equal_subspaces_have_zero_angles(self):
        rng = rng_from_seed(10)
        v = random_subspace(rng, Field.COMPLEX, 4, 2)
        pd = principal_decomposition(v, v)
        np.testing.assert_allclose(pd.angles, 0.0, atol=1e-7)
        np.testing.assert_allclose(pd.cosines, 1.0, atol=1e-12)

    def test_orthogonal_subspaces_have_right_angles(self):
        rng = rng_from_seed(11)
        w = random_subspace(rng, Field.REAL, 6, 2)
        v = random_subspace_within(rng, complement(w), 2)
        np.testing.assert_allclose(principal_decomposition(v, w).angles, math.pi / 2, atol=1e-7)

    def test_line_plane_pair_gives_45_degrees(self):
        v = Subspace.from_spanning([[1.0, 0.0, 1.0, 0.0]])
        w = Subspace.from_spanning([[0.0, 1.0, 1.0, 0.0], [1.0, 2.0, 2.0, -1.0]])
        pd = principal_decomposition(v, w)
        assert pd.angles.shape == (1,)
        assert pd.angles[0] == pytest.approx(math.pi / 4, abs=1e-12)

    def test_zero_subspace_rejected(self):
        with pytest.raises(DomainError):
            principal_decomposition(Subspace.zero(3, Field.REAL), Subspace.full(3, Field.REAL))

    @pytest.mark.parametrize("field", FIELDS)
    def test_pairing_and_projection_structure(self, field):
        rng = rng_from_seed(12)
        for _ in range(15):
            n = int(rng.integers(1, 9))
            p = int(rng.integers(1, n + 1))
            q = int(rng.integers(1, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, q)
            pd = principal_decomposition(v, w)
            m = min(p, q)
            assert pd.e_basis.shape == (n, p) and pd.f_basis.shape == (n, q)
            assert np.all(np.diff(pd.angles) >= -1e-15)
            assert pd.pairing_residual() <= 1e-9
            # projecting e_i onto w scales f_i by cos(theta_i) and kills i > m
            projected = w.onb @ gram(w.onb, pd.e_basis)
            for i in range(p):
                if i < m:
                    target = pd.f_basis[:, i] * math.cos(pd.angles[i])
                    assert np.linalg.norm(projected[:, i] - target) <= 1e-9
                else:
                    assert np.linalg.norm(projected[:, i]) <= 1e-9


class TestComplementWithin:
    def test_requires_containment(self):
        rng = rng_from_seed(13)
        v = random_subspace(rng, Field.REAL, 5, 2)
        u = random_subspace(rng, Field.REAL, 5, 1)
        with pytest.raises(DomainError):
            orthogonal_complement_within(u, v)
        with pytest.raises(DomainError, match="a 2-dimensional space cannot sit inside a 1-dimensional one"):
            orthogonal_complement_within(v, u)

    @pytest.mark.parametrize("n, field", [(5, Field.REAL), (4, Field.COMPLEX)])
    def test_requires_the_same_space(self, n, field):
        rng = rng_from_seed(13)
        v = random_subspace(rng, Field.REAL, 4, 2)
        with pytest.raises(DimensionMismatchError):
            orthogonal_complement_within(random_subspace(rng, field, n, 1), v)

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("k", [0, 2, 4], ids=["zero", "proper", "all"])
    def test_splits_parent(self, field, k):
        rng = rng_from_seed(14)
        v = random_subspace(rng, field, 6, 4)
        u = random_subspace_within(rng, v, k)
        rest = orthogonal_complement_within(u, v)
        assert rest.dim == 4 - k and rest.onb.shape == (6, 4 - k) and rest.onb.dtype == field.dtype
        assert np.max(np.abs(gram(u.onb, rest.onb)), initial=0.0) <= 1e-10
        assert max_principal_angle(direct_sum(u, rest), v) <= 1e-7


class TestPrincipalSubspace:
    @pytest.mark.parametrize("n, field", [(5, Field.REAL), (4, Field.COMPLEX)])
    def test_requires_the_same_space(self, n, field):
        rng = rng_from_seed(15)
        v = random_subspace(rng, Field.REAL, 4, 2)
        u = random_subspace_within(rng, v, 1)
        with pytest.raises(DimensionMismatchError):
            is_principal_subspace(u, v, random_subspace(rng, field, n, 2))

    def test_zero_subspace_is_principal(self):
        rng = rng_from_seed(15)
        v = random_subspace(rng, Field.REAL, 4, 2)
        w = random_subspace(rng, Field.REAL, 4, 2)
        assert is_principal_subspace(Subspace.zero(4, Field.REAL), v, w)

    @pytest.mark.parametrize("field", FIELDS)
    def test_principal_vector_spans_are_principal(self, field):
        rng = rng_from_seed(16)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(2, n + 1))
            q = int(rng.integers(1, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, q)
            e = principal_decomposition(v, w).e_basis
            cols = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
            u = Subspace(e[:, np.sort(cols)], field, _validate=False)
            assert is_principal_subspace(u, v, w)

    def test_generic_line_is_not_principal(self):
        rng = rng_from_seed(17)
        hits = 0
        for _ in range(10):
            v = random_subspace(rng, Field.REAL, 4, 2)
            w = random_subspace(rng, Field.REAL, 4, 2)
            u = random_subspace_within(rng, v, 1)
            hits += not is_principal_subspace(u, v, w)
        assert hits == 10  # generic lines are never principal

    def test_full_subspace_is_principal(self):
        rng = rng_from_seed(18)
        v = random_subspace(rng, Field.COMPLEX, 5, 3)
        w = random_subspace(rng, Field.COMPLEX, 5, 2)
        assert is_principal_subspace(v, v, w)

    def test_outside_subspace_rejected(self):
        rng = rng_from_seed(19)
        v = random_subspace(rng, Field.REAL, 5, 2)
        u = random_subspace(rng, Field.REAL, 5, 1)
        with pytest.raises(DomainError):
            is_principal_subspace(u, v, random_subspace(rng, Field.REAL, 5, 2))

    @pytest.mark.parametrize("field", FIELDS)
    def test_complement_within_preserves_principality(self, field):
        # u principal inside v exactly when its complement within v is
        rng = rng_from_seed(20)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            p = int(rng.integers(2, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            e = principal_decomposition(v, w).e_basis
            principal_u = Subspace(e[:, :1], field, _validate=False)
            generic_u = random_subspace_within(rng, v, 1)
            for u in (principal_u, generic_u):
                rest = orthogonal_complement_within(u, v)
                assert is_principal_subspace(u, v, w) == is_principal_subspace(rest, v, w)

    @pytest.mark.parametrize("field", FIELDS)
    def test_is_the_two_part_principal_partition(self, field):
        rng = rng_from_seed(21)
        seen = set()
        for _ in range(20):
            n = int(rng.integers(3, 7))
            p = int(rng.integers(2, n + 1))
            v = random_subspace(rng, field, n, p)
            w = random_subspace(rng, field, n, int(rng.integers(1, n + 1)))
            e = principal_decomposition(v, w).e_basis
            r = int(rng.integers(1, p))
            for u in (Subspace(e[:, :r], field, _validate=False), random_subspace_within(rng, v, r)):
                expected = is_principal_partition(Partition((u, orthogonal_complement_within(u, v))), w)
                assert is_principal_subspace(u, v, w) == expected
                seen.add(expected)
        assert seen == {True, False}


class TestPartitions:
    def test_non_orthogonal_partition_rejected(self):
        a = Subspace.from_spanning([[1.0, 0.0, 0.0]])
        b = Subspace.from_spanning([[1.0, 1.0, 0.0]])
        with pytest.raises(DomainError, match="parts are not pairwise orthogonal"):
            Partition((a, b))  # when built, with no parent() call

    @pytest.mark.parametrize("field", FIELDS)
    def test_parent_is_the_direct_sum_built_once(self, field):
        rng = rng_from_seed(28)
        partition = split_subspace(rng, random_subspace(rng, field, 6, 5), [2, 0, 1, 2])
        parent = partition.parent()
        assert parent is partition.parent()
        expected = direct_sum(*partition.parts).onb
        assert parent.onb.dtype == expected.dtype and parent.onb.tobytes() == expected.tobytes()

    def test_parent_collects_parts(self):
        rng = rng_from_seed(21)
        parent = random_subspace(rng, Field.REAL, 5, 4)
        partition = split_subspace(rng, parent, [1, 2, 1])
        assert partition.parent().dim == 4
        assert max_principal_angle(partition.parent(), parent) <= 1e-7

    def test_single_part_partition_is_principal(self):
        rng = rng_from_seed(22)
        v = random_subspace(rng, Field.REAL, 4, 2)
        w = random_subspace(rng, Field.REAL, 4, 2)
        assert is_principal_partition(Partition((v,)), w)

    @pytest.mark.parametrize("field", FIELDS)
    def test_grouped_principal_vectors_form_principal_partition(self, field):
        rng = rng_from_seed(23)
        v = random_subspace(rng, field, 6, 4)
        w = random_subspace(rng, field, 6, 4)
        e = principal_decomposition(v, w).e_basis
        parts = (
            Subspace(e[:, :2], field, _validate=False),
            Subspace(e[:, 2:3], field, _validate=False),
            Subspace(e[:, 3:], field, _validate=False),
        )
        assert is_principal_partition(Partition(parts), w)

    @pytest.mark.parametrize("field", FIELDS)
    def test_one_svd_per_part_and_none_per_pair(self, field, monkeypatch):
        rng = rng_from_seed(29)
        partition = split_subspace(rng, random_subspace(rng, field, 6, 4), [1, 2, 1])
        w = random_subspace(rng, field, 6, 3)
        svd, calls = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert not is_principal_partition(partition, w)
        assert calls == [(3, 1), (3, 2), (3, 1)]  # one W* V_i per part

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("loose", [False, True])
    def test_mixed_principal_vectors_break_principality(self, field, loose):
        # the grading tolerance, even above the projected parts' cross cosine, does not decide principality
        rng = rng_from_seed(24)
        while True:
            v = random_subspace(rng, field, 5, 2)
            w = random_subspace(rng, field, 5, 3)
            cos = np.linalg.svd(gram(w.onb, v.onb), compute_uv=False)
            if cos[0] - cos[1] > 0.2 and cos[1] > 0.2:
                break
        e = principal_decomposition(v, w).e_basis
        g1 = (e[:, 0] + e[:, 1]) / math.sqrt(2)
        g2 = (e[:, 0] - e[:, 1]) / math.sqrt(2)
        rotated = Partition(
            (Subspace(g1[:, None], field, _validate=False), Subspace(g2[:, None], field, _validate=False))
        )
        cross = (cos[0] ** 2 - cos[1] ** 2) / (cos[0] ** 2 + cos[1] ** 2)  # of the projected g1 and g2
        tol = Tolerance(residual_eps=(1.0 + cross) / 2) if loose else DEFAULT_TOLERANCE  # loose: above the cross cosine
        assert not is_principal_partition(rotated, w, tol)


class TestCoprincipalBlades:
    @pytest.mark.parametrize("field", FIELDS)
    def test_distinct_coordinate_subspaces_have_orthogonal_blades(self, field):
        from itertools import combinations

        rng = rng_from_seed(25)
        v = random_subspace(rng, field, 6, 4)
        w = random_subspace(rng, field, 6, 5)
        e = principal_decomposition(v, w).e_basis
        r = 2
        subsets = list(combinations(range(4), r))
        for s1 in subsets:
            for s2 in subsets:
                if s1 == s2:
                    continue
                b1 = Blade(e[:, list(s1)], field=field)
                b2 = Blade(e[:, list(s2)], field=field)
                assert abs(blade_inner(b1, b2)) <= 1e-9
                p1 = project_blade(b1, w)
                p2 = project_blade(b2, w)
                assert abs(blade_inner(p1, p2)) <= 1e-9


class TestProjectSubspace:
    @pytest.mark.parametrize("field", FIELDS)
    def test_image_dimension_and_containment(self, field):
        rng = rng_from_seed(26)
        v = random_subspace(rng, field, 5, 2)
        w = random_subspace(rng, field, 5, 3)
        image = project_subspace(v, w)
        assert image.dim == 2  # generic position
        assert not is_partially_orthogonal(image, w)
        # the image sits inside w
        residual = image.onb - w.onb @ gram(w.onb, image.onb)
        assert np.max(np.abs(residual)) <= 1e-12

    @pytest.mark.parametrize("field", FIELDS)
    def test_zero_subspace_on_either_side_gives_zero(self, field):
        v = random_subspace(rng_from_seed(27), field, 4, 2)
        zero = Subspace.zero(4, field)
        for image in (project_subspace(zero, v), project_subspace(v, zero), project_subspace(zero, zero)):
            assert (image.dim, image.ambient_dim, image.field) == (0, 4, field)

    def test_orthogonal_directions_are_cut(self):
        # a direction of v with an exactly zero projection must not resurface
        v = Subspace.from_spanning(np.eye(3)[:, :2])
        w = Subspace.from_spanning([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        image = project_subspace(v, w)
        assert image.dim == 1
