"""The Haar draws: one stacked QR per size gives the unitaries of one QR per
draw bit for bit, and every generator (the package's, and the test helpers of
``generators`` over its private ``_within`` and ``_parts``) gives the arrays
and leaves the random stream of the reference formulas below, which draw and
factor one matrix at a time."""

import numpy as np
import pytest
from generators import random_partition, random_subspace_within, split_subspace

from grassmann_angles import DomainError, run_suite
from grassmann_angles.fields import Field
from grassmann_angles.identities import _grouped_principal_partition, _random_composition
from grassmann_angles.sampling import (
    _haar,
    random_blade,
    random_matrix,
    random_orthogonal_basis,
    random_subspace,
    random_unitary,
    rng_from_seed,
)

FIELDS = (Field.REAL, Field.COMPLEX)
SEEDS = range(1000)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: signs of zero included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- reference formulas: one draw, one QR ---------------------------------------


def ref_matrix(rng, field, rows, cols):
    m = rng.standard_normal((rows, cols))
    if field is Field.COMPLEX:
        m = m + 1j * rng.standard_normal((rows, cols))
    return m.astype(field.dtype)


def ref_haar(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_subspace(rng, field, n, dim):
    if dim == 0:
        return np.zeros((n, 0), field.dtype)
    return ref_haar(ref_matrix(rng, field, n, n))[:, :dim].copy()


def ref_split(rng, parent, field, dims):
    m = parent.shape[1]
    mixed = parent @ ref_subspace(rng, field, m, m)
    starts = np.cumsum([0, *dims])
    return [mixed[:, s : s + d] for s, d in zip(starts, dims)]


def composition(rng, total):
    cuts = np.sort(rng.choice(np.arange(1, total + 1), size=int(rng.integers(0, total + 1)), replace=False))
    return np.diff(np.concatenate([[0], cuts, [total]])).tolist()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", range(9))
def test_stacked_haar_equals_one_qr_per_draw(field, n):
    rng = rng_from_seed(n)
    shapes = [[n], [n, n], [n, n, n], *([n, p, n] for p in range(1, n)), [1, n, 1, n]]
    for sizes in shapes:
        draws = [random_matrix(rng, field, k, k) for k in sizes]
        for got, g in zip(_haar(draws), draws):
            assert same_bits(got, ref_haar(g))


@pytest.mark.parametrize("field", FIELDS)
def test_draw_matches_the_sum_formula(field):
    # a complex draw fills the real and imaginary parts of one array: m + 1j * s, bit for bit
    for seed in SEEDS:
        rows, cols = [(1, 1), (3, 2), (6, 6), (2, 7), (0, 3)][seed % 5]
        rng, ref = rng_from_seed(seed), rng_from_seed(seed)
        assert same_bits(random_matrix(rng, field, rows, cols), ref_matrix(ref, field, rows, cols))
        assert rng.bit_generator.state == ref.bit_generator.state


GENERATORS = {
    "random_unitary": (
        lambda rng, f, n, dim, dims: [random_unitary(rng, f, n)],
        lambda rng, f, n, dim, dims: [ref_haar(ref_matrix(rng, f, n, n))],
    ),
    "random_subspace": (
        lambda rng, f, n, dim, dims: [random_subspace(rng, f, n, dim).onb],
        lambda rng, f, n, dim, dims: [ref_subspace(rng, f, n, dim)],
    ),
    "random_subspace_within": (
        lambda rng, f, n, dim, dims: [random_subspace_within(rng, random_subspace(rng, f, n, n - dim // 2), dim // 2).onb],
        lambda rng, f, n, dim, dims: [ref_subspace(rng, f, n, n - dim // 2) @ ref_subspace(rng, f, n - dim // 2, dim // 2)],
    ),
    "split_subspace": (
        lambda rng, f, n, dim, dims: [p.onb for p in split_subspace(rng, random_subspace(rng, f, n, n), dims).parts],
        lambda rng, f, n, dim, dims: ref_split(rng, ref_subspace(rng, f, n, n), f, dims),
    ),
    "random_partition": (
        lambda rng, f, n, dim, dims: [p.onb for p in random_partition(rng, f, n, dims).parts],
        lambda rng, f, n, dim, dims: ref_split(rng, np.eye(n, dtype=f.dtype), f, dims),
    ),
    "random_orthogonal_basis": (
        lambda rng, f, n, dim, dims: [random_orthogonal_basis(rng, f, n)],
        lambda rng, f, n, dim, dims: [ref_subspace(rng, f, n, n) * rng.uniform(0.5, 2.0, size=n)],
    ),
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", GENERATORS)
def test_generators_match_one_qr_per_draw(name, field):
    draw, reference = GENERATORS[name]
    for seed in SEEDS:
        rng = rng_from_seed(seed)
        n = int(rng.integers(1, 9))
        dim = [0, n, int(rng.integers(0, n + 1))][seed % 3]
        dims = composition(rng, n)
        ref = rng_from_seed(seed)
        ref.bit_generator.state = rng.bit_generator.state
        got, expected = draw(rng, field, n, dim, dims), reference(ref, field, n, dim, dims)
        assert len(got) == len(expected) and all(map(same_bits, got, expected))
        assert rng.bit_generator.state == ref.bit_generator.state


def ref_grouped_partition(rng, e_basis):
    """The converse trial's column groups as built one group at a time, each group's columns sorted."""
    p = e_basis.shape[1]
    order = rng.permutation(p)
    dims = _random_composition(rng, p, allow_zero=False)
    groups, start = [], 0
    for d in dims:
        groups.append(e_basis[:, np.sort(order[start : start + d])])
        start += d
    return groups


@pytest.mark.parametrize("field", FIELDS)
def test_grouped_principal_partition_matches_one_group_at_a_time(field):
    for seed in SEEDS:
        rng = rng_from_seed(seed)
        n = int(rng.integers(1, 9))
        e_basis = random_unitary(rng, field, n)[:, : int(rng.integers(1, n + 1))].copy(order="CF"[seed % 2])
        ref = rng_from_seed(seed)
        ref.bit_generator.state = rng.bit_generator.state
        columns, dims = _grouped_principal_partition(rng, e_basis)
        expected = ref_grouped_partition(ref, e_basis)
        assert dims == [group.shape[1] for group in expected]
        assert same_bits(columns, np.hstack(expected))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("suite", ["line-partition", "pythagorean", "binomial"])
def test_one_qr_per_trial(suite, monkeypatch):
    # each trial factors all its draws in one stacked QR (binomial's V = 0 draws nothing)
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(np.shape(a)) or qr(a, *args, **kw))
    checks = run_suite(suite, n_max=8, trials=50, seed=5)
    assert len(calls) == len(checks) == 100


@pytest.mark.parametrize(
    "draw, match",
    [
        (lambda rng: random_blade(rng, Field.REAL, 3, 0), "cannot build a grade-0 blade in dimension 3"),
        (lambda rng: random_blade(rng, Field.COMPLEX, 3, 4), "cannot build a grade-4 blade in dimension 3"),
    ],
    ids=["grade-0", "grade-4"],
)
def test_sizes_out_of_range_are_rejected_by_name(draw, match):
    with pytest.raises(DomainError, match=match):
        draw(rng_from_seed(0))
