"""Seeded generators the tests draw with: a subspace within a subspace, and
orthogonal partitions of the whole space or of a subspace.

Each is one line over the package's own ``random_subspace`` and its private
builders ``_within`` and ``_parts``, which the suite trials draw through, so
the tests exercise those builders.  None checks its arguments beyond what
``random_subspace`` checks: the dims must be nonnegative integers summing to
the dimension being split.
"""

from grassmann_angles.sampling import _parts, _within, random_subspace


def random_subspace_within(rng, parent, dim):
    """Random dim-dimensional subspace of ``parent``."""
    return _within(parent, random_subspace(rng, parent.field, parent.dim, dim))


def random_partition(rng, field, n, dims):
    """Orthogonal partition of the whole n-dimensional space into parts of the given dimensions."""
    return _parts(random_subspace(rng, field, n, n).onb, field, dims)


def split_subspace(rng, parent, dims):
    """Orthogonal partition of ``parent`` into parts of the given dimensions."""
    return _parts(parent.onb @ random_subspace(rng, parent.field, parent.dim, parent.dim).onb, parent.field, dims)
