"""The Grassmann and complementary routes against the exact rational oracle
of ``exact.py``, on bases with small integer entries, where both squared
cosines are exact rationals."""

import math

import exact
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grassmann_angles import Subspace, complementary_angle, grassmann_angle
from grassmann_angles.fields import Field

FIELDS = (Field.REAL, Field.COMPLEX)
KINDS = ("general", "inside", "wider", "intersecting")


def integer_pair(seed: int, kind: str, field: Field):
    """Integer (n, p) and (n, q) bases, n <= 6, with entries in [-3, 3] (real
    and imaginary parts over the complex field); None unless both have full rank.

    "inside" has V inside W; "wider" has p > q; "intersecting" ends V and W
    in the same column with p + q <= n, so the exact complementary cosine is
    0 although the dimensions do not force it.  As a last column, the shared
    direction is a mix of the orthonormal columns of V, which is where a
    determinant of the projected basis loses half the digits.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))

    def integers(rows, cols):
        m = rng.integers(-3, 4, (rows, cols)).astype(float)
        return m + 1j * rng.integers(-3, 4, (rows, cols)) if field is Field.COMPLEX else m

    if kind == "general":
        bv, bw = integers(n, int(rng.integers(1, n + 1))), integers(n, int(rng.integers(1, n + 1)))
    elif kind == "inside":
        q = int(rng.integers(1, n + 1))
        bw = integers(n, q)
        bv = bw @ integers(q, int(rng.integers(1, q + 1)))
    elif kind == "wider":
        p = int(rng.integers(2, n + 1))
        bv, bw = integers(n, p), integers(n, int(rng.integers(1, p)))
    else:
        p = int(rng.integers(1, n))
        shared = integers(n, 1)
        bv = np.hstack([integers(n, p - 1), shared])
        bw = np.hstack([integers(n, int(rng.integers(0, n - p + 1))), shared])
    for basis in (bv, bw):
        m = exact.matrix(basis)
        if not exact.det(exact.gram(m, m)):
            return None
    return bv, bw


def check_against_exact(bv, bw, kind: str, field: Field):
    """Both routes' cosines on the integer bases of one ``kind`` against the exact oracle."""
    v, w = Subspace.from_spanning(bv, field=field), Subspace.from_spanning(bw, field=field)
    cos_sq = exact.grassmann_cos_squared(bv, bw)
    comp_sq = exact.complementary_cos_squared(bv, bw)

    plain = grassmann_angle(v, w)
    assert abs(plain.cos_squared - float(cos_sq)) <= 1e-14
    if cos_sq > 0:  # at cos = 0 the square root keeps half the digits (see the xfails below)
        assert abs(plain.cosine - exact.cos_of(cos_sq)) <= 1e-14
    if v.dim > w.dim:
        assert cos_sq == 0 and plain.cosine == 0.0 and plain.value == math.pi / 2

    comp = complementary_angle(v, w)
    assert abs(comp.cosine - exact.cos_of(comp_sq)) <= 1e-14
    if kind in ("inside", "intersecting"):
        assert comp_sq == 0 and comp.cosine <= 1e-15
    if v.dim > v.ambient_dim - w.dim:
        assert comp_sq == 0 and comp.cosine == 0.0 and comp.value == math.pi / 2


class TestAgainstExactOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS), field=st.sampled_from(FIELDS))
    def test_grassmann_and_complementary_cosines(self, seed, kind, field):
        pair = integer_pair(seed, kind, field)
        assume(pair is not None)
        check_against_exact(*pair, kind, field)

    @pytest.mark.parametrize("field", FIELDS)
    def test_intersecting_pairs_have_complementary_cosine_zero(self, field):
        # a fixed sweep, so that each run sees many such pairs
        for seed in range(30):
            pair = integer_pair(seed, "intersecting", field)
            if pair is None:
                continue
            assert exact.complementary_cos_squared(*pair) == 0
            v, w = (Subspace.from_spanning(basis, field=field) for basis in pair)
            assert complementary_angle(v, w).cosine <= 1e-15
            assert complementary_angle(w, v).cosine <= 1e-15


class TestGrassmannEndpoints:
    """The floor of ROADMAP item 1: cos^2 = det(b* b) is right to about eps,
    but the angle or cosine read off it keeps only half the digits."""

    @pytest.mark.xfail(
        strict=True, reason="partially orthogonal pair: cos 8.6e-9 = sqrt of a rounded det(b* b), exact 0"
    )
    def test_partially_orthogonal_pair_has_cosine_zero(self):
        bv = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])  # contains (-2, 1, -2), the normal of W
        bw = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
        assert exact.grassmann_cos_squared(bv, bw) == 0
        assert grassmann_angle(Subspace.from_spanning(bv), Subspace.from_spanning(bw)).cosine <= 1e-15

    @pytest.mark.xfail(strict=True, reason="line inside a plane: angle 3.0e-8 = acos(1 - 4.4e-16), exact 0")
    def test_contained_line_has_angle_zero(self):
        line = np.array([[1.0, 3.0, 3.0]]).T  # c_1 + 2 c_2 for the columns c_i of the plane
        plane = np.array([[-1.0, 1.0], [1.0, 1.0], [-1.0, 2.0]])
        assert exact.grassmann_cos_squared(line, plane) == 1
        assert grassmann_angle(Subspace.from_spanning(line), Subspace.from_spanning(plane)).value <= 1e-15

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: cos 7.633808928996452e-4 = sqrt of a rounded det(b* b), exact 7.633808929278347e-4",
    )
    def test_small_cosine_of_a_general_pair_keeps_full_precision(self):
        # a draw the property above once failed on: seed=170, kind='general', field=REAL
        check_against_exact(*integer_pair(170, "general", Field.REAL), "general", Field.REAL)
