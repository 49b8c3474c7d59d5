"""Blade norms, inner products and contractions against the exact rational
oracle of ``exact.py``, which forms the Gram determinant of the definition
and shares no code with the package."""

import warnings

import exact
import numpy as np
import pytest

from grassmann_angles import Blade, NumericalConsistencyError, blade_inner, blade_norm, contract
from grassmann_angles.fields import Field

FIELDS = (Field.REAL, Field.COMPLEX)


def gaussian(rng, field, *shape):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if field is Field.COMPLEX else a


def random_blades(field, count, seed):
    """``count`` pairs of Gaussian blades of one grade in R^n or C^n, n <= 6,
    grade 0 to n, with Gaussian coefficients."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        coefficients = gaussian(rng, field, 2).tolist()
        yield tuple(Blade(gaussian(rng, field, n, k), field=field, coefficient=c, ambient_dim=n) for c in coefficients)


def volume(blade) -> float:
    """The blade's norm from the R factor of ``np.linalg.qr``, a scale for the error."""
    return abs(blade.coefficient) * float(np.prod(np.abs(np.linalg.qr(blade.factors)[1].diagonal())))


def probe_factors():
    """The factors of a random real 3-blade in R^5."""
    return np.random.default_rng(1).standard_normal((5, 3))


class TestProbes:
    @pytest.mark.parametrize("scale", [1e-100, 1e80])
    def test_extreme_scales_keep_full_precision(self, scale):
        # the Gram determinant underflows to 0 at 1e-100 and overflows at 1e80
        f = probe_factors() * scale
        expected = exact.blade_norm(f)
        assert abs(blade_norm(Blade(f)) - expected) <= 1e-14 * expected

    def test_nearly_dependent_factors_keep_a_nonzero_norm(self):
        f = probe_factors()
        g = np.column_stack([f, f[:, 0] + 1e-9 * np.random.default_rng(1).standard_normal(5)])
        blade = Blade(g)
        expected = exact.blade_norm(g)  # 6.34e-10
        assert not blade.is_zero()
        assert blade_norm(blade) != 0.0
        assert abs(blade_norm(blade) - expected) <= 1e-6 * expected

    def test_a_norm_that_overflows_raises_without_a_warning(self):
        # by the factors alone, and by a coefficient on factors of norm ~1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for blade in (Blade(probe_factors() * 1e200), Blade(probe_factors() * 1e100, coefficient=-3e100)):
                with pytest.raises(NumericalConsistencyError):
                    blade_norm(blade)


    def test_contraction_terms_past_the_largest_float_raise_without_a_warning(self):
        # |nu| 2.2e300 and |omega| 3.2e300 are finite, but every term |nu| |omega| det(Q_nu* Q_I) is not
        rng = np.random.default_rng(1)
        nu, omega = rng.standard_normal((6, 2)) * 1e150, rng.standard_normal((6, 3)) * 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalConsistencyError):
                contract(Blade(nu), Blade(omega))
            # the same norms, but nu nearly orthogonal to omega: <nu ^ e_6, omega> = 1e300 fits
            eye = np.eye(6)
            nu, mu = eye[:, :2] * 1e150, eye[:, 5:]
            omega = np.column_stack([eye[:, 3] + 1e-150 * eye[:, 0], eye[:, 4] + 1e-150 * eye[:, 1], eye[:, 5]]) * 1e100
            out = contract(Blade(nu), Blade(omega))
            assert all(np.isfinite(c) for _, c in out)
            # the frames' off-axis entries are exact zeros, so the minor keeps its relative precision
            assert out.inner_with(Blade(mu)) == pytest.approx(float(exact.blade_inner(np.hstack([nu, mu]), omega)), rel=1e-12)

    def test_a_contraction_norm_past_the_largest_float_raises_without_a_warning(self):
        # the one term 1.697e308 (1 + i) fits by its parts, but its modulus 2.4e308 does not
        e1 = np.eye(2, 1, dtype=complex)
        nu = Blade(e1 * 1e154, field=Field.COMPLEX)
        omega = Blade(e1 * 2.4e154, field=Field.COMPLEX, coefficient=(1 + 1j) / np.sqrt(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = contract(nu, omega)
            assert all(np.isfinite(c) for _, c in out)
            with pytest.raises(NumericalConsistencyError):
                out.norm()


@pytest.mark.parametrize("field", FIELDS)
class TestRandomBlades:
    def test_norm_matches_the_gram_determinant(self, field):
        for a, _ in random_blades(field, 200, 11):
            expected = exact.blade_norm(a.factors, a.coefficient)
            assert abs(blade_norm(a) - expected) <= 1e-14 * expected

    def test_inner_product_matches_the_gram_determinant(self, field):
        for a, b in random_blades(field, 100, 12):
            expected = complex(exact.blade_inner(a.factors, b.factors, a.coefficient, b.coefficient))
            assert abs(blade_inner(a, b) - expected) <= 1e-14 * volume(a) * volume(b)

    def test_inner_product_with_itself_is_the_squared_norm(self, field):
        for a, _ in random_blades(field, 100, 13):
            assert abs(blade_inner(a, a) - blade_norm(a) ** 2) <= 1e-14 * blade_norm(a) ** 2

    def test_norm_is_zero_exactly_when_the_blade_is(self, field):
        # dependent, nearly dependent and independent factors on every scale;
        # below the smallest float an exact norm may round to 0 either way
        rng = np.random.default_rng(14)
        seen = set()
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(2, n + 1))
            f = gaussian(rng, field, n, k)
            f[:, -1] = f[:, 0] * 3 - f[:, 1] + gaussian(rng, field, n) * 10.0 ** -rng.integers(0, 18)
            f *= 2.0 ** (int(rng.integers(-1000, 1000)) // k)  # a norm of about 2^-1000 to 2^1000
            blade = Blade(f, field=field)
            if exact.blade_norm(f) < 2.0**-1074:
                continue
            assert (blade_norm(blade) == 0.0) is blade.is_zero()
            seen.add(blade.is_zero())
        assert seen == {False, True}


@pytest.mark.parametrize("field", FIELDS)
def test_contraction_norm_matches_the_exact_angle(field):
    # |nu _| omega| = |nu| |omega| cos(span nu, span omega) for grade nu <= grade omega
    rng = np.random.default_rng(15)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        q = int(rng.integers(1, n + 1))
        nu = Blade(gaussian(rng, field, n, int(rng.integers(1, q + 1))), field=field)
        omega = Blade(gaussian(rng, field, n, q), field=field)
        cos_squared = exact.grassmann_cos_squared(nu.factors, omega.factors)
        expected = exact.blade_norm(nu.factors) * exact.blade_norm(omega.factors) * exact.cos_of(cos_squared)
        assert abs(contract(nu, omega).norm() - expected) <= 1e-13 * max(expected, 1.0)
