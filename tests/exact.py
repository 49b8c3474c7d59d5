"""Exact oracle for the tests: Gram determinants over the rationals.

Every float is a dyadic rational, so ``Fraction(x)`` is exact, and so is
every Gram matrix and determinant built from it here: determinants come from
fraction-free Gaussian elimination (Bareiss 1968) over ``Fraction``, or over
Gaussian rationals (pairs of ``Fraction``) for the complex field.  The only
inexact step is the final square root of a quotient, which is taken to about
2^-100 relative before ``float`` rounds it, so the oracle is good to the last
bit of a double.  It shares no code with the package (stdlib only).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

# Bits of the integer square root; its relative error is below 2^-(SQRT_BITS/2).
SQRT_BITS = 200


class Gaussian:
    """The Gaussian rational ``re + i im`` with ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(z) -> "Gaussian":
        return z if isinstance(z, Gaussian) else Gaussian(z)

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gaussian.of(other)
        den = other.re * other.re + other.im * other.im
        num = self * other.conjugate()
        return Gaussian(num.re / den, num.im / den)

    def __bool__(self):
        return bool(self.re or self.im)

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)


def to_exact(x):
    """A float or complex scalar as a ``Fraction`` or ``Gaussian``, exactly."""
    if isinstance(x, complex):
        return Gaussian(Fraction(x.real), Fraction(x.imag))
    return Fraction(float(x))


def matrix(a) -> list[list]:
    """The rows of a 2-D array (or nested lists) of floats, exactly."""
    return [[to_exact(x) for x in row] for row in (a.tolist() if hasattr(a, "tolist") else a)]


def conj(x):
    return x.conjugate()


def gram(x: list[list], y: list[list]) -> list[list]:
    """``x* y`` for exact matrices given by rows: inner products of the columns."""
    cols_x, cols_y = list(zip(*x)), list(zip(*y))
    return [[sum((conj(a) * b for a, b in zip(u, v)), Fraction(0)) for v in cols_y] for u in cols_x]


def det(rows: list[list]):
    """Determinant by Bareiss elimination with row swaps; every division is exact."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign, previous = 1, Fraction(1)
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / previous
        previous = m[k][k]
    return sign * m[n - 1][n - 1]


def real_part(x) -> Fraction:
    return x.re if isinstance(x, Gaussian) else x


def sqrt(x: Fraction) -> Fraction:
    """The square root of a positive rational, to about 2^-(SQRT_BITS/2) relative."""
    num, den = x.numerator * x.denominator, x.denominator
    shift = max(0, (SQRT_BITS - num.bit_length()) // 2 + 1)
    return Fraction(isqrt(num << (2 * shift)), den << shift)


def oriented_cos(factors_v, factors_w, coefficient_v=1.0, coefficient_w=1.0) -> complex | float:
    """The oriented cosine ``<nu, omega> / (|nu| |omega|)`` of the blades
    ``c_v (v_1 ^ ... ^ v_p)`` and ``c_w (w_1 ^ ... ^ w_p)``, from the exact
    Gram determinants ``conj(c_v) c_w det(V* W) / sqrt(|c_v|^2 |c_w|^2 det(V* V) det(W* W))``."""
    v, w = matrix(factors_v), matrix(factors_w)
    cv, cw = to_exact(coefficient_v), to_exact(coefficient_w)
    num = conj(cv) * cw * det(gram(v, w))
    square = real_part(conj(cv) * cv * conj(cw) * cw * det(gram(v, v)) * det(gram(w, w)))
    if square <= 0:
        raise ZeroDivisionError("a blade is zero")
    root = sqrt(square)
    if isinstance(num, Gaussian):
        return complex(float(num.re / root), float(num.im / root))
    return float(num / root)
