"""Exact oracle for the tests: Gram determinants over the rationals.

Every float is a dyadic rational, so ``Fraction(x)`` is exact, and so is
every Gram matrix and determinant built from it here: determinants come from
fraction-free Gaussian elimination (Bareiss 1968) over ``Fraction``, or over
Gaussian rationals (pairs of ``Fraction``) for the complex field, and linear
solves from Gauss-Jordan elimination over the same numbers.  The squared
Grassmann and complementary cosines are exact rationals; the only inexact
step is a final square root, which is taken to about 2^-100 relative before
``float`` rounds it, so the oracle is good to the last bit of a double.  It
shares no code with the package (stdlib only).
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


def solve(a: list[list], b: list[list]) -> list[list]:
    """``a^-1 b`` for an invertible square ``a`` by Gauss-Jordan elimination."""
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            raise ZeroDivisionError("the matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        head = m[k][k]
        m[k] = [x / head for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                factor = m[i][k]
                m[i] = [x - factor * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


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


def grassmann_cos_squared(basis_v, basis_w) -> Fraction:
    """The squared Grassmann cosine of span V with span W, from (n, p) and
    (n, q) bases of full rank: the any-dimension formula
    ``det(B* A^-1 B) / det D`` with A = W* W, B = W* V and D = V* V.  It is 0
    when p > q, where B* A^-1 B has rank at most q."""
    v, w = matrix(basis_v), matrix(basis_w)
    b = gram(w, v)
    return real_part(det(gram(b, solve(gram(w, w), b)))) / real_part(det(gram(v, v)))


def complementary_cos_squared(basis_v, basis_w) -> Fraction:
    """The squared complementary cosine of span V and span W, from bases of
    full rank: ``det G([W V]) / (det G(W) det G(V))`` with G the Gram matrix,
    which equals the Schur form ``det(A - B D^-1 B*) / det A``.  It is 0
    exactly when V and W intersect, in particular when p + q > n."""
    v, w = matrix(basis_v), matrix(basis_w)
    both = [rw + rv for rw, rv in zip(w, v)]
    return real_part(det(gram(both, both))) / real_part(det(gram(w, w)) * det(gram(v, v)))


def cos_of(cos_squared: Fraction) -> float:
    """The cosine whose exact square is ``cos_squared``, correctly rounded but for about 2^-100."""
    return float(sqrt(cos_squared)) if cos_squared > 0 else 0.0
