"""Exact oracle for the tests: Gram determinants over the rationals.

Every float is a dyadic rational, so ``Fraction(x)`` is exact, and so is
every Gram matrix and determinant built from it here.  Gram matrices and
determinants bring each column to integers (Gaussian integers over the
complex field) over one common denominator, so inner products are integer
sums and determinants come from fraction-free Gaussian elimination (Bareiss
1968) with exact integer divisions; linear solves use Gauss-Jordan
elimination over ``Fraction`` and Gaussian rationals.  The squared
Grassmann and complementary cosines are exact rationals; the only inexact
step is a final square root, which is taken to about 2^-100 relative before
``float`` rounds it, so the oracle is good to the last bit of a double.  It
shares no code with the package (stdlib only).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod

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

    def __complex__(self):
        return complex(float(self.re), float(self.im))

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


def integer_column(column) -> tuple[list[tuple[int, int]], int, bool]:
    """``(parts, d, complex)``: the column as integer real and imaginary parts
    over its least common denominator d, and whether any entry is Gaussian."""
    pairs = [(z.re, z.im) if isinstance(z, Gaussian) else (Fraction(z), Fraction(0)) for z in column]
    d = lcm(*(x.denominator for pair in pairs for x in pair))
    return [(int(re * d), int(im * d)) for re, im in pairs], d, any(isinstance(z, Gaussian) for z in column)


def gram(x: list[list], y: list[list]) -> list[list]:
    """``x* y`` for exact matrices given by rows: inner products of the columns,
    each summed over integers and divided once by the two denominators."""
    cols_x, cols_y = [integer_column(c) for c in zip(*x)], [integer_column(c) for c in zip(*y)]
    rows = []
    for u, du, complex_u in cols_x:
        row = []
        for v, dv, complex_v in cols_y:
            re = sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(u, v))
            im = sum(ar * bi - ai * br for (ar, ai), (br, bi) in zip(u, v))  # conj(a) b
            entry = Fraction(re, du * dv)
            row.append(Gaussian(entry, Fraction(im, du * dv)) if complex_u or complex_v else entry)
        rows.append(row)
    return rows


def det(rows: list[list]):
    """Determinant by Bareiss elimination with row swaps.  Column j is first
    brought to Gaussian integers over its denominator d_j, so every division
    is an exact integer one, and det M = det(M diag(d)) / prod d_j."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    columns = [integer_column(c) for c in zip(*rows)]
    m = [list(row) for row in zip(*(parts for parts, _, _ in columns))]
    sign, previous = 1, (1, 0)
    for k in range(n - 1):
        if m[k][k] == (0, 0):
            pivot = next((i for i in range(k + 1, n) if m[i][k] != (0, 0)), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        (pr, pi), size = previous, previous[0] ** 2 + previous[1] ** 2
        (kr, ki) = m[k][k]
        for i in range(k + 1, n):
            (ar, ai) = m[i][k]
            for j in range(k + 1, n):
                (xr, xi), (br, bi) = m[i][j], m[k][j]
                xr, xi = xr * kr - xi * ki - (ar * br - ai * bi), xr * ki + xi * kr - (ar * bi + ai * br)
                m[i][j] = ((xr * pr + xi * pi) // size, (xi * pr - xr * pi) // size)  # x / previous, exactly
        previous = m[k][k]
    re, im = m[n - 1][n - 1]
    d = prod(dj for _, dj, _ in columns)
    value = Fraction(sign * re, d)
    return Gaussian(value, Fraction(sign * im, d)) if any(c for _, _, c in columns) else value


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


def blade_inner(factors_a, factors_b, coefficient_a=1.0, coefficient_b=1.0):
    """The blade inner product ``conj(c_a) c_b det(A* B)`` of the definition,
    exactly, as a ``Fraction`` or ``Gaussian``."""
    a, b = matrix(factors_a), matrix(factors_b)
    return conj(to_exact(coefficient_a)) * to_exact(coefficient_b) * det(gram(a, b))


def blade_norm(factors, coefficient=1.0) -> float:
    """The blade norm ``sqrt(|c|^2 det(F* F))``, correctly rounded but for
    about 2^-100 (0.0 for a zero blade, or one below the smallest float)."""
    square = real_part(blade_inner(factors, factors, coefficient, coefficient))
    return float(sqrt(square)) if square > 0 else 0.0


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
