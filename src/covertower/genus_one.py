"""The torus case, where everything is linear algebra over the rationals.

Finite-index subgroups of Z^2 are row lattices of integer 2x2 matrices,
canonicalized by Hermite normal form.  Identifications between sublattices
induce rational Mobius transformations of the upper half-plane acting on
the modulus of the quotient torus; composition is matrix multiplication
and the action has dense orbits, realized constructively through rational
approximation of the target coordinates.

Convention: lattice vectors are rows, and the Mobius matrix [[a, b], [c, d]]
sends tau to (a*tau + b)/(c*tau + d).  Only orientation-preserving maps
(positive determinant) are admitted.

Arithmetic runs on plain integers.  Exact evaluation puts each image
coordinate over one common denominator and reduces it once, and products
are normalized with one gcd.  The public constructors and the
``mobius_from_*`` functions validate their input; matrices and points this
module computes from validated values are built without validating them
again.

A validated coordinate is a ``Fraction`` or a finite ``float``, so a point
is exact iff neither coordinate is a float: exactness is read from the
concrete type, with no check against the numeric ABCs, and a point with
one float coordinate takes the float path.  Points and Mobius maps are
slotted frozen dataclasses, with no per-instance ``__dict__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf
from typing import Iterator, Sequence, Union

from .errors import NotAnIsomorphism, SingularMatrix

IntMatrix = tuple[tuple[int, int], tuple[int, int]]
Scalar = Union[Fraction, float]

_new = object.__new__
_set = object.__setattr__


def _det(m: Sequence[Sequence[int]]) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _integer(x) -> int:
    """An integer-valued entry as an int; anything else is rejected, not truncated."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError("matrix entries must be integers")
    return n


def _int_matrix(m: Sequence[Sequence[int]]) -> IntMatrix:
    return (
        (_integer(m[0][0]), _integer(m[0][1])),
        (_integer(m[1][0]), _integer(m[1][1])),
    )


def _mat_mul(m: Sequence[Sequence[int]], n: Sequence[Sequence[int]]) -> IntMatrix:
    return (
        (
            m[0][0] * n[0][0] + m[0][1] * n[1][0],
            m[0][0] * n[0][1] + m[0][1] * n[1][1],
        ),
        (
            m[1][0] * n[0][0] + m[1][1] * n[1][0],
            m[1][0] * n[0][1] + m[1][1] * n[1][1],
        ),
    )


@dataclass(frozen=True)
class SublatticeMatrix:
    """Finite-index sublattice of Z^2 in upper-triangular Hermite form."""

    entries: IntMatrix

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.entries
        for x in (a, b, c, d):
            if not isinstance(x, int):
                raise ValueError("lattice entries must be integers")
        if c != 0 or a <= 0 or d <= 0 or not 0 <= b < d:
            raise ValueError("entries are not in Hermite normal form")

    @property
    def determinant(self) -> int:
        return self.entries[0][0] * self.entries[1][1]


def hnf(entries: Sequence[Sequence[int]]) -> SublatticeMatrix:
    """Hermite normal form of the row lattice spanned by an integer matrix."""
    (p, q), (r, s) = _int_matrix(entries)
    if p * s - q * r == 0:
        raise SingularMatrix("rows do not span a finite-index sublattice")
    while r != 0:
        k = p // r
        p, q = p - k * r, q - k * s
        p, q, r, s = r, s, p, q
    if p < 0:
        p, q = -p, -q
    if s < 0:
        s = -s
    q -= (q // s) * s
    return SublatticeMatrix(((p, q), (0, s)))


@dataclass(frozen=True, slots=True)
class RationalMobius:
    """Element of the orientation-preserving rational Mobius group.

    Stored as the unique primitive integer matrix with positive
    determinant whose first nonzero entry (reading a, b, c, d) is
    positive.
    """

    entries: IntMatrix

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.entries
        g = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
        if g != 1:
            raise ValueError("matrix is not primitive")
        if _det(self.entries) <= 0:
            raise ValueError("determinant must be positive")
        lead = next(x for x in (a, b, c, d) if x != 0)
        if lead < 0:
            raise ValueError("leading nonzero entry must be positive")

    @property
    def determinant(self) -> int:
        return _det(self.entries)


def _mobius(a: int, b: int, c: int, d: int) -> RationalMobius:
    """Canonical representative of an integer matrix with ad - bc > 0.

    The caller guarantees the determinant, so the result is built without
    running the validator.  With a positive determinant, a and b are not
    both zero, so the leading entry is a unless a is zero.
    """
    g = gcd(a, b, c, d)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    m = _new(RationalMobius)
    _set(m, "entries", ((a // g, b // g), (c // g, d // g)))
    return m


def mobius_from_integer_matrix(entries: Sequence[Sequence[int]]) -> RationalMobius:
    """Normalize an integer matrix to its canonical Mobius representative."""
    (a, b), (c, d) = _int_matrix(entries)
    det = a * d - b * c
    if det == 0:
        raise SingularMatrix("matrix does not act on the upper half-plane")
    if det < 0:
        raise ValueError("orientation-reversing matrices are not admitted")
    return _mobius(a, b, c, d)


def mobius_from_rational_matrix(
    entries: Sequence[Sequence[Fraction]],
) -> RationalMobius:
    rows = [[Fraction(x) for x in row] for row in entries]
    scale = 1
    for row in rows:
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [[int(x * scale) for x in row] for row in rows]
    return mobius_from_integer_matrix(ints)


def identity_mobius() -> RationalMobius:
    return RationalMobius(((1, 0), (0, 1)))


def compose_mobius(m: RationalMobius, n: RationalMobius) -> RationalMobius:
    """(m compose n)(tau) = m(n(tau)); exact matrix product, renormalized."""
    (a, b), (c, d) = m.entries
    (e, f), (g, h) = n.entries
    return _mobius(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def covering_modulus_map(lattice: SublatticeMatrix) -> RationalMobius:
    """Mobius map from the base modulus to the sublattice torus modulus.

    The row basis (a, b), (0, d) spans the lattice Z(a*tau+b) + Z*d, whose
    modulus is (a*tau+b)/d; in general the map is the fractional linear
    transformation with the lattice matrix itself.
    """
    return mobius_from_integer_matrix(lattice.entries)


def vaut_as_matrix(
    src: SublatticeMatrix,
    dst: SublatticeMatrix,
    iso: Sequence[Sequence[int]],
) -> RationalMobius:
    """Rational matrix induced by identifying two sublattices.

    ``iso`` is an integer change of coordinates carrying src basis rows to
    dst basis rows; it must be a bijection (determinant +-1) and preserve
    orientation (determinant +1).  The induced map on Z^2 tensor Q is
    src^{-1} * iso * dst in the row convention.  Since src^{-1} is
    adj(src) / det(src) with det(src) > 0, and a positive scalar does not
    change a Mobius map, the map is adj(src) * iso * dst, whose
    determinant det(src) * det(dst) is positive.
    """
    iso_t = _int_matrix(iso)
    d = _det(iso_t)
    if abs(d) != 1:
        raise NotAnIsomorphism("identification is not a lattice bijection")
    if d != 1:
        raise NotAnIsomorphism("identification reverses orientation")
    (a, b), (_, dd) = src.entries
    (p, q), (r, s) = _mat_mul(((dd, -b), (0, a)), _mat_mul(iso_t, dst.entries))
    return _mobius(p, q, r, s)


def _coordinate(value) -> Scalar:
    """A finite float or a Fraction as it is, an int as a Fraction."""
    if isinstance(value, float):
        if not -inf < value < inf:
            raise ValueError("coordinates must be finite")
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, Fraction):
        raise ValueError("coordinates must be rational or float")
    return value


@dataclass(frozen=True, slots=True)
class UpperHalfPoint:
    """Point of the upper half-plane; exact when neither part is a float."""

    real: Scalar
    imag: Scalar

    def __post_init__(self) -> None:
        real, imag = self.real, self.imag
        x, y = _coordinate(real), _coordinate(imag)
        if not y > 0:
            raise ValueError("imaginary part must be positive")
        if x is not real:
            _set(self, "real", x)
        if y is not imag:
            _set(self, "imag", y)

    @property
    def exact(self) -> bool:
        return not (isinstance(self.real, float) or isinstance(self.imag, float))

    def as_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))


def _point(real: Scalar, imag: Scalar) -> UpperHalfPoint:
    """A point whose coordinates are two Fractions or two floats, imag > 0.

    The caller guarantees both, so the validator is not run again.
    """
    p = _new(UpperHalfPoint)
    _set(p, "real", real)
    _set(p, "imag", imag)
    return p


def i_point() -> UpperHalfPoint:
    return UpperHalfPoint(Fraction(0), Fraction(1))


def act(m: RationalMobius, tau: UpperHalfPoint) -> UpperHalfPoint:
    """(a*tau+b)/(c*tau+d); exact on exact points, float otherwise.

    For tau = p/q + i*r/s, with u = c*p + d*q and v = a*p + b*q, the image
    is (u*v*s^2 + a*c*q^2*r^2)/D + i*det*r*q^2*s/D where
    D = u^2*s^2 + c^2*q^2*r^2, so each coordinate is reduced once.
    """
    (a, b), (c, d) = m.entries
    x, y = tau.real, tau.imag
    if not (isinstance(x, float) or isinstance(y, float)):
        p, q = x.numerator, x.denominator
        r, s = y.numerator, y.denominator
        u, v = c * p + d * q, a * p + b * q
        qr, ss = q * r, s * s
        cqr = c * qr
        den = u * u * ss + cqr * cqr
        return _point(
            Fraction(u * v * ss + a * cqr * qr, den),
            Fraction((a * d - b * c) * qr * q * s, den),
        )
    z = complex(x, y)
    w = (a * z + b) / (c * z + d)
    if not w.imag > 0:
        # Float underflow can put an image on the real axis.
        raise ValueError("imaginary part must be positive")
    if not (w.imag < inf and -inf < w.real < inf):
        # Float overflow can put an image at infinity.
        raise ValueError("coordinates must be finite")
    return _point(w.real, w.imag)


def _distance_squared(p: UpperHalfPoint, q: UpperHalfPoint) -> Scalar:
    if p.exact and q.exact:
        return (p.real - q.real) ** 2 + (p.imag - q.imag) ** 2
    return abs(p.as_complex() - q.as_complex()) ** 2


def _approximants(x: Scalar) -> Iterator[tuple[int, int, bool]]:
    """``Fraction(x).limit_denominator(16**k)`` for k = 1, 2, ..., in turn.

    Yields (numerator, denominator, exact) in lowest terms, with ``exact``
    true once the bound reaches x's own denominator.  The continued
    fraction of x is expanded once, by the Euclidean algorithm on
    ``x.as_integer_ratio()``; each bound resumes the expansion where the
    last one stopped and picks the last convergent p1/q1 under the bound
    or the best semiconvergent beside it (Khinchin, *Continued Fractions*,
    ch. II).  The two lie on opposite sides of x, 1/(q1*(q0+k*q1)) apart,
    and p1/q1 lies d/(q1*den) from x, with d the expansion's current
    remainder, so ``2*d*(q0+k*q1) <= den`` picks the convergent, ties
    included, as ``limit_denominator`` does.
    """
    num, den = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    bound = 16
    while den > bound:
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        if 2 * d * (q0 + k * q1) <= den:
            yield p1, q1, False
        else:
            yield p0 + k * p1, q0 + k * q1, False
        bound *= 16
    while True:
        yield num, den, True


def dense_orbit_approx(
    source: UpperHalfPoint,
    target: UpperHalfPoint,
    eps: Scalar,
) -> RationalMobius:
    """A rational Mobius map carrying source within eps of target.

    Constructed, never searched: an exact affine map normalizes the source
    to i, and the affine map tau -> py*tau + px carries i to px + i*py,
    where px and py are the best rational approximations of the target
    coordinates with denominators up to 16, 256, 4096, ..., grown until
    the verified error beats eps.

    Each target coordinate is expanded into its continued fraction once
    (``_approximants``), so a new bound costs a few integer steps, and the
    approximations are exactly those of ``Fraction.limit_denominator``.
    The squared error is compared with eps squared in integers, through
    ``as_integer_ratio``, which decides the same exact float-vs-rational
    question as ``err_sq < Fraction(eps) ** 2``.  Exact rational targets
    are eventually hit exactly; a float target whose exact coordinates
    still miss eps raises ``ValueError``.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps == inf:
        raise ValueError("eps must be finite")
    p0, q0 = source.real.as_integer_ratio()
    r0, s0 = source.imag.as_integer_ratio()
    # Ratios in lowest terms: equal points, and no Fraction from a float.
    if (p0, q0, r0, s0) == (
        *target.real.as_integer_ratio(), *target.imag.as_integer_ratio()
    ):
        return identity_mobius()
    # to_i = [[1, -x0], [0, y0]] cleared to integers sends the source to i.
    t11, t12, t22 = q0 * s0, -p0 * s0, r0 * q0
    eps_n, eps_d = eps.as_integer_ratio()
    eps_n2, eps_d2 = eps_n * eps_n, eps_d * eps_d
    for (n2, d2, x_exact), (n1, d1, y_exact) in zip(
        _approximants(target.real), _approximants(target.imag)
    ):
        if n1 > 0:
            # [[n1/d1, n2/d2], [0, 1]] times to_i, over d1*d2.
            candidate = _mobius(
                n1 * d2 * t11, n1 * d2 * t12 + n2 * d1 * t22, 0, d1 * d2 * t22
            )
            image = act(candidate, source)
            err_sq = _distance_squared(image, target)
            # An infinite or nan float error is never below eps.
            if err_sq < inf:
                n, d = err_sq.as_integer_ratio()
                if n * eps_d2 < eps_n2 * d:
                    return candidate
            if x_exact and y_exact:
                # Exact coordinates were reached, so only float roundoff
                # remains; exact targets return above with error zero.
                raise ValueError(
                    "requested eps is below floating-point resolution"
                )
