"""Exact scalars over Q and Q(i).

A scalar is a Gaussian rational re + im*i with arbitrary-precision
rational parts.  All arithmetic is exact; there is no floating point
anywhere in this package.  The text grammar (used by every file format
and by the CLI) is:

    R        real part only           e.g.  -1/2, 7, 0
    Ri       imaginary part only      e.g.  i, -i, 3/2i
    R+Si     both parts               e.g.  1/2+1/2i, 1-i

where R and S are optionally signed integers or fractions p/q with
q > 0.  Canonical output omits zero parts, prints the imaginary part
last and writes ``i`` rather than ``1i``.

Internally a scalar is the integer triple (a, b, d) with value
(a + b*i)/d, d > 0 and gcd(a, b, d) = 1, which keeps the heavy
arithmetic in plain integers with one gcd per operation.  Only this
module knows the grammar: _read reads text into its triple and _text writes
the canonical text of any triple with d > 0, on integers and math.gcd alone,
for Scalar.parse, str(Scalar) and the documents of postlie.documents.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

__all__ = ["Scalar", "ScalarParseError", "ZERO", "ONE", "I", "sc"]


class ScalarParseError(ValueError):
    """Raised when a scalar string does not conform to the grammar."""


_RAT = r"-?\d+(?:/\d+)?"
_RE_REAL = _re.compile(rf"^({_RAT})$")
_RE_IMAG = _re.compile(rf"^(-?)((?:\d+(?:/\d+)?)?)i$")
_RE_BOTH = _re.compile(rf"^({_RAT})([+-])((?:\d+(?:/\d+)?)?)i$")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:      # more digits than int() reads from text
        raise ScalarParseError("too many digits in %r" % text) from None


def _ratio(text: str):
    """(p, q) with q > 0 of an optionally signed integer or fraction p/q."""
    if "/" in text:
        num, den = text.split("/", 1)
        q = _int(den)
        if q == 0:
            raise ScalarParseError("zero denominator in %r" % text)
        return _int(num), q
    return _int(text), 1


def _read(text: str) -> tuple:
    """The integer triple (a, b, d) of the scalar text: its value is
    (a + b i)/d with d > 0 and gcd(a, b, d) = 1."""
    s = text.strip()
    m = _RE_REAL.match(s)
    if m:
        (p1, q1), (p2, q2) = _ratio(m.group(1)), (0, 1)
    else:
        m = _RE_IMAG.match(s) or _RE_BOTH.match(s)
        if m is None:
            raise ScalarParseError("cannot parse scalar %r" % text)
        *real, sign, mag = m.groups()
        # the imaginary part is read first, as its error is reported first
        p2, q2 = _ratio(mag) if mag else (1, 1)
        p2 = -p2 if sign == "-" else p2
        p1, q1 = _ratio(real[0]) if real else (0, 1)
    d = q1 * q2 // gcd(q1, q2)
    a, b = p1 * (d // q1), p2 * (d // q2)
    g = gcd(a, b, d)
    return a // g, b // g, d // g


def _rational(p: int, q: int) -> str:
    g = gcd(p, q)
    return str(p // g) if g == q else "%d/%d" % (p // g, q // g)


def _text(a: int, b: int, d: int) -> str:
    """The canonical text of (a + b i)/d for any d > 0: each part in lowest
    terms, zero parts left out, the imaginary part last, ``i`` for ``1i``."""
    re_ = _rational(a, d)
    if not b:
        return re_
    im_ = _rational(b, d)
    im_ = "i" if im_ == "1" else "-i" if im_ == "-1" else im_ + "i"
    if not a:
        return im_
    return re_ + im_ if b < 0 else re_ + "+" + im_


def _raw(a: int, b: int, d: int) -> "Scalar":
    s = object.__new__(Scalar)
    object.__setattr__(s, "a", a)
    object.__setattr__(s, "b", b)
    object.__setattr__(s, "d", d)
    return s


def _build(a: int, b: int, d: int) -> "Scalar":
    """Normalise (a + b i)/d, d > 0, to canonical form."""
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


class Scalar:
    """An element of Q(i), kept in canonical (lowest-terms) form."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, int) and isinstance(im, int):
            s = _raw(re, im, 1)
        else:
            re = _exact(re)
            im = _exact(im)
            d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
            s = _build(re.numerator * (d // re.denominator),
                       im.numerator * (d // im.denominator), d)
        object.__setattr__(self, "a", s.a)
        object.__setattr__(self, "b", s.b)
        object.__setattr__(self, "d", s.d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Scalar":
        return _raw(*_read(text))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return _build(self.a * other.d + other.a * self.d, self.b * other.d + other.b * self.d,
                      self.d * other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return _build(self.a * other.d - other.a * self.d, self.b * other.d - other.b * self.d,
                      self.d * other.d)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return _build(self.a * other.a - self.b * other.b, self.a * other.b + self.b * other.a,
                      self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("scalar division by zero")
        norm = other.a * other.a + other.b * other.b
        return _build((self.a * other.a + self.b * other.b) * other.d,
                      (self.b * other.a - self.a * other.b) * other.d,
                      self.d * norm)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.d == 1 and self.b == 0 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real scalar hashes like the int or Fraction it equals
        return hash((self.a, self.b, self.d)) if self.b else hash(Fraction(self.a, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- formatting ------------------------------------------------------

    def __str__(self):
        return _text(self.a, self.b, self.d)

    def __repr__(self):
        return "Scalar(%s)" % self


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError("cannot mix Scalar with %r" % type(value).__name__)


def _exact(value) -> Fraction:
    """One part given to the constructor, as a Fraction; binary floating
    point is refused rather than converted, text is read by the scalar
    grammar (Scalar.parse), and text and Scalars must be real."""
    if isinstance(value, (float, complex)):
        raise TypeError("cannot mix Scalar with %r" % type(value).__name__)
    if isinstance(value, Scalar):
        if value.b:
            raise TypeError("a Scalar part must be real, got %s" % value)
        return value.re
    if isinstance(value, str):
        s = Scalar.parse(value)
        if s.b:
            raise ScalarParseError("%r is not a real part" % value)
        return s.re
    return Fraction(value)


def sc(re=0, im=0) -> Scalar:
    """Shorthand constructor: sc(1, 2) == 1 + 2i, sc("-1/2") parses text."""
    if isinstance(re, str):
        if im != 0:
            raise ValueError("sc(text) takes no imaginary argument")
        return Scalar.parse(re)
    return Scalar(re, im)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
