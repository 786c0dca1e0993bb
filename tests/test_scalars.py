import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie import I, ONE, ZERO, Scalar, ScalarParseError, sc
from postlie.scalars import _build, _read, _text
from vectors import from_rows


def test_modulus_identity():
    z = sc("1/2+1/2i")
    w = sc("1/2-1/2i")
    assert z * w == sc("1/2")


def test_i_squared():
    assert I * I == sc(-1)


def test_division_cross_multiplication_oracle():
    # (-i/2) / (1/2) checked by cross-multiplication
    num = sc("-1/2i")
    den = sc("1/2")
    q = num / den
    assert q == sc("-i")
    assert q * den == num


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        sc(1) / ZERO
    with pytest.raises(ZeroDivisionError):
        I / sc(0)


def _random_scalar(rng):
    return Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
                  Fraction(rng.randint(-6, 6), rng.randint(1, 5)))


def test_field_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * (ONE / a) == ONE
            assert (a / a) == ONE


def test_subtraction_and_negation():
    a = sc("3/4", )
    b = sc("1/4")
    assert a - b == sc("1/2")
    assert -a + a == ZERO
    assert sc(1, 2) - sc(0, 4) == sc(1, -2)


def test_ints_and_fractions_mix_on_either_side():
    assert 2 - sc(1) == ONE
    assert 1 / sc(0, 1) == sc("-i")
    assert sc(1) + 2 == sc(3)
    assert sc(1) * Fraction(1, 2) == sc("1/2")
    assert repr(sc("1/2+i")) == "Scalar(1/2+i)"
    with pytest.raises(ValueError, match="takes no imaginary argument"):
        sc("1", 2)


CANONICAL = [
    "0", "1", "-1", "7", "-1/2", "2/3", "i", "-i", "3/2i", "-3/2i",
    "1/2+1/2i", "1/2-1/2i", "1+i", "1-i", "-2/3+5i", "-2/3-5/7i",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_parse_format_roundtrip(text):
    assert str(Scalar.parse(text)) == text
    if "i" not in text:     # the constructor reads a real part by the same grammar
        assert Scalar(text) == Scalar(0, text) * -I == Scalar.parse(text)


def test_format_canonicalises():
    assert str(Scalar.parse("1i")) == "i"
    assert str(Scalar.parse("-1i")) == "-i"
    assert str(Scalar(Fraction(2, 4))) == "1/2"
    assert str(Scalar(0, Fraction(-2, 4))) == "-1/2i"
    assert str(ZERO) == "0"


def test_random_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        s = _random_scalar(rng)
        assert Scalar.parse(str(s)) == s


# the last three have more digits than int() reads from text
@pytest.mark.parametrize("bad", ["1/0", "abc", "1.5", "i2", "1+", "--1", "1 + i", "+1",
                                 "0.5", "1e3",
                                 pytest.param("9" * 5000, id="long-integer"),
                                 pytest.param("1/" + "9" * 5000, id="long-denominator"),
                                 pytest.param("1+" + "9" * 5000 + "i", id="long-imaginary")])
def test_parse_errors(bad):
    # the constructor reads text by the same grammar, for either part
    for parse in (Scalar.parse, Scalar, lambda text: Scalar(0, text), sc):
        with pytest.raises(ScalarParseError):
            parse(bad)


@pytest.mark.parametrize("text", ["i", "1+i", "-3/2i"])
def test_constructor_text_is_a_real_part(text):
    with pytest.raises(ScalarParseError, match="not a real part"):
        Scalar(text)


def test_canonical_invariants_random():
    from math import gcd
    rng = random.Random(3)
    for _ in range(200):
        s = _random_scalar(rng) * _random_scalar(rng) + _random_scalar(rng)
        assert s.d > 0
        assert gcd(gcd(s.a, s.b), s.d) == 1
        assert s.re == Fraction(s.a, s.d)
        assert s.im == Fraction(s.b, s.d)


def test_equality_and_hash():
    assert sc(2) == 2
    assert sc("1/2") == Fraction(1, 2)
    assert sc(2) != sc(2, 1)
    assert hash(sc("2/4")) == hash(sc("1/2"))
    assert len({sc(1), ONE, sc("2/2")}) == 1
    # a real scalar hashes like the int or Fraction it equals, so sets and
    # dict keys treat them as one value
    for value in (0, 1, -3, 2 ** 70, Fraction(1, 2), Fraction(-7, 3), Fraction(1, 2 ** 70)):
        assert sc(value) == value and hash(sc(value)) == hash(value)
    assert len({sc(1), 1}) == 1 and len({sc("1/2"), Fraction(1, 2)}) == 1
    assert {Fraction(1, 2): "half"}[sc("2/4")] == "half"
    assert len({sc(1, 1), sc(1), 1}) == 2


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.a = 5


@pytest.mark.parametrize("value", [0.1, 0.5, -2.0, 1e30, 1j, complex(1, 0)])
def test_binary_floating_point_is_refused(value):
    # the same TypeError as in arithmetic, never a silent binary expansion
    for make in (lambda: Scalar(value), lambda: Scalar(0, value), lambda: Scalar(ONE.re, value),
                 lambda: sc(value), lambda: sc(1, value), lambda: from_rows([[value]])):
        with pytest.raises(TypeError, match="cannot mix Scalar"):
            make()
    with pytest.raises(TypeError, match="cannot mix Scalar"):
        ONE + value
    assert Scalar(Fraction(1, 10)) == sc("1/10")


def test_a_real_scalar_is_a_part():
    assert Scalar(ONE) == ONE and Scalar(Scalar(1)) == ONE
    assert Scalar(sc("1/2"), sc("-3")) == sc("1/2-3i")
    # a Scalar with an imaginary part is no real or imaginary part
    for make in (lambda: Scalar(I), lambda: Scalar(ONE, I)):
        with pytest.raises(TypeError, match="a Scalar part must be real"):
            make()


# ---------------------------------------------------------------------------
# parsing against the earlier Fraction-based reader
# ---------------------------------------------------------------------------

def _reference_parse(text):
    """Scalar.parse as it read entries through two Fractions."""
    from postlie.scalars import _RE_BOTH, _RE_IMAG, _RE_REAL

    def frac(t):
        if "/" in t:
            num, den = t.split("/", 1)
            if int(den) == 0:
                raise ScalarParseError("zero denominator in %r" % t)
            return Fraction(int(num), int(den))
        return Fraction(int(t))

    s = text.strip()
    m = _RE_REAL.match(s)
    if m:
        return Scalar(frac(m.group(1)))
    m = _RE_IMAG.match(s)
    if m:
        mag = frac(m.group(2)) if m.group(2) else Fraction(1)
        return Scalar(0, -mag if m.group(1) == "-" else mag)
    m = _RE_BOTH.match(s)
    if m:
        mag = frac(m.group(3)) if m.group(3) else Fraction(1)
        return Scalar(frac(m.group(1)), -mag if m.group(2) == "-" else mag)
    raise ScalarParseError("cannot parse scalar %r" % text)


def _outcome(parse, text):
    try:
        s = parse(text)
    except ScalarParseError as exc:
        return "error", str(exc)
    return "value", (s.a, s.b, s.d)


def _random_token(rng):
    def number(signed):
        digits = str(rng.choice((0, 1, 2, 3, 6, 12, 10 ** 20 + 7, 2 ** 70)))
        if rng.random() < 0.5:
            digits += "/" + str(rng.choice((0, 1, 2, 4, 9, 10 ** 19, 3 ** 45)))
        return ("-" if signed and rng.random() < 0.5 else "") + digits

    kind = rng.choice(("real", "imaginary", "both"))
    if kind == "real":
        token = number(True)
    elif kind == "imaginary":
        token = ("-" if rng.random() < 0.5 else "") + (number(False) if rng.random() < 0.7
                                                        else "") + "i"
    else:
        token = number(True) + rng.choice("+-") + (number(False) if rng.random() < 0.7
                                                   else "") + "i"
    return rng.choice(("", " ", "\t")) + token + rng.choice(("", " "))


def test_parse_matches_the_fraction_reader_on_random_tokens():
    rng = random.Random(2024)
    for _ in range(3000):
        token = _random_token(rng)
        assert _outcome(Scalar.parse, token) == _outcome(_reference_parse, token), token


@pytest.mark.parametrize("token", [
    "1/0", "--1", "1/-2", "i/2", "", " ", "1/0i", "1/0+2/0i", "2/0-1/0i", "3+1/0i", "1/0+i",
    "+1", "1.5", "1e3", "i1", "1+", "1++i", "1+-i", "ii", "-", "/2", "1/", "1/2/3", "2i+1",
    "1 + i", "0/0", "-0/5i", "0+0i", "007/014", "-12/8+18/12i",
])
def test_parse_matches_the_fraction_reader_on_edge_tokens(token):
    assert _outcome(Scalar.parse, token) == _outcome(_reference_parse, token)


def test_parse_rejects_malformed_tokens_with_the_same_messages():
    assert _outcome(Scalar.parse, "1/0") == ("error", "zero denominator in '1/0'")
    assert _outcome(Scalar.parse, "1/0+2/0i") == ("error", "zero denominator in '2/0'")
    for token in ("--1", "1/-2", "i/2", ""):
        assert _outcome(Scalar.parse, token) == ("error", "cannot parse scalar %r" % token)


# ---------------------------------------------------------------------------
# formatting against the earlier Fraction-based writer
# ---------------------------------------------------------------------------

def _reference_text(a, b, d):
    """str(Scalar) of (a + b i)/d as it was written through two Fractions."""
    re_, im_ = Fraction(a, d), Fraction(b, d)
    if im_ == 0:
        return str(re_)
    imtxt = "i" if im_ == 1 else "-i" if im_ == -1 else "%si" % im_
    if re_ == 0:
        return imtxt
    return "%s%s%s" % (re_, "+" if im_ > 0 else "", imtxt)


BIG = 2 ** 64


@st.composite
def triples(draw):
    """(a, b, d) with d > 0, not in lowest terms when they share a factor g:
    parts small, beyond 2^64, zero or a unit (+-d, so +-i)."""
    d = draw(st.one_of(st.integers(1, 6), st.integers(BIG, BIG * BIG)))
    part = st.one_of(st.integers(-6, 6), st.integers(-BIG * BIG, BIG * BIG),
                     st.sampled_from([0, d, -d]))
    g = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(BIG, 2 * BIG)))
    return draw(part) * g, draw(part) * g, d * g


@settings(max_examples=500, deadline=None)
@given(triples())
def test_text_matches_the_fraction_writer(triple):
    text = _text(*triple)
    assert text == _reference_text(*triple)
    x = _build(*triple)
    assert str(x) == text
    assert Scalar.parse(text) == x and _read(text) == (x.a, x.b, x.d)


@st.composite
def fraction_pairs(draw):
    """Two Gaussian rationals as (re, im) pairs of Fractions, drawn often over
    one shared denominator and often with a zero imaginary part."""
    shared = draw(st.integers(1, 12))
    numerator = st.one_of(st.integers(-12, 12), st.integers(-BIG, BIG))

    def part(may_vanish):
        if may_vanish and draw(st.booleans()):
            return Fraction(0)
        return Fraction(draw(numerator), draw(st.one_of(st.just(shared), st.integers(1, 12))))
    return [(part(False), part(True)) for _ in range(2)]


@settings(max_examples=500, deadline=None)
@given(fraction_pairs())
def test_arithmetic_matches_the_fraction_formulas(pairs):
    # an independent reference: the field operations on (re, im) pairs
    (a, b), (c, d) = pairs
    x, y = Scalar(a, b), Scalar(c, d)
    cases = [(x + y, (a + c, b + d)), (x - y, (a - c, b - d)),
             (x * y, (a * c - b * d, a * d + b * c))]
    norm = c * c + d * d
    if norm:
        cases.append((x / y, ((a * c + b * d) / norm, (b * c - a * d) / norm)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for got, (re_, im_) in cases:
        assert got == Scalar(re_, im_)
