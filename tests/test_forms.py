import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from tests.conftest import FORM_TOKENS, reference_parse_form

from skewrank import catalog
from skewrank.forms import (Form, _parse_number, binary_gcd, integer_binary_gcd,
                            parse_form, variables)

Q = Fraction

ABC = ("a", "b", "c")
AB = ("a", "b")


def test_add_mul_examples():
    a, b, c = variables(ABC)
    assert (a + b) + (a - b) == 2 * a
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b + c) ** 2 == (a ** 2 + b ** 2 + c ** 2
                                + 2 * a * b + 2 * a * c + 2 * b * c)


def test_ring_mismatch():
    a, _, _ = variables(ABC)
    s, _ = variables(("s", "t"))
    with pytest.raises(ValueError):
        a + s
    with pytest.raises(ValueError):
        a * s


def test_evaluate_examples():
    a, b, c = variables(ABC)
    assert (a ** 2 * b).evaluate((2, 3, 0)) == 12
    assert (a + b + c).evaluate((1, 1, 1)) == 3
    f = a ** 3 + 2 * a * b * c
    assert f.evaluate((0, 0, 0)) == 0
    with pytest.raises(ValueError):
        a.evaluate((1, 2))


def test_linear_substitute_examples():
    a, b = variables(AB)
    s, t = variables(("s", "t"))
    assert (a * b).linear_substitute([s + t, s - t]) == s ** 2 - t ** 2
    f = a ** 2 + 3 * a * b
    assert f.linear_substitute([a, b]) == f
    assert (a * b).linear_substitute([Form.zero(AB), b]).is_zero()
    with pytest.raises(ValueError):
        (a * b).linear_substitute([s * t, s])
    with pytest.raises(ValueError):
        a.linear_substitute([s])


def test_parse_and_str_round_trip():
    f = parse_form("2*a^2*b - 3/2*c + 1", ABC)
    assert f.coefficient((2, 1, 0)) == 2
    assert f.coefficient((0, 0, 1)) == Q(-3, 2)
    assert f.coefficient((0, 0, 0)) == 1
    assert parse_form(str(f), ABC) == f
    assert parse_form("c-b", ABC) == parse_form("-b + c", ABC)
    assert parse_form("0", ABC).is_zero()
    with pytest.raises(ValueError):
        parse_form("x + y", ABC)


def test_binary_gcd_examples():
    a, b = variables(AB)
    assert binary_gcd([a ** 2 * b, a * b ** 2]) == a * b
    assert binary_gcd([a ** 2, b ** 2]) == Form.constant(AB, 1)
    # independent oracle: factor both quadratics over Q by rational roots;
    # t^2 - 1 = (t - 1)(t + 1), t^2 + 2t + 1 = (t + 1)^2, shared factor t + 1
    assert binary_gcd([a ** 2 - b ** 2, a ** 2 + 2 * a * b + b ** 2]) == a + b
    # one nonzero input is normalised too
    assert binary_gcd([Form.zero(AB), -6 * a ** 2 * b + 3 * b ** 3]) == \
        a ** 2 * b - Q(1, 2) * b ** 3


def _times(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def test_integer_binary_gcd_recovers_a_common_factor():
    # f and g are coprime by construction: products of linear factors
    # (p*t - q) with distinct roots q/p, g possibly times t^2 + k (k > 0,
    # no real root); then gcd(f*h, g*h) is h, made primitive with a
    # positive leading coefficient, and the valuation is the least one
    rng = random.Random("integer-gcd")
    for _ in range(200):
        roots = set()
        while len(roots) < 6:
            roots.add(Q(rng.randint(-9, 9), rng.randint(1, 5)))
        roots = list(roots)
        f, g = [1], [1]
        for k, r in enumerate(roots[:rng.randint(2, 6)]):
            factor = [-r.numerator, r.denominator]
            if k % 2:
                f = _times(f, factor)
            else:
                g = _times(g, factor)
        if rng.random() < 0.5:
            g = _times(g, [rng.randint(1, 9), 0, 1])
        h = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))] + [rng.choice((-3, -1, 2, 5))]
        scale = rng.choice((1, -1, 6, -35))
        fh, gh = [scale * c for c in _times(f, h)], [2 * c for c in _times(g, h)]
        content = gcd(*h) if h[-1] > 0 else -gcd(*h)
        vf, vg = rng.randint(0, 3), rng.randint(0, 3)
        got = integer_binary_gcd([(fh, vf), (gh, vg)])
        assert got == ([c // content for c in h], min(vf, vg))
    assert integer_binary_gcd([]) == (None, None)
    assert integer_binary_gcd([([0, 4, -6], 2)]) == ([0, -2, 3], 2)


def test_binary_gcd_errors():
    a, b = variables(AB)
    with pytest.raises(ValueError):
        binary_gcd([])
    with pytest.raises(ValueError):
        binary_gcd([variables(ABC)[0]])
    with pytest.raises(ValueError):
        binary_gcd([a + a * b])   # not homogeneous


coeffs = st.integers(-5, 5).map(Q)
exps3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
forms3 = st.dictionaries(exps3, coeffs, max_size=4).map(lambda d: Form(ABC, d))
points3 = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, derandomize=True)
@given(forms3, forms3, forms3)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f + g == g + f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, derandomize=True)
@given(forms3, forms3, points3)
def test_evaluate_is_a_homomorphism(f, g, p):
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)


form_texts = st.lists(st.sampled_from(FORM_TOKENS), max_size=10).map("".join)


@settings(max_examples=300, derandomize=True)
@given(form_texts)
def test_parse_form_returns_a_form_or_raises_value_error(text):
    try:
        f = parse_form(text, ABC)
    except ValueError:
        return
    assert isinstance(f, Form)


def _parsed(parse, text, vars):
    """The Form, its text and its coefficient types, or the error message."""
    try:
        f = parse(text, vars)
    except (ValueError, TypeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return f, str(f), {type(c) for c in f._terms.values()} - {Fraction}


def _caret_after_sign(text):
    """True when some '^' has no variable in its own term but a variable
    in an earlier one: the reference then reads that earlier variable."""
    earlier = here = False
    for _, name, op in re.findall(r"(\d+)|([A-Za-z_]\w*)|([-+^])", text):
        if name:
            here = True
        elif op == "^" and earlier and not here:
            return True
        elif op in ("+", "-"):
            earlier, here = earlier or here, False
    return False


def _malformed_exponent(text):
    """True when a '^' or a '*' follows a '^', or an exponent is written
    p/q: the reference skips the former and reads the latter as a
    reduced fraction."""
    return re.search(r"\^\s*(?:[*^]|\d+/\d+)", text) is not None


def _dangling_sign(text):
    """True when a sign is followed by another sign or by the end of the
    text (with only blanks or '*' between): the reference drops it."""
    return re.search(r"[-+][\s*]*(?:[-+]|$)", text) is not None


def _entry_texts():
    """Every entry string to_json prints for the catalog and for a seeded
    dense congruence U^T A U of each entry, U unit upper triangular."""
    texts = set()
    for name in catalog.names():
        A = catalog.get(name).matrix
        r = random.Random(name)
        U = [[r.randint(-2, 2) if i < j else int(i == j) for j in range(A.order)]
             for i in range(A.order)]
        for M in (A, A.congruence_transform(U)):
            texts.update((e["form"], M.vars) for e in M.to_json()["upper"])
    return sorted(texts)


def test_term_reader_matches_the_reference_parser():
    r = random.Random(28)
    short = {"".join(p) for k in range(5)
             for p in itertools.product(FORM_TOKENS, repeat=k)}
    alphabet = FORM_TOKENS + ["4/2", "ab", "_q"]
    rand = {"".join(r.choices(alphabet, k=r.randint(1, 12))) for _ in range(20000)}
    cases = [(t, ABC) for t in sorted(short | rand)] + _entry_texts()
    family = signs = exponents = 0
    for text, vars in cases:
        got, want = _parsed(parse_form, text, vars), _parsed(reference_parse_form, text, vars)
        if got == want:
            continue
        if _caret_after_sign(text) and got == "ValueError: misplaced '^' in %r" % text:
            family += 1
        elif _dangling_sign(text) and got == "ValueError: dangling sign in %r" % text:
            signs += 1
        else:
            assert _malformed_exponent(text), (text, got, want)
            assert got in ("ValueError: expected exponent in %r" % text,
                           "ValueError: bad exponent in %r" % text), (text, got, want)
            exponents += 1
    assert family > 100 and signs > 100 and exponents > 100
    # the reference raised TypeError here
    assert _parsed(parse_form, "a+^2", ABC) == "ValueError: misplaced '^' in 'a+^2'"
    assert _parsed(parse_form, "a-2^3", ABC) == "ValueError: misplaced '^' in 'a-2^3'"
    # the reference read each of these as a^2
    for text, fault in (("a^^2", "expected exponent"), ("a^*2", "expected exponent"),
                        ("a^4/2", "bad exponent")):
        assert str(reference_parse_form(text, ABC)) == "a^2"
        assert _parsed(parse_form, text, ABC) == "ValueError: %s in %r" % (fault, text)
    # the reference dropped the sign that has no term after it
    for text, read in (("a - - b", "a - b"), ("- - a", "-a"), ("a+", "a")):
        assert str(reference_parse_form(text, ABC)) == read
        assert _parsed(parse_form, text, ABC) == "ValueError: dangling sign in %r" % text


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("7", 7), ("-7", -7), (" +7 ", 7), ("3/6", Q(1, 2)), ("- 1/2", Q(-1, 2)),
    ("10000000000000000000000000001", 10 ** 28 + 1)])
def test_a_number_is_one_signed_rational(text, value):
    got = _parse_number(text)
    assert got == value and type(got) is Fraction


# test_cli.py passes sums, exponent notation and 1/0 as --center coordinates
@pytest.mark.parametrize("text", [" ", "1 1", "a", "2*a", "2^2", "-", "--1"])
def test_a_number_refuses_anything_else(text):
    with pytest.raises(ValueError):
        _parse_number(text)


def test_substitution_composition_law(rng):
    from skewrank import linalg

    a, b, c = variables(ABC)
    f = parse_form("a^2*b - 2*b*c^2 + a*b*c", ABC)

    def images(M):
        return [M[i][0] * a + M[i][1] * b + M[i][2] * c for i in range(3)]

    for _ in range(10):
        L = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
             for _ in range(3)]
        M = [[Q(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        # x_i -> sum_j L_ij x_j, then x_j -> sum_k M_jk x_k: x_i -> (LM)_ik x_k
        g = f.linear_substitute(images(L)).linear_substitute(images(M))
        assert g == f.linear_substitute(images(linalg.mat_mul(L, M)))


def test_binary_gcd_divides_and_coprime(rng):
    a, b = variables(AB)
    for _ in range(20):
        d = rng.randint(0, 2)
        g0 = (a + b) ** d
        f1 = g0 * (a ** 2 + b ** 2)
        f2 = g0 * (a * b)
        g = binary_gcd([f1, f2])
        # g divides both inputs exactly: check via degree-wise division oracle
        for f in (f1, f2):
            q = _divide_exact(f, g)
            assert q is not None and q * g == f
        assert binary_gcd([_divide_exact(f1, g), _divide_exact(f2, g)]).degree() == 0


def _divide_exact(f, g):
    """Exact division of binary forms; None when not divisible."""
    if f.is_zero():
        return f
    ring = f.vars
    rem = f
    q = Form.zero(ring)
    ge, gc = g.leading_term()
    while not rem.is_zero():
        fe, fc = rem.leading_term()
        de = tuple(x - y for x, y in zip(fe, ge))
        if any(x < 0 for x in de):
            return None
        t = Form(ring, {de: fc / gc})
        q = q + t
        rem = rem - t * g
    return q
