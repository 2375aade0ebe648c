"""Exact multivariate polynomial arithmetic over the rationals.

A :class:`Form` is a polynomial in a fixed tuple of named variables with
``fractions.Fraction`` coefficients, stored as a map from exponent vectors
to nonzero coefficients.  Forms are immutable, hashable and safe to share;
every operation returns a new value.  Terms are ordered graded reverse
lexicographically (variables in declaration order) wherever an order
matters: printing and leading terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .linalg import integer_rows

Q = Fraction


def degrevlex_key(exps):
    """Sort key: larger key == larger monomial in degrevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


class Form:
    """A polynomial with exact rational coefficients in named variables."""

    __slots__ = ("vars", "_terms", "_hash")

    def __init__(self, vars, terms=()):
        vars = tuple(str(v) for v in vars)
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names: %r" % (vars,))
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise ValueError("exponent vector %r does not match %d variables"
                                 % (exps, len(vars)))
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            c = Q(c)
            if exps in clean:
                c = clean[exps] + c
            if c:
                clean[exps] = c
            elif exps in clean:
                del clean[exps]
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_clean(cls, vars, terms):
        """Form of a dict, used as is, from exponent tuples (one entry per
        variable, none negative) to nonzero Fractions; vars must be a
        tuple of distinct names.  Skips the checks of the constructor."""
        f = object.__new__(cls)
        object.__setattr__(f, "vars", vars)
        object.__setattr__(f, "_terms", terms)
        object.__setattr__(f, "_hash", None)
        return f

    @classmethod
    def zero(cls, vars):
        return cls(vars, ())

    @classmethod
    def constant(cls, vars, c):
        vars = tuple(vars)
        return cls(vars, [((0,) * len(vars), Q(c))])

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, [(exps, Q(1))])

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self._terms

    def terms(self):
        """Terms as (exponents, coefficient), degrevlex descending."""
        return [(e, self._terms[e]) for e in
                sorted(self._terms, key=degrevlex_key, reverse=True)]

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), Q(0))

    def degree(self):
        """Total degree; -1 for the zero form."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self, degree=None):
        if not self._terms:
            return True
        degs = {sum(e) for e in self._terms}
        if len(degs) != 1:
            return False
        return degree is None or degs == {degree}

    def leading_term(self):
        """(exponents, coefficient) of the degrevlex-largest monomial."""
        if not self._terms:
            raise ValueError("zero form has no leading term")
        e = max(self._terms, key=degrevlex_key)
        return e, self._terms[e]

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other):
        if self.vars != other.vars:
            raise ValueError("ring mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other):
        if not isinstance(other, Form):
            other = Form.constant(self.vars, other)
        self._check_ring(other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, Q(0)) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return Form(self.vars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Form(self.vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            other = Form.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Form):
            c = Q(other)
            if not c:
                return Form.zero(self.vars)
            return Form(self.vars, {e: k * c for e, k in self._terms.items()})
        self._check_ring(other)
        acc = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, Q(0)) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return Form(self.vars, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative power of a form")
        result = Form.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Form) and self.vars == other.vars
                and self._terms == other._terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._terms)

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, point):
        """Exact value at a point given as a sequence of rationals."""
        point = [Q(x) for x in point]
        if len(point) != len(self.vars):
            raise ValueError("point length %d does not match %d variables"
                             % (len(point), len(self.vars)))
        total = Q(0)
        for exps, c in self._terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def linear_substitute(self, images):
        """Replace each variable by a linear form in a common target ring.

        Every image must be zero or homogeneous of degree 1; they must all
        live in the same ring, which becomes the ring of the result.
        """
        images = list(images)
        if len(images) != len(self.vars):
            raise ValueError("need one image per variable")
        target = None
        for g in images:
            if not isinstance(g, Form):
                raise ValueError("images must be Forms")
            if target is None:
                target = g.vars
            elif g.vars != target:
                raise ValueError("ring mismatch among images")
            if not g.is_zero() and not g.is_homogeneous(1):
                raise ValueError("non-linear image %s" % g)
        if target is None:
            raise ValueError("need one image per variable")
        out = Form.zero(target)
        for exps, c in self._terms.items():
            term = Form.constant(target, c)
            for g, e in zip(images, exps):
                if e:
                    term = term * g ** e
            out = out + term
        return out

    # -- text format ---------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, c in self.terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Form(%r, %s)" % (list(self.vars), str(self))


def variables(names):
    """The variable forms of the ring with the given names."""
    names = tuple(names)
    return tuple(Form.variable(names, n) for n in names)


# -- string grammar ----------------------------------------------------
#
# Terms joined by ``+`` and ``-``; a term is an optional coefficient (``3``,
# ``3/2``) and factors ``var`` or ``var^exp``, ``exp`` a plain integer and
# the next token after its ``^``; ``*`` is optional between other tokens.
# Each sign is followed by a term, so ``a - - b`` and ``a +`` are errors.
# All reading state lives in one term: each sign starts a fresh one, so a
# ``^`` raises a variable of its own term only.  Coefficients stay ``int``
# unless written ``p/q``, and become Fractions only when a Form is built.

_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|([A-Za-z_][A-Za-z0-9_]*)|([-+^*]))")


def _tokens(text):
    """The (number, denominator, name, operator) groups of the tokens of
    text; a character outside the grammar raises ValueError."""
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("cannot parse %r at position %d" % (text, pos))
            break
        tokens.append(m.groups())
        pos = m.end()
    return tokens


def _parse_terms(text, vars):
    """{exponent tuple: nonzero int or Fraction} of the polynomial text in
    the variable names vars.  A malformed text raises ValueError, a
    character outside the grammar before any other fault."""
    index = {v: i for i, v in enumerate(vars)}
    tokens = _tokens(text)
    terms = {}
    sign, signed, coef, exps, last, caret = 1, False, None, None, None, False
    for num, den, name, op in tokens + [(None,) * 4]:
        if num is not None:
            if den is not None and not int(den):
                raise ValueError("zero denominator in %r" % text)
            if caret:
                if den is not None:
                    raise ValueError("bad exponent in %r" % text)
                exps[last] += int(num) - 1
                last, caret = None, False
            elif exps is not None or coef is not None:
                raise ValueError("unexpected number in %r" % text)
            else:
                coef = int(num) if den is None else Q(int(num), int(den))
        elif name is not None:
            if caret:
                raise ValueError("expected exponent in %r" % text)
            if name not in index:
                raise ValueError("unknown variable %r (ring %r)" % (name, vars))
            if exps is None:
                exps = [0] * len(vars)
            last = index[name]
            exps[last] += 1
        elif caret:                     # an operator or the end, not an exponent
            raise ValueError(("expected exponent in %r" if op
                              else "dangling '^' in %r") % text)
        elif op == "^":
            if last is None:
                raise ValueError("misplaced '^' in %r" % text)
            caret = True
        elif op != "*":                 # a sign, or None: the term ends
            if exps is not None or coef is not None:
                e = (0,) * len(vars) if exps is None else tuple(exps)
                c = terms.get(e, 0) + sign * (1 if coef is None else coef)
                if c:
                    terms[e] = c
                else:
                    terms.pop(e, None)
            elif signed:                # a sign with no term after it
                raise ValueError("dangling sign in %r" % text)
            sign, coef, exps, last = -1 if op == "-" else 1, None, None, None
            signed = op is not None
    return terms


def _parse_number(text):
    """The rational number of a one-term text with no variables, [-]p or
    [-]p/q, read by `_parse_terms`; an empty text or a sum of terms, such
    as 1+1 or 1/2-1/2, raises ValueError."""
    tokens = _tokens(text)
    if not tokens or any(op in ("+", "-") for *_, op in tokens[1:]):
        raise ValueError("%r is not one number" % text.strip())
    return Q(_parse_terms(text, ()).get((), 0))


def parse_form(text, vars):
    """Parse ``coef*var^exp*...`` terms joined by ``+``/``-``.

    Examples: ``"a"``, ``"c-b"``, ``"2*a^2*b - 3/2*c"``, ``"0"``.
    """
    vars = tuple(vars)
    terms = _parse_terms(text, vars)
    names = tuple(str(v) for v in vars)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names: %r" % (names,))
    return Form._from_clean(names, {e: Q(c) for e, c in terms.items()})


# -- the binary GCD ------------------------------------------------------


def _primitive(u):
    """Nonzero integer list u over its content, last entry positive."""
    g = gcd(*u) if u[-1] > 0 else -gcd(*u)
    return [c // g for c in u]


def _prem(u, v):
    """Primitive pseudo-remainder of u by v, little-endian integer lists
    with nonzero last entries; [] when v divides u."""
    while len(u) >= len(v):
        g = gcd(v[-1], u[-1])
        x, y, shift = v[-1] // g, u[-1] // g, len(u) - len(v)
        u = [x * c for c in u]
        for i, c in enumerate(v, shift):
            u[i] -= y * c
        while u and not u[-1]:
            u.pop()
    return _primitive(u) if u else u


def dehomogenised(terms, degree):
    """(coeffs, val) of the nonzero binary form sum(c * a^i * b^(degree - i))
    over the pairs (i, c) of `terms`: coeffs[i] = c up to the top power of
    a, and val = degree - top, the power of b that divides the form."""
    terms = dict(terms)
    top = max(terms)
    return [terms.get(i, 0) for i in range(top + 1)], degree - top


def integer_binary_gcd(polys):
    """GCD of nonzero binary forms given as integer (coeffs, val) pairs
    (see `dehomogenised`), in the same shape: coeffs primitive with a
    positive last entry, val the least val.  Euclid on primitive
    pseudo-remainders; (None, None) for no input."""
    g = val = None
    for u, v in polys:
        val = v if val is None else min(val, v)
        g, u = _primitive(u), g
        while u:
            g, u = u, _prem(g, u)
        if val == 0 and len(g) == 1:
            break
    return g, val


def binary_gcd(forms):
    """Greatest common divisor of homogeneous forms in two variables.

    The result is normalised so that the coefficient of the highest power
    of the first variable is 1; coprime inputs give the constant form 1.
    """
    forms = list(forms)
    if not forms:
        raise ValueError("empty input")
    ring = None
    for f in forms:
        if not isinstance(f, Form) or len(f.vars) != 2:
            raise ValueError("binary_gcd needs forms in exactly 2 variables")
        if ring is None:
            ring = f.vars
        elif f.vars != ring:
            raise ValueError("ring mismatch")
        if not f.is_homogeneous():
            raise ValueError("non-homogeneous input %s" % f)
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        raise ValueError("gcd of all-zero input")
    polys = []
    for f in nonzero:
        (cs,), _ = integer_rows([f._terms.values()])
        polys.append(dehomogenised(zip((ea for ea, _ in f._terms), cs), f.degree()))
    g, val = integer_binary_gcd(polys)
    top = len(g) - 1
    return Form._from_clean(ring, {(i, val + top - i): Q(c, g[-1])
                                   for i, c in enumerate(g) if c})
