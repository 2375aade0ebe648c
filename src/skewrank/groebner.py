"""Buchberger engine over Q for homogeneous ideals in few variables.

Provides reduced Groebner bases in graded reverse lexicographic order
(the only order used anywhere), projective emptiness through the
pure-power criterion on the leading-term ideal, and the dimension and
degree of any projective scheme, read off the exact Hilbert series of
the leading-term ideal.

This module owns the one packed polynomial format of the package.  A
monomial is a single integer, its ``dkey``: one B-bit field per variable
plus the total degree in the top field (`_make_layout`), so keys add
under multiplication and divisibility is a guard-bit test.  Its ``okey``
orders monomials graded reverse lexicographically as plain integers.
Polynomials are held as dicts {dkey: nonzero integer}: `skewrank.skew`
decodes its packed Pfaffians this way, and an `Ideal` stores its
generators this way only.  `Ideal._from_packed` takes such dicts as they
are; text generators are read by `forms._parse_terms` and packed by
`_pack_terms`, with no Form in between, and Form generators are packed
from their terms.  Inside, a polynomial is a list of
``(okey, dkey, coeff)`` triples, descending in okey.  Forms are built
only where a caller reads them: an ideal's `generators` and the monic
basis of a `GroebnerBasis`; emptiness and Hilbert profiles read leading
exponents only.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .forms import Form, _parse_terms, parse_form
from .linalg import integer_rows

Q = Fraction


class WrongDimension(ValueError):
    """The scheme does not have the dimension the caller expected."""


# -- packed-monomial kernel ------------------------------------------------


@lru_cache(maxsize=None)
def _make_layout(nvars):
    """Packing parameters for a ring with `nvars` variables; the last
    item holds the dkey of each variable."""
    n = int(nvars)
    if n < 1:
        raise ValueError("need at least one variable")
    B = max(8, min(16, 63 // (n + 1)))
    mask = (1 << B) - 1
    degshift = n * B
    lowall = sum(mask << (i * B) for i in range(n))
    guard = sum(1 << ((i + 1) * B - 1) for i in range(n + 1))
    units = tuple((1 << (i * B)) | (1 << degshift) for i in range(n))
    return (n, B, degshift, mask << degshift, lowall, guard, units)


def _unpack(dkey, lay):
    n, B = lay[0], lay[1]
    mask = (1 << B) - 1
    return tuple((dkey >> (i * B)) & mask for i in range(n))


def _okey(dkey, lay):
    degmask, lowall = lay[3], lay[4]
    return (dkey & degmask) + (lowall - (dkey & lowall))


def _divides(a, b, lay):
    """True when monomial a divides monomial b."""
    guard = lay[5]
    return ((b | guard) - a) & guard == guard


def _lcm(a, b, lay):
    n, B, degshift = lay[0], lay[1], lay[2]
    mask = (1 << B) - 1
    out = 0
    total = 0
    for i in range(n):
        e = max((a >> (i * B)) & mask, (b >> (i * B)) & mask)
        out |= e << (i * B)
        total += e
    return out | (total << degshift)


def _from_dict(p, lay):
    """The packed polynomial of a dict {dkey: nonzero integer}."""
    return sorted(((_okey(dk, lay), dk, c) for dk, c in p.items()), reverse=True)


def _as_form(terms, vars, scale=1):
    """The Form of scale times the polynomial of (dkey, integer) pairs."""
    lay = _make_layout(len(vars))
    return Form._from_clean(vars, {_unpack(dk, lay): scale * Q(c) for dk, c in terms})


def _pack_terms(terms, lay):
    """The dict {dkey: integer} of den * terms for a dict {exponent
    tuple: nonzero rational}, den the lcm of the coefficient denominators
    (1 for integer terms, with no Fraction built)."""
    B, degshift = lay[1], lay[2]
    (coeffs,), _ = integer_rows([terms.values()])
    p = {}
    for e, c in zip(terms, coeffs):
        if sum(e) >> (B - 1):          # a field keeps its top bit as guard
            raise ValueError("degree %d out of packing range" % sum(e))
        p[sum(x << (i * B) for i, x in enumerate(e)) | sum(e) << degshift] = c
    return p


def _content(p):
    g = 0
    for _, _, c in p:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _primitive(p):
    """Strip integer content; make the leading coefficient positive."""
    if not p:
        return p
    g = _content(p)
    if p[0][2] < 0:
        g = -g
    if g == 1:
        return p
    return [(ok, dk, c // g) for ok, dk, c in p]


def _shift(p, m, lay):
    """p times the monomial m (order is preserved)."""
    degmask, lowall = lay[3], lay[4]
    if m == 0:
        return p
    out = []
    for ok, dk, k in p:
        nk = dk + m
        out.append(((nk & degmask) + (lowall - (nk & lowall)), nk, k))
    return out


def _add_scaled(p, q, cp, cq):
    """cp*p + cq*q, merged; returns a fresh sorted list."""
    out = []
    i = j = 0
    lp, lq = len(p), len(q)
    while i < lp and j < lq:
        a, b = p[i], q[j]
        if a[0] > b[0]:
            out.append((a[0], a[1], cp * a[2]))
            i += 1
        elif a[0] < b[0]:
            out.append((b[0], b[1], cq * b[2]))
            j += 1
        else:
            s = cp * a[2] + cq * b[2]
            if s:
                out.append((a[0], a[1], s))
            i += 1
            j += 1
    while i < lp:
        a = p[i]
        out.append((a[0], a[1], cp * a[2]))
        i += 1
    while j < lq:
        b = q[j]
        out.append((b[0], b[1], cq * b[2]))
        j += 1
    return out


def _s_polynomial(f, g, lay):
    """Primitive S-polynomial of two primitive polynomials."""
    dkf, dkg = f[0][1], g[0][1]
    cf, cg = f[0][2], g[0][2]
    lcm = _lcm(dkf, dkg, lay)
    sp = _add_scaled(_shift(f, lcm - dkf, lay), _shift(g, lcm - dkg, lay), cg, -cf)
    return _primitive(sp)


def _reduce(f, basis, lay):
    """Primitive remainder of f on full reduction modulo basis.

    The divisor for each step is the first basis element (in list order)
    whose leading monomial divides the current leading monomial.  Each
    step scales the remainder so far by the divisor's leading
    coefficient, and every 16 steps the common content of the work and
    the remainder is divided out, which bounds the growth of the entries.
    """
    work = f
    out = []
    steps = 0
    i = 0                              # work[:i] is already in out
    while i < len(work):
        _, dk0, c0 = work[i]
        hit = None
        for g in basis:
            if _divides(g[0][1], dk0, lay):
                hit = g
                break
        if hit is None:
            out.append(work[i])
            i += 1
            continue
        cg = hit[0][2]
        work = _add_scaled(work[i + 1:], _shift(hit[1:], dk0 - hit[0][1], lay), cg, -c0)
        i = 0
        if cg != 1:
            out = [(ok, dk, c * cg) for ok, dk, c in out]
        steps += 1
        if steps % 16 == 0 and work:
            g = gcd(_content(work), _content(out))
            if g > 1:
                work = [(ok, dk, c // g) for ok, dk, c in work]
                out = [(ok, dk, c // g) for ok, dk, c in out]
    return _primitive(out)


# -- ideals and bases ----------------------------------------------------


class Ideal:
    """A homogeneous ideal: the names of its ring's variables and its
    nonzero, distinct generators, stored once as packed integer dicts
    {dkey: integer}.  A generator given as text is read by
    `forms._parse_terms`, one given as a Form by its terms; either is
    kept as a positive integer multiple.  `_from_packed` takes packed
    dicts as they are; `generators` builds Forms when read."""

    __slots__ = ("vars", "_polys")

    def __init__(self, vars, generators):
        vars = tuple(vars)
        polys = []
        for g in generators:
            if isinstance(g, str):
                terms = _parse_terms(g, vars)
            elif isinstance(g, Form) and g.vars == vars:
                terms = g._terms
            else:
                raise ValueError("generator ring mismatch")
            if len({sum(e) for e in terms}) > 1:
                raise ValueError("non-homogeneous generator %s"
                                 % (parse_form(g, vars) if isinstance(g, str) else g))
            if terms:
                polys.append(_pack_terms(terms, _make_layout(len(vars))))
        self._store(vars, polys)

    @classmethod
    def _from_packed(cls, vars, polys):
        """The ideal of nonzero homogeneous dicts {dkey: integer} in the
        layout of len(vars) variables."""
        ideal = object.__new__(cls)
        ideal._store(tuple(vars), polys)
        return ideal

    def _store(self, vars, polys):
        """Keep the ring and the polys, exact repeats dropped."""
        if len(set(vars)) != len(vars):
            raise ValueError("duplicate variable names: %r" % (vars,))
        self.vars = vars
        self._polys = tuple({frozenset(p.items()): p for p in polys}.values())

    @property
    def generators(self):
        return tuple(_as_form(p.items(), self.vars) for p in self._polys)

    def _packed(self, lay):
        """The generators as packed polynomials."""
        return [_from_dict(p, lay) for p in self._polys]

    @classmethod
    def from_json(cls, obj):
        """The ideal of {"vars": [str], "generators": [str]}; a malformed
        object raises ValueError."""
        if not (isinstance(obj, dict) and all(
                isinstance(obj.get(k), list) and all(isinstance(x, str) for x in obj[k])
                for k in ("vars", "generators"))):
            raise ValueError('ideal JSON must be {"vars": [str], "generators": [str]}')
        return cls(tuple(obj["vars"]), obj["generators"])


class GroebnerBasis:
    """Reduced degrevlex Groebner basis: primitive packed polynomials with
    ascending leads; `basis` makes them monic Forms on first access."""

    __slots__ = ("ideal", "_lay", "_kpolys", "_basis")

    def __init__(self, ideal, lay, kpolys):
        self.ideal, self._lay, self._kpolys, self._basis = ideal, lay, kpolys, None

    @property
    def basis(self):
        if self._basis is None:
            self._basis = tuple(_as_form(((dk, c) for _, dk, c in p), self.ideal.vars,
                                         Q(1, p[0][2])) for p in self._kpolys)
        return self._basis

    def leading_exponents(self):
        return [_unpack(p[0][1], self._lay) for p in self._kpolys]

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self._kpolys)


def _interreduce(polys, lay):
    polys = [p for p in polys if p]
    stable = False
    while not stable:
        stable = True
        fresh = []
        for i, p in enumerate(polys):
            h = _reduce(p, fresh + polys[i + 1:], lay)
            if h != p:
                stable = False
            if h:
                fresh.append(h)
        polys = fresh
    return polys


def buchberger(ideal):
    """Reduced Groebner basis of a homogeneous ideal, deterministically."""
    lay = _make_layout(len(ideal.vars))
    gens = [_primitive(p) for p in ideal._packed(lay)]
    seen = set()
    unique = []
    for p in gens:
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)

    G = _interreduce(unique, lay)

    pending = set()
    heap = []

    def push_pairs(t):
        dkt = G[t][0][1]
        for i in range(t):
            lcm = _lcm(G[i][0][1], dkt, lay)
            pending.add((i, t))
            heapq.heappush(heap, (lcm >> lay[2], _okey(lcm, lay), i, t))

    for t in range(len(G)):
        push_pairs(t)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        dki, dkj = G[i][0][1], G[j][0][1]
        lcm = _lcm(dki, dkj, lay)
        if lcm == dki + dkj:          # coprime leading monomials
            continue
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(G[k][0][1], lcm, lay):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        h = _reduce(_s_polynomial(G[i], G[j], lay), G, lay)
        if h:
            G.append(h)
            push_pairs(len(G) - 1)

    # Minimalise, then tail-reduce: the reduced basis is unique.
    G.sort(key=lambda p: p[0][0])
    kept = []
    for p in G:
        if not any(_divides(q[0][1], p[0][1], lay) for q in kept):
            kept.append(p)
    final = []
    for i, p in enumerate(kept):
        final.append(_reduce(p, kept[:i] + kept[i + 1:], lay))
    final.sort(key=lambda p: p[0][0])
    return GroebnerBasis(ideal, lay, final)


def _as_gb(x):
    if isinstance(x, GroebnerBasis):
        return x
    return buchberger(x)


def is_projectively_empty(x):
    """True iff the projective zero set over the closure is empty.

    Criterion: the leading-term ideal of the reduced basis contains a pure
    power of every variable.  The zero ideal yields False (whole space).
    """
    gb = _as_gb(x)
    if not gb:
        return False
    covered = [False] * len(gb.ideal.vars)
    for exps in gb.leading_exponents():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            covered[support[0]] = True
        elif not support:              # unit ideal
            return True
    return all(covered)


def _minimal_monomials(gens):
    """Minimal generators of the monomial ideal spanned by `gens`."""
    kept = []
    for g in sorted(set(gens), key=sum):
        if not any(all(a <= b for a, b in zip(k, g)) for k in kept):
            kept.append(g)
    return kept


def _add_shifted(p, q, e):
    """p + t^e q for little-endian coefficient lists."""
    out = p + [0] * max(0, e + len(q) - len(p))
    for i, c in enumerate(q):
        out[e + i] += c
    return out


def _hilbert_numerator(gens):
    """N(t), little-endian, with HS(S/M) = N(t)/(1-t)^n for the monomial
    ideal M minimally generated by the exponent tuples `gens`.

    Pivot recursion: N(M) = N(M + p) + t^deg(p) N(M : p) for p a power of
    the variable in the most generators; pairwise coprime generators give
    the product of the 1 - t^deg(g).
    """
    n = len(gens[0])
    hits = [sum(1 for g in gens if g[i]) for i in range(n)]
    v = max(range(n), key=hits.__getitem__)
    if hits[v] < 2:
        out = [1]
        for g in gens:
            out = _add_shifted(out, [-c for c in out], sum(g))
        return out
    e = min(g[v] for g in gens if g[v])
    pivot = tuple(e if i == v else 0 for i in range(n))
    plus = _minimal_monomials([g for g in gens if g[v] < e] + [pivot])
    colon = _minimal_monomials([g[:v] + (max(g[v] - e, 0),) + g[v + 1:]
                                for g in gens])
    return _add_shifted(_hilbert_numerator(plus), _hilbert_numerator(colon), e)


@dataclass(frozen=True)
class HilbertProfile:
    dimension: int          # projective dimension; -1 for the empty scheme
    degree: int             # 0 for the empty scheme


def hilbert_profile(x):
    """Projective dimension and degree of the scheme, read off the exact
    Hilbert series N(t)/(1-t)^n of the leading-term ideal: divide N by
    (1-t) as often as it vanishes at 1, say k times; the dimension is
    n - k - 1 and the degree is the quotient at t = 1."""
    gb = _as_gb(x)
    n = len(gb.ideal.vars)
    lts = gb.leading_exponents()        # minimal: the basis is reduced
    num = _hilbert_numerator(lts) if lts else [1]
    k = 0
    while any(num) and sum(num) == 0:
        acc, quo = 0, []
        for c in num[:-1]:
            acc += c
            quo.append(acc)
        num, k = quo, k + 1
    if k == n or not any(num):
        return HilbertProfile(-1, 0)
    return HilbertProfile(n - k - 1, sum(num))


def projective_degree(x, proj_dim=0):
    """Degree of a 0-dimensional scheme (0 when it is empty) or of a curve,
    per `proj_dim`; any other dimension raises WrongDimension."""
    if proj_dim not in (0, 1):
        raise ValueError("proj_dim must be 0 or 1")
    prof = hilbert_profile(x)
    if prof.dimension == -1 and proj_dim == 0:
        return 0
    if prof.dimension != proj_dim:
        raise WrongDimension("scheme has projective dimension %d, not %d"
                             % (prof.dimension, proj_dim))
    return prof.degree
