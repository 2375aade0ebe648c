"""Constant-rank certification over the whole parameter space.

A pencil (two variables) is decided by its Kronecker minimal indices
(`pencil.pencil_invariants`), method ``kronecker``: the integer
kernels of one chain recursion in Q^n give the normal rank and prove it
constant exactly when there is no regular part.  Any other number of
variables d takes the symbolic generic rank 2r (largest size with a
principal sub-Pfaffian that is not the zero polynomial); the rank is
constant exactly when the ideal of the size-2r sub-Pfaffians, forms of
degree r, has no projective zero.  Two proofs decide that, both on the
packed integer Pfaffians in subset order:

- method ``macaulay``: their integer coefficient rows have rank
  C(r + d - 1, d - 1), so they span every form of degree r; the ideal
  then holds each x_i^r and its zero set is empty.  The rank is read
  off the shortest prefix that reaches it (Macaulay's span criterion
  needs no more rows), so only that prefix is decoded.  This only ever
  proves constancy;
- method ``groebner``: otherwise, projective emptiness of a Buchberger
  basis decides either way.  Every refutation takes this branch.

`verdict` (generic rank, constancy, method) is cached once per matrix
and never looks for a witness.  `certify_constant_rank` adds one to each
refutation it returns, from `_witness`: a pencil's first rational drop,
read off the integer GCD of its packed sub-Pfaffians, else a search
over fixed probe points and line pencils.

Every certificate is a proof: `constant` is True or False, decided by
its method, and a refutation stands whether or not a witness was found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt

from . import linalg
from .forms import dehomogenised, integer_binary_gcd
from .groebner import Ideal, _make_layout, _unpack, is_projectively_empty
from .pencil import invariants_of

Q = Fraction

METHOD_GROEBNER = "groebner"
METHOD_KRONECKER = "kronecker"
METHOD_MACAULAY = "macaulay"

ROOT_SEARCH_BOUND = 10 ** 6   # largest end coefficient trial-divided for roots
WITNESS_PROBES = 25           # points, and lines, tried by the witness search


@dataclass(frozen=True)
class RankCertificate:
    generic_rank: int
    constant: bool
    method: str
    witness: tuple = None

    def to_json(self):
        return {
            "generic_rank": self.generic_rank,
            "constant": self.constant,
            "method": self.method,
            "witness": None if self.witness is None else
            [str(x) for x in self.witness],
        }


def generic_rank(A):
    """Largest 2k with a principal 2k-sub-Pfaffian that is nonzero as a
    polynomial.  Symbolic; never decided by sampling."""
    top = A.order - (A.order % 2)
    for size in range(top, 0, -2):
        if any(A._pf_raw(s) for s in combinations(range(A.order), size)):
            return size
    raise ValueError("zero matrix has no generic rank")


def restrict_line(A, p, q):
    """Restriction of A to the parameter line s*p + t*q (a pencil in s, t)
    through the independent points p and q."""
    if len(p) != A.nvars or len(q) != A.nvars:
        raise ValueError("points must have one coordinate per variable")
    if not linalg.independent(p, q):
        raise ValueError("line needs two independent points")
    return A._substitute(("s", "t"), [p, q])


def _binary_rational_roots(coeffs, val):
    """Rational projective roots (a, b) of b^(val + deg) * F(a/b), with
    F(t) = sum(coeffs[i] * t^i) of degree deg, in a deterministic order.

    A factor of the first variable yields (0, 1), a factor of the second
    yields (1, 0); the root of a linear remainder is read off, and longer
    ones go through the rational-root theorem on F, skipped when an end
    coefficient exceeds ROOT_SEARCH_BOUND.
    """
    roots = []
    if not coeffs[0]:                  # first variable divides
        roots.append((Q(0), Q(1)))
    if val:                            # second variable divides
        roots.append((Q(1), Q(0)))
    ints = coeffs[next(i for i, c in enumerate(coeffs) if c):]
    deg = len(ints) - 1
    lead, const = ints[-1], ints[0]
    if deg == 1:
        roots.append((Q(-const, lead), Q(1)))
    elif deg > 1 and max(abs(const), abs(lead)) <= ROOT_SEARCH_BOUND:
        tries = dict.fromkeys(Q(s * p, q) for p in _divisors(abs(const))
                              for q in _divisors(abs(lead)) for s in (1, -1))
        roots += [(t, Q(1)) for t in tries
                  if sum(c * t ** e for e, c in enumerate(ints)) == 0]
    return roots


def _divisors(n):
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return sorted(set(small + [n // i for i in small]))


def witness_candidates(d):
    """Fixed integer probe points and lines, a function of d alone; one
    parameter spans no line."""
    if d == 1:
        return [(1,)], []
    rng = random.Random(0)
    points = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    points.append((1,) * d)
    while len(points) < WITNESS_PROBES:
        p = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(p) and p not in points:
            points.append(p)
    lines = []
    while len(lines) < WITNESS_PROBES:
        p = tuple(rng.randint(-3, 3) for _ in range(d))
        q = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(p[i] * q[j] != p[j] * q[i] for i, j in combinations(range(d), 2)):
            lines.append((p, q))
    return points, lines


def _first_drop(pencil, rank):
    """First rational point (s, t) where a pencil has rank below `rank`:
    the first rational root of the GCD of its nonzero rank-size
    sub-Pfaffians, (1, 0) when all of them vanish (the rank drops
    everywhere), None when the GCD has no rational root."""
    lay = _make_layout(2)
    g, val = integer_binary_gcd(
        dehomogenised(((_unpack(k, lay)[0], c) for k, c in p.items()), rank // 2)
        for p in map(pencil._pf, combinations(range(pencil.order), rank)) if p)
    if g is None:
        return Q(1), Q(0)
    roots = _binary_rational_roots(g, val)
    return roots[0] if roots else None


def _search_witness(A, rank):
    points, lines = witness_candidates(A.nvars)
    for p in points:
        if A.rank_at(p) < rank:
            return p
    for p, q in lines:
        st = _first_drop(restrict_line(A, p, q), rank)
        if st is not None:
            s, t = st
            return tuple(s * pi + t * qi for pi, qi in zip(p, q))
    return None


def _witness(A, rank):
    """A rational point where A has rank below `rank`, or None: a pencil's
    first drop, else the search over fixed probe points and lines."""
    if A.nvars == 2:
        return _first_drop(A, rank)
    return _search_witness(A, rank)


@lru_cache(maxsize=512)
def verdict(A):
    """The certificate of A without a witness, computed once per matrix
    content: its generic rank, whether that rank is constant, and how
    that was decided."""
    if A.nvars == 2:
        inv = invariants_of(A)
        return RankCertificate(inv.rank, inv.constant, METHOD_KRONECKER)
    rank = generic_rank(A)
    return RankCertificate(rank, *_pfaffian_ideal_empty(A, rank))


def _pfaffian_ideal_empty(A, rank):
    """(verdict, method): whether the nonzero rank-size sub-Pfaffians of A
    have no common projective zero, by their span of the forms of degree
    rank/2 when that is all of them, else by a Groebner basis.

    The sub-Pfaffians are decoded lazily in subset order, and the span
    rank stops reading at the first prefix that spans all forms, so a
    ``macaulay`` proof decodes, and the memo expands, only that prefix.
    A ``groebner`` case has read every subset by then and passes on the
    nonzero ones it kept, each decoded once.
    """
    pfs = []

    def read():
        for s in combinations(range(A.order), rank):
            p = A._pf(s)
            if p:
                pfs.append(p)
                yield p

    forms = comb(rank // 2 + A.nvars - 1, A.nvars - 1)
    if linalg.coefficient_rank(read(), forms) == forms:
        return True, METHOD_MACAULAY
    return is_projectively_empty(Ideal._from_packed(A.vars, pfs)), METHOD_GROEBNER


def certify_constant_rank(A, seed=0):
    """Certificate that A has constant rank on the whole projective
    parameter space, or a refutation (with a rational witness point where
    one was found), a function of A alone.
    `seed` is ignored: `perfbench/worker.py` still passes it."""
    cert = verdict(A)
    if cert.constant is False:
        return replace(cert, witness=_witness(A, cert.generic_rank))
    return cert
