"""Constant-rank certification over the whole parameter space.

A pencil (two variables) is decided by its Kronecker rank sequence
(`pencil.pencil_invariants`): integer block-Toeplitz ranks give the
normal rank and prove it constant exactly when there is no regular part.
Only a refutation expands the sub-Pfaffians of that size, whose binary
GCD locates a rational witness where the rank drops.  Any other number
of variables takes the symbolic generic rank (largest size with a
principal sub-Pfaffian that is not the zero polynomial) and certifies
constancy by projective emptiness of the sub-Pfaffian ideal, built
from the packed integer Pfaffians in subset order; on failure a
deterministic search over probe points and lines tries to exhibit a
rational witness.  The verdict never depends on finding one: it is
computed once per matrix content, and only that search once per seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm

from . import linalg
from .forms import binary_gcd
from .groebner import Ideal, is_projectively_empty
from .pencil import invariants_of

Q = Fraction

METHOD_GROEBNER = "groebner"
METHOD_KRONECKER = "kronecker"
METHOD_SAMPLED = "sampled"

ROOT_SEARCH_BOUND = 10 ** 6   # largest end coefficient trial-divided for roots


@dataclass(frozen=True)
class RankCertificate:
    generic_rank: int
    constant: object            # True / False / None (None: not certified)
    method: str
    witness: tuple = None
    sampled_points: int = None

    def to_json(self):
        return {
            "generic_rank": self.generic_rank,
            "constant": self.constant,
            "method": self.method,
            "witness": None if self.witness is None else
            [str(x) for x in self.witness],
            "sampled_points": self.sampled_points,
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2)


def generic_rank(A):
    """Largest 2k with a principal 2k-sub-Pfaffian that is nonzero as a
    polynomial.  Symbolic; never decided by sampling."""
    top = A.order - (A.order % 2)
    for size in range(top, 0, -2):
        if any(A._pf(s) for s in combinations(range(A.order), size)):
            return size
    raise ValueError("zero matrix has no generic rank")


def restrict_line(A, p, q):
    """Restriction of A to the parameter line s*p + t*q (a pencil in s, t)
    through the independent points p and q."""
    if len(p) != A.nvars or len(q) != A.nvars:
        raise ValueError("points must have one coordinate per variable")
    if linalg.rank([p, q]) != 2:
        raise ValueError("line needs two independent points")
    return A._substitute(("s", "t"), [p, q])


def _binary_rational_roots(g):
    """Rational projective roots of a binary form, deterministic order.

    A factor of the first variable yields (0, 1), a factor of the second
    yields (1, 0); the root of a linear remainder is read off, and longer
    ones go through the rational-root theorem on the dehomogenisation,
    skipped when an end coefficient exceeds ROOT_SEARCH_BOUND.
    """
    roots = []
    d = g.degree()
    coeff = {ea: c for (ea, _), c in g._terms.items()}
    min_a = min(coeff)
    max_a = max(coeff)
    if min_a > 0:                      # first variable divides
        roots.append((Q(0), Q(1)))
    if max_a < d:                      # second variable divides
        roots.append((Q(1), Q(0)))
    # dehomogenise: F(t) = sum coeff[ea] * t^(ea - min_a)
    den = lcm(*(c.denominator for c in coeff.values()))
    ints = {ea - min_a: int(c * den) for ea, c in coeff.items()}
    deg = max(ints)
    lead = ints[deg]
    const = ints[0]
    if deg == 1:
        roots.append((Q(-const, lead), Q(1)))
    elif deg > 1 and max(abs(const), abs(lead)) <= ROOT_SEARCH_BOUND:
        tries = dict.fromkeys(Q(s * p, q) for p in _divisors(abs(const))
                              for q in _divisors(abs(lead)) for s in (1, -1))
        roots += [(t, Q(1)) for t in tries
                  if sum(c * t ** e for e, c in ints.items()) == 0]
    return roots


def _divisors(n):
    small = [i for i in range(1, isqrt(n) + 1) if n % i == 0]
    return sorted(set(small + [n // i for i in small]))


def witness_candidates(d, seed=0, n_points=25, n_lines=25):
    """Deterministic probe points and lines in the parameter space."""
    rng = random.Random(seed)
    points = []
    for i in range(d):
        points.append(tuple(Q(1) if j == i else Q(0) for j in range(d)))
    points.append(tuple(Q(1) for _ in range(d)))
    while len(points) < n_points:
        p = tuple(Q(rng.randint(-3, 3)) for _ in range(d))
        if any(p) and p not in points:
            points.append(p)
    lines = []
    while len(lines) < n_lines:
        p = tuple(Q(rng.randint(-3, 3)) for _ in range(d))
        q = tuple(Q(rng.randint(-3, 3)) for _ in range(d))
        if any(p) and any(q) and linalg.rank([list(p), list(q)]) == 2:
            lines.append((p, q))
    return points, lines


def _first_drop(pencil, rank):
    """First rational point (s, t) where a pencil has rank below `rank`:
    the first rational root of the GCD of its nonzero rank-size
    sub-Pfaffians, (1, 0) when all of them vanish (the rank drops
    everywhere), None when the GCD has no rational root."""
    pfs = [f for f in pencil.sub_pfaffians(rank) if not f.is_zero()]
    if not pfs:
        return Q(1), Q(0)
    roots = _binary_rational_roots(binary_gcd(pfs))
    return roots[0] if roots else None


def _search_witness(A, rank, seed):
    points, lines = witness_candidates(A.nvars, seed)
    for p in points:
        if A.rank_at(p) < rank:
            return p
    for p, q in lines:
        st = _first_drop(restrict_line(A, p, q), rank)
        if st is not None:
            s, t = st
            return tuple(s * pi + t * qi for pi, qi in zip(p, q))
    return None


@lru_cache(maxsize=512)
def _certify_cached(A):
    """The certificate without its seeded part, once per matrix content:
    the rank and verdict, and a pencil's seed-free witness."""
    if A.nvars == 2:
        inv = invariants_of(A)
        if inv.constant:
            return RankCertificate(inv.rank, True, METHOD_KRONECKER)
        return RankCertificate(inv.rank, False, METHOD_KRONECKER,
                               witness=_first_drop(A, inv.rank))
    rank = generic_rank(A)
    pfs = [p for p in map(A._pf, combinations(range(A.order), rank)) if p]
    return RankCertificate(rank, is_projectively_empty(
        Ideal._from_packed(A.vars, pfs)), METHOD_GROEBNER)


@lru_cache(maxsize=512)
def _witnessed(A, seed):
    """A refutation with the witness that the search seeded by `seed`
    finds, if any."""
    cert = _certify_cached(A)
    return replace(cert, witness=_search_witness(A, cert.generic_rank, seed))


def certify_constant_rank(A, seed=0):
    """Certificate that A has constant rank on the whole projective
    parameter space, or a refutation (with a rational witness point where
    one was found).  Only the witness search of a refuted space with more
    than two parameters depends on the seed."""
    cert = _certify_cached(A)
    if cert.constant is False and cert.method == METHOD_GROEBNER:
        return _witnessed(A, seed)
    return cert


def _sample_points(d, n_points, seed):
    """n_points seeded nonzero points with coordinates in [-9, 9]."""
    rng = random.Random(seed)
    done = 0
    while done < n_points:
        p = tuple(Q(rng.randint(-9, 9)) for _ in range(d))
        if any(p):
            done += 1
            yield p


def sampled_probe(A, n_points=200, seed=0):
    """Sampling probe for beyond-desk-scale inputs; never certifies.

    Returns constant=False with a witness when a drop is found, otherwise
    constant=None (unknown).
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1, got %r" % n_points)
    rank = generic_rank(A)
    for tried, p in enumerate(_sample_points(A.nvars, n_points, seed), 1):
        if A.rank_at(p) < rank:
            return RankCertificate(rank, False, METHOD_SAMPLED, witness=p,
                                   sampled_points=tried)
    return RankCertificate(rank, None, METHOD_SAMPLED, sampled_points=n_points)


def cross_validate(A, cert, n_points=200, seed=0):
    """Check rank_at == generic_rank at seeded pseudo-random points."""
    return all(A.rank_at(p) == cert.generic_rank
               for p in _sample_points(A.nvars, n_points, seed))


def check_bound(A, nondegenerate, cert=None):
    """Order bound 2r <= N <= 3r-1 for nondegenerate constant-rank pencils.

    Vacuously true when the space is degenerate (the bound only constrains
    the nondegenerate core).
    """
    if A.nvars != 2:
        raise ValueError("order bound applies to pencils only (d = 2)")
    if cert is None:
        cert = certify_constant_rank(A)
    if cert.constant is not True:
        raise ValueError("order bound needs a constant-rank certificate")
    if not nondegenerate:
        return True
    r = cert.generic_rank // 2
    N = A.order - 1
    return 2 * r <= N <= 3 * r - 1
