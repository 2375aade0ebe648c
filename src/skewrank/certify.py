"""Constant-rank certification over the whole parameter space.

A pencil (two variables) is decided by its Kronecker rank sequence
(`pencil.pencil_invariants`): integer block-Toeplitz ranks give the
normal rank and prove it constant exactly when there is no regular part.
Only a refutation expands the sub-Pfaffians of that size, whose binary
GCD locates a rational witness where the rank drops.  Any other number
of variables takes the symbolic generic rank (largest size with a
principal sub-Pfaffian that is not the zero polynomial) and certifies
constancy by projective emptiness of the sub-Pfaffian ideal; on failure
a deterministic search over probe points and lines tries to exhibit a
rational witness.  The verdict never depends on finding one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from . import linalg
from .forms import Form, binary_gcd
from .groebner import Ideal, is_projectively_empty
from .pencil import invariants_of
from .skew import SkewPolyMatrix

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
        if any(not f.is_zero() for f in A.sub_pfaffians(size)):
            return size
    raise ValueError("zero matrix has no generic rank")


def restrict_line(A, p, q):
    """Restriction of A to the parameter line s*p + t*q (a pencil in s, t)
    through the independent points p and q."""
    p = [Q(x) for x in p]
    q = [Q(x) for x in q]
    if len(p) != A.nvars or len(q) != A.nvars:
        raise ValueError("points must have one coordinate per variable")
    if linalg.rank([p, q]) != 2:
        raise ValueError("line needs two independent points")
    target = ("s", "t")
    images = [Form(target, [((1, 0), pi), ((0, 1), qi)]) for pi, qi in zip(p, q)]
    upper = {ij: f.linear_substitute(images) for ij, f in A.upper_entries()}
    return SkewPolyMatrix(A.order, target, upper)


def _binary_rational_roots(g):
    """Rational projective roots of a binary form, deterministic order.

    A factor of the first variable yields (0, 1), a factor of the second
    yields (1, 0); the root of a linear remainder is read off, and longer
    ones go through the rational-root theorem on the dehomogenisation,
    skipped when an end coefficient exceeds ROOT_SEARCH_BOUND.
    """
    roots = []
    d = g.degree()
    coeff = {}
    for (ea, eb), c in g._terms.items():
        coeff[ea] = c
    min_a = min(coeff)
    max_a = max(coeff)
    if min_a > 0:                      # first variable divides
        roots.append((Q(0), Q(1)))
    if max_a < d:                      # second variable divides
        roots.append((Q(1), Q(0)))
    # dehomogenise: F(t) = sum coeff[ea] * t^(ea - min_a)
    den = 1
    for c in coeff.values():
        den = den * c.denominator // gcd(den, c.denominator)
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


def _search_witness(A, rank, seed):
    d = A.nvars
    points, lines = witness_candidates(d, seed)
    for p in points:
        if A.rank_at(p) < rank:
            return p
    for p, q in lines:
        pencil = restrict_line(A, p, q)
        pfs = [f for f in pencil.sub_pfaffians(rank) if not f.is_zero()]
        if not pfs:
            # whole line drops rank; take the first point on it
            return p
        g = binary_gcd(pfs)
        if g.degree() > 0:
            for s, t in _binary_rational_roots(g):
                pt = tuple(s * pi + t * qi for pi, qi in zip(p, q))
                if any(pt):
                    return pt
    return None


@lru_cache(maxsize=512)
def _certify_cached(A, seed):
    if A.nvars == 2:
        inv = invariants_of(A)
        if inv.constant:
            return RankCertificate(inv.rank, True, METHOD_KRONECKER)
        pfs = [f for f in A.sub_pfaffians(inv.rank) if not f.is_zero()]
        roots = _binary_rational_roots(binary_gcd(pfs))
        return RankCertificate(inv.rank, False, METHOD_KRONECKER,
                               witness=roots[0] if roots else None)
    rank = generic_rank(A)
    pfs = [f for f in A.sub_pfaffians(rank) if not f.is_zero()]
    ideal = Ideal(A.vars, sorted(set(pfs), key=str))
    if is_projectively_empty(ideal):
        return RankCertificate(rank, True, METHOD_GROEBNER)
    witness = _search_witness(A, rank, seed)
    return RankCertificate(rank, False, METHOD_GROEBNER, witness=witness)


def certify_constant_rank(A, seed=0):
    """Certificate that A has constant rank on the whole projective
    parameter space, or a refutation (with a rational witness point where
    one was found)."""
    return _certify_cached(A, seed)


def sampled_probe(A, n_points=200, seed=0):
    """Sampling probe for beyond-desk-scale inputs; never certifies.

    Returns constant=False with a witness when a drop is found, otherwise
    constant=None (unknown).
    """
    rank = generic_rank(A)
    rng = random.Random(seed)
    d = A.nvars
    tried = 0
    while tried < n_points:
        p = tuple(Q(rng.randint(-9, 9)) for _ in range(d))
        if not any(p):
            continue
        tried += 1
        if A.rank_at(p) < rank:
            return RankCertificate(rank, False, METHOD_SAMPLED, witness=p,
                                   sampled_points=tried)
    return RankCertificate(rank, None, METHOD_SAMPLED, sampled_points=tried)


def cross_validate(A, cert, n_points=200, seed=0):
    """Check rank_at == generic_rank at seeded pseudo-random points."""
    rng = random.Random(seed)
    d = A.nvars
    done = 0
    while done < n_points:
        p = tuple(Q(rng.randint(-9, 9)) for _ in range(d))
        if not any(p):
            continue
        done += 1
        if A.rank_at(p) != cert.generic_rank:
            return False
    return True


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
