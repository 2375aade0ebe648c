import random
from fractions import Fraction
from math import lcm

import pytest

from skewrank import geometry, linalg
from skewrank.certify import certify_constant_rank

Q = Fraction


@pytest.fixture
def rng():
    return random.Random(12345)


def random_invertible(rng, n, lo=-3, hi=3):
    """Seeded invertible rational matrix."""
    while True:
        M = [[Q(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if linalg.det(M) != 0:
            return M


def rational_invertible(rng, n):
    """Seeded invertible matrix with entries p/q, |p| <= 3, q in {1, 2}."""
    while True:
        M = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        if linalg.det(M) != 0:
            return M


def moved(rng, A):
    """A moved by the congruence P = a signed permutation times A.order
    rational transvections, then by a rational parameter change."""
    n = A.order
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[Q(rng.choice((-1, 1))) if perm[i] == j else Q(0) for j in range(n)]
         for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = Q(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        for row in P:
            row[j] += c * row[i]
    return A.congruence_transform(P).parameter_change(
        rational_invertible(rng, A.nvars))


def random_skew(rng, n, lo=-5, hi=5):
    M = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Q(rng.randint(lo, hi))
            M[i][j] = v
            M[j][i] = -v
    return M


def partitions(r):
    """Partitions of r as non-increasing tuples."""
    if r == 0:
        yield ()
        return
    for first in range(r, 0, -1):
        for rest in partitions(r - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def bordered_forms(A, xi):
    """The bordered Pfaffians of A by the covector xi as Forms: the packed
    integer ones of geometry._bordered_pfaffians times lam^r / den."""
    r = certify_constant_rank(A).generic_rank // 2
    den = lcm(*(Q(x).denominator for x in xi))
    return [A._form(p, r, den) for p in geometry._bordered_pfaffians(A, xi)]
