import hashlib
import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st
from tests.conftest import echelon_coefficient_rank, random_skew

from skewrank import linalg

Q = Fraction


def test_rank_and_det_basics():
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.det([[Q(1, 2), 0], [0, 4]]) == 2
    assert linalg.det([[0, 1], [1, 0]]) == -1


def test_independent_reads_a_nonzero_two_by_two_minor(rng):
    for p, q, want in [((1, 0, 0), (0, 1, 0), True), ((1, 2, 3), (2, 4, 6), False),
                       ((0, 0, 0), (1, 2, 3), False), ((1, 2, 3), (1, 2, 4), True),
                       ((0, 0, 1), (0, 0, -5), False), ((3, 0, 1), (0, 0, 1), True),
                       ((1, 2), (-2, -4), False), ((1,), (2,), False),
                       ((Q(1, 2), 1, 0), (1, 2, 0), False),
                       ((Q(1, 2), 1, 0), (1, 2, Q(1, 3)), True)]:
        assert linalg.independent(p, q) is want
    for _ in range(200):
        p, q = ([rng.randint(-2, 2) for _ in range(4)] for _ in range(2))
        assert linalg.independent(p, q) == (linalg.rank([p, q]) == 2)


def test_nullspace_solves(rng):
    for _ in range(30):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        rows = [[Q(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        basis = linalg.nullspace(rows, ncols=n)
        assert len(basis) == n - linalg.rank(rows)
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)


def test_span_rref_is_canonical(rng):
    for _ in range(20):
        vs = [[Q(rng.randint(-3, 3)) for _ in range(5)] for _ in range(3)]
        scaled = [[2 * x for x in v] for v in reversed(vs)]
        assert linalg.span_rref(vs) == linalg.span_rref(vs + scaled)


int_rows = st.lists(st.lists(st.integers(-50, 50), max_size=5), max_size=5)
rational_rows = st.lists(st.lists(st.one_of(
    st.integers(-50, 50), st.fractions(-50, 50, max_denominator=10)),
    max_size=5), max_size=5)


@settings(max_examples=200, derandomize=True)
@given(st.one_of(int_rows, rational_rows))
def test_integer_rows_clears_denominators_by_their_lcm(rows):
    out, m = linalg.integer_rows(rows)
    assert out == [[x * m for x in row] for row in rows]
    assert all(type(x) is int for row in out for x in row)
    # m is the least positive scale: every smaller one leaves a fraction
    assert all(any((Q(x) * k).denominator != 1 for row in rows for x in row)
               for k in range(1, m))
    if all(type(x) is int for row in rows for x in row):
        assert out is rows and m == 1


def _minor_rank(rows):
    """Largest k with a nonzero k x k minor (independent of echelon_int)."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                if linalg.det([[rows[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def test_bareiss_rank_matches_largest_nonzero_minor(rng):
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        if rng.random() < 0.5 and m > 1:      # force a dependent row
            rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1 % m])]
        assert linalg.bareiss_rank(rows) == _minor_rank(rows)


def _pinned_cases(count):
    """Seeded rational matrices, 1-7 rows by 1-8 columns, some sparse,
    some with a zero row, a scaled duplicate row or a dependent row."""
    rng = random.Random("linalg-pin")
    for _ in range(count):
        m = rng.randint(1, 7)
        n = rng.randint(1, 8)
        zero = rng.choice((0, 0.3, 0.6))
        rows = [[Q(0) if rng.random() < zero else
                 Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(m)]
        kind = rng.randrange(4)
        if kind == 1:
            rows[rng.randrange(m)] = [Q(0)] * n
        elif kind == 2:
            c = Q(rng.randint(-2, 2) or 1, rng.randint(1, 3))
            rows.insert(rng.randrange(m + 1),
                        [c * x for x in rows[rng.randrange(m)]])
        elif kind == 3 and m > 1:
            a, b = rng.sample(range(m), 2)
            c = Q(rng.randint(-3, 3), 2)
            rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
        yield rows, n


def test_nullspace_and_span_rref_outputs_are_pinned():
    # digest recorded with the Fraction Gauss-Jordan implementation these
    # routines replaced; 215 of the 400 cases have full rank, 25 rank 0
    out = [(linalg.nullspace(rows, ncols=n), linalg.span_rref(rows))
           for rows, n in _pinned_cases(400)]
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "5431f4ceee9267317b8b3bb7c1f3cb51db433b6eb08a50594f1240e29bb51638"


def test_det_of_skew_is_square(rng):
    for n in (2, 4, 6):
        M = random_skew(rng, n)
        d = linalg.det(M)
        assert d >= 0


def _low_rank(rng, m, n, k, bound):
    """An m x n integer product of m x k and k x n factors: rank <= k."""
    left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
    right = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
    return [[sum(left[i][t] * right[t][j] for t in range(k))
             for j in range(n)] for i in range(m)]


def test_sparse_rank_matches_echelon_int():
    assert linalg.sparse_rank([]) == 0
    assert linalg.sparse_rank([{}, {3: 0}]) == 0
    rng = random.Random("sparse-rank")
    for case in range(400):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        bound = rng.choice((3, 10 ** 6))
        if case % 4 == 3:
            rows = _low_rank(rng, m, n, rng.randint(0, min(m, n) - 1), bound)
        else:
            density = rng.choice((0.2, 0.5, 1.0))
            rows = [[rng.randint(-bound, bound) if rng.random() < density
                     else 0 for _ in range(n)] for _ in range(m)]
            if case % 4 == 1:
                rows[rng.randrange(m)] = [0] * n
            elif case % 4 == 2 and m > 1:
                a, b = rng.sample(range(m), 2)
                c = rng.randint(-bound, bound)
                rows.append([x - c * y for x, y in zip(rows[a], rows[b])])
        # explicit zero entries are allowed in the dict rows
        sparse = [{c: v for c, v in enumerate(row) if v or c == 0}
                  for row in rows]
        frozen = [dict(row) for row in sparse]
        assert linalg.sparse_rank(sparse) == \
            len(linalg.echelon_int(rows, n)[1]), case
        assert sparse == frozen


def _coefficient_cases(count):
    """Seeded dict polynomials over 1-8 monomials, small or huge
    coefficients, some with zero rows (empty, or explicit zeros), scaled
    duplicates or combinations of earlier rows."""
    rng = random.Random("coefficient-rank")
    for _ in range(count):
        keys = rng.sample(range(100), rng.randint(1, 8))
        bound = rng.choice((2, 10 ** 9))
        polys = [{k: rng.randint(-bound, bound)
                  for k in rng.sample(keys, rng.randint(1, len(keys)))}
                 for _ in range(rng.randint(1, 10))]
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(3)
            at = rng.randrange(len(polys) + 1)
            if kind == 0:
                polys.insert(at, rng.choice(({}, {keys[0]: 0})))
            else:
                a, b = rng.choice(polys), rng.choice(polys)
                s = rng.randint(-3, 3)
                t = rng.randint(-3, 3) if kind == 2 else 0
                polys.insert(at, {k: s * a.get(k, 0) + t * b.get(k, 0)
                                  for k in set(a) | set(b)})
        yield keys, polys


def test_coefficient_rank_of_dict_polynomials(rng):
    # columns are the keys that occur, in any order of the dicts
    assert linalg.coefficient_rank([], 3) == 0
    assert linalg.coefficient_rank([{5: 1, 9: 2}, {9: 4, 5: 2}, {7: -3}], 3) == 2
    for _ in range(50):
        keys = rng.sample(range(100), 6)
        polys = [{k: rng.randint(-2, 2) for k in rng.sample(keys, 3)}
                 for _ in range(rng.randint(1, 8))]
        polys = [{k: c for k, c in p.items() if c} for p in polys]
        dense = [[p.get(k, 0) for k in keys] for p in polys]
        assert linalg.coefficient_rank(polys, len(keys)) == linalg.rank(dense)
    full = 0
    for keys, polys in _coefficient_cases(300):
        frozen = [dict(p) for p in polys]
        want = echelon_coefficient_rank(polys)
        full += want == len(keys)
        # the rank of every prefix, by the oracle
        ranks = [echelon_coefficient_rank(polys[:k]) for k in range(len(polys) + 1)]
        for most in range(len(keys) + 1):
            read = []

            def counting():
                for p in polys:
                    read.append(p)
                    yield p

            got = linalg.coefficient_rank(counting(), most)
            assert got == min(want, most)
            # reading stops right after the shortest prefix of rank `most`,
            # and reads everything when no prefix reaches it
            stop = next((k for k, r in enumerate(ranks) if r >= most), len(polys))
            assert len(read) == stop
        assert linalg.coefficient_rank(iter(polys), len(keys)) == want
        assert polys == frozen
    assert 0 < full < 300
