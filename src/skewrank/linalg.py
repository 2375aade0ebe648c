"""Exact linear algebra over the rationals and the integers.

Small helper routines shared across the package.  `integer_rows` is the
one place denominators are cleared: rows times the lcm m of all their
denominators, and rows of ints as they are (m = 1, no Fraction built).
One common positive scale changes no rank, kernel or row space.  Ranks,
the integer reduced echelon form and kernels of dense matrices (lists of
lists) come from one routine, fraction-free (Bareiss) forward
elimination of integer rows in column order (`echelon_int`); a square
matrix is invertible when its `bareiss_rank` is full.  The one large
sparse system, the orbit stabilizer system, is ranked by `sparse_rank`
on dict rows instead: its rows hold at most 2n + d nonzeros out of
n^2 + d^2 columns, and column order would fill them in.  The pencil chain
kernels, n x (k + n) each, stay on `echelon_int`, which is cheaper
there.  The coefficient rows of packed polynomials, such as
sub-Pfaffians, are ranked by `coefficient_rank` as they are read: each
is reduced against the rows kept so far, and reading stops once the rank
reaches the dimension of the space of forms they live in, so a caller
that produces them lazily computes no polynomial past the first prefix
of full rank.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import mul

Q = Fraction


def integer_rows(rows):
    """(int_rows, m): the rows times m, the least positive integer that
    makes every entry integral.  Rows of ints come back as they are with
    m = 1, building no Fraction; callers copy before they write."""
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    rows = [[x if isinstance(x, (int, Q)) else Q(x) for x in row] for row in rows]
    m = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (m // x.denominator) for x in row] for row in rows], m


def primitive_int(v):
    """Integer vector divided by the gcd of its entries, with its first
    nonzero entry positive, as a tuple; the zero vector is kept."""
    g = gcd(*v)
    if not g:
        return tuple(v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v)


def echelon_int(rows, ncols):
    """Fraction-free (Bareiss) forward elimination of integer rows.

    Returns (echelon_rows, pivot_cols); entries stay integers, row i has
    its pivot at pivot_cols[i].  The input is not modified.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            mi = m[i]
            mr = m[r]
            t = mi[c]
            if t:
                for j in range(c, ncols):
                    mi[j] = (p * mi[j] - t * mr[j]) // prev
            elif p != prev:
                for j in range(c, ncols):
                    mi[j] = (p * mi[j]) // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def sparse_rank(rows):
    """Exact rank of integer rows given as dicts column -> value.

    Markowitz's pivot rule (Management Science 3, 1957): each step pivots
    on the shortest remaining row, at its column with the fewest nonzeros
    among the remaining rows.  Only the rows with a nonzero in that column
    change: row <- a*row - b*pivot with a = p/g, b = t/g, g = gcd(p, t),
    then the row is divided by the gcd of its entries.  Keeping rows
    primitive bounds the entries without Bareiss's common divisor, and
    an update touches no column outside the two rows.  It pays on sparse
    systems, where few rows meet each pivot column; `echelon_int` stays
    cheaper on small or dense ones.  The input is not modified.
    """
    live = {}                               # row id -> {column: value}
    where = {}                              # column -> ids of rows using it
    for i, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[i] = row
            for c in row:
                where.setdefault(c, set()).add(i)
    queue = [(len(row), i) for i, row in live.items()]
    heapify(queue)                  # (length, id), stale once a row changes
    rank = 0
    while live:
        size, i = heappop(queue)
        if len(live.get(i, ())) != size:
            continue
        piv = live.pop(i)
        for c in piv:
            where[c].discard(i)
        col = min(piv, key=lambda c: len(where[c]))
        p = piv.pop(col)
        rank += 1
        for k in where.pop(col):
            row = live[k]
            t = row.pop(col)
            g = gcd(p, t)
            a, b = p // g, t // g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in piv.items():
                x = row.get(c, 0) - b * v
                if x:
                    if c not in row:
                        where[c].add(k)
                    row[c] = x
                elif c in row:
                    del row[c]
                    where[c].discard(k)
            if not row:
                del live[k]
                continue
            g = gcd(*row.values())
            if g != 1:
                for c in row:
                    row[c] //= g
            heappush(queue, (len(row), k))
    return rank


def coefficient_rank(polys, most):
    """Rank of the integer coefficient rows of polynomials given as dicts
    {monomial: integer}, read one at a time from any iterable.

    Each row, a list over the monomials seen so far, is reduced against
    the primitive rows kept so far, in the order they were kept:
    row <- a*row - b*kept with a = p/g, b = t/g, g = gcd(p, t), which
    zeroes the kept row's pivot column, p its entry there and t the
    row's.  Later kept rows are zero in that column, so a row left
    nonzero is independent of them; it is kept, primitive, with its
    first nonzero column as pivot.  Reading stops as soon as `most` rows
    are kept, so with `most` the dimension of the space of forms the
    polynomials live in, the count returned is still the exact rank.
    """
    cols = {}                          # monomial -> column, in order seen
    kept = []                          # (pivot column, primitive row)
    polys = iter(polys)
    while len(kept) < most:
        poly = next(polys, None)
        if poly is None:
            break
        seen = len(cols)
        for m in poly:
            cols.setdefault(m, len(cols))
        if len(cols) > seen:
            pad = [0] * (len(cols) - seen)
            for _, piv in kept:
                piv += pad
        row = [0] * len(cols)
        for m, c in poly.items():
            row[cols[m]] = c
        for col, piv in kept:
            t = row[col]
            if t:
                p = piv[col]
                g = gcd(p, t)
                a, b = p // g, t // g
                row = [a * x - b * y for x, y in zip(row, piv)]
        if any(row):
            g = gcd(*row)
            kept.append((next(i for i, x in enumerate(row) if x), [x // g for x in row]))
    return len(kept)


def bareiss_rank(rows):
    """Rank of a matrix with integer or rational entries."""
    m = integer_rows(rows)[0]
    return len(echelon_int(m, len(m[0]))[1]) if m and m[0] else 0


def reduced_echelon_int(rows, ncols):
    """Integer reduced echelon form of integer rows.

    Forward elimination by `echelon_int`, then fraction-free
    back-elimination clears each pivot column above its pivot.  Every row
    is made primitive with a positive pivot, so row i is a positive
    multiple of row i of the rational RREF.  Returns (rows as tuples,
    pivot_cols).
    """
    ech, pivots = echelon_int(rows, ncols)
    done = []                     # reduced rows below, with their pivots
    for row, c in zip(reversed(ech), reversed(pivots)):
        for low, lc in done:
            t = row[lc]
            if t:
                p = low[lc]
                row = [p * a - t * b for a, b in zip(row, low)]
        done.append((primitive_int(row), c))
    return [row for row, _ in reversed(done)], pivots


def nullspace(rows, ncols):
    """Basis of the right kernel over Q, one vector per free column.

    Read off the integer reduced echelon form.  Vectors are normalised to
    primitive integers with positive first nonzero entry and ordered by
    free column index.
    """
    red, pivots = reduced_echelon_int(integer_rows(rows)[0], ncols)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        # v[fc] = 1 and v[c] = -row[fc] / row[c] for each pivot c, scaled
        # by the lcm of the pivots involved
        used = [(row, c) for row, c in zip(red, pivots) if row[fc]]
        m = lcm(*(row[c] for row, c in used))
        v = [0] * ncols
        v[fc] = m
        for row, c in used:
            v[c] = -row[fc] * (m // row[c])
        basis.append(list(primitive_int(v)))
    return basis


def primitive_vector(v):
    """Scale a rational vector to integers with gcd 1, first nonzero > 0."""
    return list(primitive_int(integer_rows([v])[0][0]))


def independent(p, q):
    """Are the vectors p and q independent: has [p; q] a nonzero 2x2
    minor?  No elimination is run."""
    return any(p[i] * q[j] != p[j] * q[i]
               for i, j in combinations(range(len(p)), 2))


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]
