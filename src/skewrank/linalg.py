"""Exact dense linear algebra over the rationals and the integers.

Small helper routines shared across the package: fraction-free Gaussian
elimination (Bareiss) for ranks and determinants, rational RREF, kernels
and inverses.  Matrices are lists of lists; nothing here is optimised
beyond what desk-scale inputs need.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Q = Fraction


def _to_int_rows(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        row = [Q(x) for x in row]
        m = 1
        for x in row:
            m = m * x.denominator // gcd(m, x.denominator)
        out.append([int(x * m) for x in row])
    return out


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


def bareiss_rank(rows):
    """Rank of a matrix with integer or rational entries."""
    m = _to_int_rows(rows)
    if not m or not m[0]:
        return 0
    _, pivots = echelon_int(m, len(m[0]))
    return len(pivots)


def bareiss_det(rows):
    """Determinant of a square matrix with integer entries."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        p = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (p * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = p
    return sign * m[n - 1][n - 1]


def det(rows):
    """Determinant over Q."""
    rows = [[Q(x) for x in row] for row in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    scale = Q(1)
    for i, row in enumerate(rows):
        m = 1
        for x in row:
            m = m * x.denominator // gcd(m, x.denominator)
        scale *= m
        rows[i] = [int(x * m) for x in row]
    return Q(bareiss_det(rows), 1) / scale


def rref(rows):
    """Reduced row echelon form over Q; returns (rref_rows, pivot_cols)."""
    m = [[Q(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                t = m[r][col]
                m[r] = [a - t * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def nullspace(rows, ncols=None):
    """Basis of the right kernel over Q, one vector per free column.

    Fraction-free forward elimination does the heavy lifting; only the
    small triangular back-substitution runs over Q.  Vectors are
    normalised to primitive integers with positive first nonzero entry
    and ordered by free column index.
    """
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer width of an empty matrix")
        ncols = len(rows[0])
    work = [r for r in _to_int_rows(rows) if any(r)]
    if not work:
        basis = []
        for fc in range(ncols):
            v = [0] * ncols
            v[fc] = 1
            basis.append(v)
        return basis
    ech, pivots = echelon_int(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for i in range(len(pivots) - 1, -1, -1):
            if pivots[i] > fc:
                continue
            row = ech[i]
            s = row[fc] if fc > pivots[i] else Q(0)
            for k in range(i + 1, len(pivots)):
                if row[pivots[k]]:
                    s += row[pivots[k]] * v[pivots[k]]
            v[pivots[i]] = -Q(s, row[pivots[i]])
        basis.append(primitive_vector(v))
    return basis


def primitive_vector(v):
    """Scale a rational vector to integers with gcd 1, first nonzero > 0."""
    v = [Q(x) for x in v]
    m = 1
    for x in v:
        m = m * x.denominator // gcd(m, x.denominator)
    w = [int(x * m) for x in v]
    g = 0
    for x in w:
        g = gcd(g, abs(x))
    if g > 1:
        w = [x // g for x in w]
    for x in w:
        if x:
            if x < 0:
                w = [-y for y in w]
            break
    return w


def rank(rows):
    return bareiss_rank(rows)


def invert(rows):
    """Inverse of a square rational matrix; raises on singular input."""
    n = len(rows)
    aug = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(rows)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in r[:n]]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def span_rref(vectors):
    """Canonical RREF basis of the span of the given vectors."""
    vectors = [list(v) for v in vectors]
    if not vectors:
        return ()
    r, pivots = rref(vectors)
    return tuple(tuple(primitive_vector(r[i])) for i in range(len(pivots)))
