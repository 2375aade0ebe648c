"""Orbit dimension of a matrix space under congruence.

GL_n acts on skew matrices by B -> P^T B P, and so on the span
V = <B_1..B_d> of the coefficient matrices, a point of the Grassmannian
of d-planes in the skew matrices.  Scalars fix V, so the GL_n and SL_n
orbits agree, and over the rationals the orbit has dimension
n^2 - dim s, where s is the Lie algebra of the stabilizer of V.
Differentiating (I + tX)^T B (I + tX) = B + t(X^T B + B X) + O(t^2)
gives

    s = {X in gl_n : X^T B_k + B_k X lies in V for every k}.

So s is the kernel of one integer linear system.  Its unknowns are X
(n^2 columns) and a d x d matrix C (d^2 columns); its rows are the
upper-triangle entries (i, j) of X^T B_k + B_k X - sum_l C_lk B_l, one
per k and i < j, since both sides are skew.  The unknown X_pq enters
entry (i, j) with B_k[p][j] when q = i and with B_k[i][p] when q = j.
The B_l are independent, so C is determined by X and the kernel is
isomorphic to s: dim s = n^2 + d^2 - rank.  Hence orbit_dim = rank - d^2.
The tangent rank, the dimension of the affine cone over the orbit in
Pluecker space, is orbit_dim + 1.

Each row has at most 2n + d nonzeros out of n^2 + d^2 columns, so the
rank is `linalg.sparse_rank`: Markowitz pivots (shortest row, rarest
column) with primitive integer rows, exact, with no modular step.

Congruence moves V along its orbit and a parameter change does not move
V at all, so a space congruent to A's, in any basis, has the same orbit,
order and d.  A pencil of constant rank is congruent to its Kronecker
canonical form, the staircase blocks of its minimal indices padded by
zero rows (Thompson, LAA 147, 1991), whose 0/+-1 rows stay sparse however
dense the input is.  So when <B_1, B_2> has constant rank:
- d = 2: `pencil.invariants_of` proves the indices from integer ranks,
  and the system of the staircase pair of the partition, padded to order
  n (`pencil._staircase`), is ranked; no congruence is built.
- d >= 3: `pencil.congruence_to_canonical(B_1, B_2)` gives an integer P
  with P^T B_k P = m^2 C_k for the canonical pair C_1, C_2, and the
  system of (C_1, C_2, P^T B_3 P, ..., P^T B_d P), each divided by its
  content, is ranked.  That is a basis of P^T V P, since scaling a basis
  matrix changes no span.  Any invertible P keeps the orbit, so of all
  the properties of P only det P != 0 matters for exactness; the
  canonical form only makes the rows sparse.  A non-constant
  <B_1, B_2> gives None and the space ranks its own system.
The route is read off the input.  By the count in `_system_nonzeros`,
the system has (2(n - 1) + d) nonzeros per upper nonzero of the B_k.
The canonical C_1 and C_2 have at most one nonzero per row and column,
n // 2 upper ones each, and every other P^T B_k P is counted as dense;
that bound depends on n and d alone.  A space whose own system has no
more nonzeros than the bound ranks its own system, and a sparse pencil
then skips `invariants_of` too.

Reference: the same number is the rank of the Pluecker tangent rows.
Each elementary matrix E gives one row, the derivative at t = 0 of the
Pluecker vector of (B_1 + t D_1) ^ ... ^ (B_d + t D_d) with
D_k = E^T B_k + B_k E.  Rows are sparse dicts keyed by column subsets;
rank_exact ranks them by fraction-free elimination of the row Gram
matrix, whose rank over the rationals equals the row rank.
orbit_dimension does not use this path; the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from . import linalg, pencil


@dataclass(frozen=True)
class OrbitReport:
    ambient_grassmannian_dim: int
    tangent_rank: int
    orbit_dim: int
    stabilizer_dim: int
    seed: int

    def to_json(self):
        return {
            "ambient_grassmannian_dim": self.ambient_grassmannian_dim,
            "tangent_rank": self.tangent_rank,
            "orbit_dim": self.orbit_dim,
            "stabilizer_dim": self.stabilizer_dim,
            "seed": self.seed,
        }


def _pair_index(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return {p: k for k, p in enumerate(pairs)}


def _flatten_int(B, index):
    """Strict upper triangle of an integer skew matrix as a sparse dict."""
    out = {}
    for (i, j), k in index.items():
        v = B[i][j]
        if v:
            out[k] = v
    return out


def _require_independent(basis):
    n = len(basis[0])
    flat = [[B[i][j] for i in range(n) for j in range(i + 1, n)] for B in basis]
    if len(linalg.echelon_int(flat, n * (n - 1) // 2)[1]) != len(basis):
        raise ValueError("coefficient matrices are linearly dependent")


def stabilizer_rows(basis):
    """Integer rows of the stabilizer system (see the module docstring), as
    dicts column -> value.

    Columns p*n + q hold X_pq and n^2 + l*d + k hold C_lk; all-zero rows
    are left out.  The columns of one row are distinct, since X_pi and
    X_pj differ for i != j, so every entry is read off once.
    """
    d = len(basis)
    n = len(basis[0])
    nn = n * n
    rows = []
    for k, B in enumerate(basis):
        for i in range(n):
            Bi = B[i]
            for j in range(i + 1, n):
                row = {}
                for p in range(n):
                    if B[p][j]:
                        row[p * n + i] = B[p][j]
                    if Bi[p]:
                        row[p * n + j] = Bi[p]
                for l, Bl in enumerate(basis):
                    if Bl[i][j]:
                        row[nn + l * d + k] = -Bl[i][j]
                if row:
                    rows.append(row)
    return rows


def _mv_wedge_vec(mv, vec):
    """Wedge a multivector (dict subset-tuple -> int) with a 1-vector."""
    out = {}
    for key, c in mv.items():
        for col, v in vec.items():
            if col in key:
                continue
            above = sum(1 for s in key if s > col)
            merged = tuple(sorted(key + (col,)))
            val = c * v if above % 2 == 0 else -c * v
            s = out.get(merged, 0) + val
            if s:
                out[merged] = s
            elif merged in out:
                del out[merged]
    return out


def _mv_wedge(m1, m2):
    """Wedge of two multivectors with ascending subset keys."""
    if not m1 or not m2:
        return {}
    out = {}
    for k1, c1 in m1.items():
        set1 = set(k1)
        for k2, c2 in m2.items():
            if set1 & set(k2):
                continue
            inv = sum(1 for x in k1 for y in k2 if x > y)
            merged = tuple(sorted(k1 + k2))
            val = c1 * c2 if inv % 2 == 0 else -c1 * c2
            s = out.get(merged, 0) + val
            if s:
                out[merged] = s
            elif merged in out:
                del out[merged]
    return out


def tangent_rows(A):
    """One sparse Pluecker-derivative row per elementary matrix E_(i,j)."""
    n = A.order
    d = A.nvars
    index = _pair_index(n)
    basis = A.integer_basis()
    _require_independent(basis)
    flats = [_flatten_int(B, index) for B in basis]

    prefix = [{(): 1}]
    for k in range(d):
        prefix.append(_mv_wedge_vec(prefix[-1], flats[k]))
    flat_mv = [{(c,): v for c, v in f.items()} for f in flats]
    suffix = [None] * (d + 1)
    suffix[d] = {(): 1}
    for k in range(d - 1, -1, -1):
        suffix[k] = _mv_wedge(flat_mv[k], suffix[k + 1])

    # Each row is linear in every D_k, so it is the sum of D_k[c] times
    # W(k, c) = B_1 ^ .. ^ B_(k-1) ^ e_c ^ B_(k+1) ^ .. ^ B_d; each
    # W(k, c) is built once, when a D_k first has position c.
    wedges = {}
    rows = []
    for i in range(n):
        for j in range(n):
            # D_k = E^T B_k + B_k E for E with a single 1 at (i, j):
            # row j of D_k is row i of B_k, column j is column i of B_k.
            row_acc = {}
            for k in range(d):
                B = basis[k]
                D = {}
                for q in range(n):
                    v = B[i][q]
                    if v and j != q:
                        key = (j, q) if j < q else (q, j)
                        D[index[key]] = D.get(index[key], 0) + (v if j < q else -v)
                for p in range(n):
                    v = B[p][i]
                    if v and p != j:
                        key = (p, j) if p < j else (j, p)
                        D[index[key]] = D.get(index[key], 0) + (v if p < j else -v)
                for c, v in D.items():
                    if not v:
                        continue
                    w = wedges.get((k, c))
                    if w is None:
                        w = wedges[(k, c)] = _mv_wedge(
                            _mv_wedge_vec(prefix[k], {c: 1}), suffix[k + 1])
                    for key, x in w.items():
                        row_acc[key] = row_acc.get(key, 0) + v * x
            rows.append({key: v for key, v in row_acc.items() if v})
    return rows


def rank_exact(rows):
    """Exact rank of sparse integer rows (dicts column -> value).

    Fraction-free (Bareiss) elimination of the integer row Gram matrix,
    which over the rationals has the same rank as the rows themselves.
    """
    rows = list(rows)
    m = len(rows)
    by_col = {}
    for i, r in enumerate(rows):
        for c, v in r.items():
            by_col.setdefault(c, []).append((i, v))
    gram = [[0] * m for _ in range(m)]
    for entries in by_col.values():
        for a, (i, v) in enumerate(entries):
            gi = gram[i]
            for j, w in entries[a:]:
                gi[j] += v * w
    for i in range(m):
        for j in range(i):
            gram[i][j] = gram[j][i]
    return len(linalg.echelon_int(gram, m)[1])


def _system_nonzeros(basis):
    """Nonzeros of stabilizer_rows(basis), without building it.  Row
    (k, i, j) holds one per nonzero in column j and in row i of B_k and
    one per B_l nonzero at (i, j); summed over i < j, that is n - 1 per
    nonzero of B_k and d per upper nonzero of the B_l."""
    n, d = len(basis[0]), len(basis)
    upper = sum(1 for B in basis for i in range(n) for x in B[i][i + 1:] if x)
    return (2 * (n - 1) + d) * upper


def _canonical_bound(n, d):
    """An upper bound on _system_nonzeros for every space of order n and
    dimension d whose first two coefficient matrices have at most one
    nonzero per row and column."""
    return (2 * (n - 1) + d) * (2 * (n // 2) + (d - 2) * comb(n, 2))


def _congruent_basis(A, basis):
    """A basis of a space congruent to A's, with <B_1, B_2> in canonical
    form when that pencil has constant rank; `basis` itself otherwise."""
    if len(basis) == 2:
        inv = pencil.invariants_of(A)
        return pencil._staircase(inv.partition, A.order) if inv.constant else basis
    found = pencil.congruence_to_canonical(*basis[:2])
    if found is None:
        return basis
    inv, P, _ = found
    Pt = linalg.transpose(P)
    out = pencil._staircase(inv.partition, A.order)
    for B in basis[2:]:
        M = linalg.mat_mul(Pt, linalg.mat_mul(B, P))
        g = gcd(*(x for row in M for x in row))
        out.append([[x // g for x in row] for row in M])
    return out


def orbit_dimension(A, seed=0):
    """Orbit dimension report for the space spanned by A's coefficients.

    The computation is exact and uses no randomness: the report does not
    depend on `seed`, which is only echoed.
    """
    n = A.order
    d = A.nvars
    basis = A.integer_basis()
    _require_independent(basis)
    if d >= 2 and _system_nonzeros(basis) > _canonical_bound(n, d):
        basis = _congruent_basis(A, basis)
    rank = linalg.sparse_rank(stabilizer_rows(basis))
    orbit_dim = rank - d * d
    return OrbitReport(
        ambient_grassmannian_dim=d * (comb(n, 2) - d),
        tangent_rank=orbit_dim + 1,
        orbit_dim=orbit_dim,
        stabilizer_dim=n * n + d * d - rank,
        seed=seed,
    )
