"""Complete classification of skew-symmetric pencils, and their rank.

A pencil a*B1 + b*B2 of order n and constant rank 2r is classified by its
n - 2r Kronecker minimal indices, the degrees of a minimal polynomial
basis of its kernel: the positive ones form a partition of r, the zeros
count constant kernel vectors (padding, the degenerate part split off by
zero rows and columns).  These invariants are complete for congruence, so
equivalence is decided by comparing them.

They come from integer ranks alone (Van Dooren, LAA 27, 1979).  The
kernel vectors of degree delta in (a, b) solve a block-Toeplitz system
T_delta whose kernel has dimension k_delta = sum over indices eps <= delta
of (delta - eps + 1), so k_delta - 2 k_(delta-1) + k_(delta-2) indices
equal delta.  A skew pencil is congruent to a sum of blocks, one of 2eps + 1
rows for each index eps, and a regular part of size R; so the sequence
stops once the rows left over cannot hold a block of index delta.  The
normal rank is n minus the number of indices, 2*sum(eps) + R, and the
rank is the same at every point exactly when R = 0, that is when the
indices sum to half the normal rank: the constancy proof of `certify`.

A caller that has already proved rank 2r at every point (a line in a
certified constant-rank space) passes it as `constant_rank`, and the
sequence stops as soon as that proof forces the rest.  With R = 0 the
m = n - 2r indices sum to r.  Before T_delta, the indices found are
exactly those below delta, so the m' still missing are all >= delta and
sum to r' = r - (sum found).  When m' <= 1, or r' - m' * delta = e <= 1,
there is one way to do that: the single index r', or e indices
delta + 1 and m' - e indices delta.  On an 8x8 rank-6 plane T_0 alone
decides the splitting: one constant kernel vector gives (3) with
padding 1, none gives (2, 1).  A claimed rank that no indices can meet
raises ValueError; one that is wrong but consistent gives wrong indices,
so only a proven rank may be passed.

`congruence_to_canonical` also exhibits the congruence, in integers
(Thompson, LAA 147, 1991, made explicit):
1. A minimal basis of the kernel from the integer kernels of the T_delta:
   at each delta, the vectors that complement the shifts of the lower
   ones.  Their count, k_delta minus the shifts, gives the indices.
2. For a vector c_0..c_eps of index eps, y_s = (-1)^s c_(eps-s) for
   s = 0..eps; the y's of all blocks span an isotropic space W.
3. For block i and t < eps_i, x_(i,t) pairs with the y's as the
   staircase does: B1(x, y_(j,s)) = [i = j][s = t] and
   B2(x, y_(j,s)) = [i = j][s = t + 1], one echelon form for every
   right-hand side.  Each x is fixed modulo W.
4. Adding elements of W makes the x's isotropic: B_k(x, x') = 0 is one
   linear system in which every equation sets a difference of two
   coefficients and every coefficient is in at most two equations, so it
   is solved along chains.
5. P = [x's | y's of positive blocks | constant kernel vectors].
Step 3 gives X = m x in integers, m the lcm of the echelon pivots, and
step 4 corrects m X by integer multiples of the y's, since B_k(X, X') is
an integer; so P is integral with P^T B_k P = m^2 C_k, C_k the
coefficient matrices of canonical_form(partition).matrix.pad_zero(padding).
Both products and det P != 0 are checked before P is returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import lcm

from . import linalg
from .skew import SkewPolyMatrix


@dataclass(frozen=True)
class KroneckerInvariants:
    rank: int
    partition: tuple
    padding: int

    @property
    def constant(self):
        """True when the pencil has its normal rank at every point."""
        return 2 * sum(self.partition) == self.rank

    def to_json(self):
        return {"rank": self.rank, "partition": list(self.partition),
                "padding": self.padding}

    def dumps(self):
        return json.dumps(self.to_json())


@dataclass(frozen=True)
class CanonicalPencil:
    invariants: KroneckerInvariants
    matrix: SkewPolyMatrix


def _toeplitz_rows(B1, B2, n, delta):
    """Nonzero rows of T_delta: in the unknowns c_0..c_delta of
    v = sum c_e * a^(delta-e) b^e, the coefficient of a^(delta+1-e) b^e
    in (a*B1 + b*B2) v is B1 c_e + B2 c_(e-1)."""
    zero = [0] * n
    rows = []
    for e in range(delta + 2):
        blocks = [B1 if k == e else B2 if k == e - 1 else None
                  for k in range(delta + 1)]
        for i in range(n):
            row = [x for B in blocks for x in (zero if B is None else B[i])]
            if any(row):
                rows.append(row)
    return rows


def _toeplitz_rank(B1, B2, n, delta):
    """Rank of T_delta."""
    return len(linalg.echelon_int(_toeplitz_rows(B1, B2, n, delta),
                                  (delta + 1) * n)[1])


def _forced_indices(m, r, delta):
    """The m indices left, all >= delta and summing to r, when that forces
    them; None when it does not.  ValueError when no indices can."""
    e = r - m * delta
    if m < 0 or e < 0 or (m == 0 and e):
        raise ValueError("the claimed constant rank does not fit the "
                         "pencil's Kronecker indices")
    if m == 1:
        return [r]
    if e <= 1:
        return [delta + 1] * e + [delta] * (m - e)
    return None


def pencil_invariants(B1, B2, constant_rank=None):
    """Kronecker invariants of the nonzero integer pencil a*B1 + b*B2,
    with its normal rank; `constant` tells whether that rank is attained
    at every point.  `constant_rank`, when given, must be a proven rank
    at every point; the sequence then stops once it forces the indices."""
    n = len(B1)
    k = [0, 0]                       # k_(delta-2), k_(delta-1), ...
    indices = []
    delta = 0
    while n - 2 * sum(indices) - len(indices) >= 2 * delta + 1:
        if constant_rank is not None:
            forced = _forced_indices(n - constant_rank - len(indices),
                                     constant_rank // 2 - sum(indices), delta)
            if forced is not None:
                indices += forced
                break
        k.append((delta + 1) * n - _toeplitz_rank(B1, B2, n, delta))
        indices += [delta] * (k[-1] - 2 * k[-2] + k[-3])
        delta += 1
    if len(indices) == n:
        raise ValueError("zero pencil has no Kronecker invariants")
    partition = tuple(sorted((d for d in indices if d), reverse=True))
    inv = KroneckerInvariants(n - len(indices), partition, indices.count(0))
    if constant_rank is not None and not (inv.constant
                                          and inv.rank == constant_rank):
        raise ValueError("the claimed constant rank does not fit the "
                         "pencil's Kronecker indices")
    return inv


@lru_cache(maxsize=512)
def invariants_of(A):
    """pencil_invariants of the pencil A, computed once per matrix content
    for certification and classification alike."""
    return pencil_invariants(*A.integer_basis())


def minimal_indices(A):
    """Kronecker invariants of a constant-rank pencil; raises ValueError
    unless A is a pencil of constant rank."""
    if A.nvars != 2:
        raise ValueError("minimal indices are defined for pencils (d = 2)")
    inv = invariants_of(A)
    if not inv.constant:
        raise ValueError("pencil does not have constant rank")
    return inv


def _staircase(partition, order):
    """Integer coefficient matrices [B_a, B_b] of the canonical pencil of
    a valid partition, padded by zero rows and columns to `order`."""
    r = sum(partition)
    Ba, Bb = ([[0] * order for _ in range(order)] for _ in range(2))
    row, col = 0, r
    for ri in partition:
        for t in range(ri):
            for B, j in ((Ba, col + t), (Bb, col + t + 1)):
                B[row + t][j], B[j][row + t] = 1, -1
        row += ri
        col += ri + 1
    return [Ba, Bb]


def canonical_form(partition):
    """Canonical pencil for a partition (r_1 >= ... >= r_h >= 1).

    Block layout: order 2r + h; the 0/+-1 coefficient matrices of `a` and
    `b` fill the top-right r x (r + h) block with staircase blocks, `a`
    on their diagonal and `b` beside it.
    """
    partition = tuple(int(x) for x in partition)
    if not partition:
        raise ValueError("empty partition")
    if any(x < 1 for x in partition):
        raise ValueError("partition entries must be positive")
    if list(partition) != sorted(partition, reverse=True):
        raise ValueError("partition must be non-increasing")
    r = sum(partition)
    matrix = SkewPolyMatrix.from_coefficient_basis(
        ("a", "b"), _staircase(partition, 2 * r + len(partition)))
    return CanonicalPencil(KroneckerInvariants(2 * r, partition, 0), matrix)


def _minimal_basis(B1, B2):
    """A minimal polynomial basis of the kernel of the nonzero pencil
    a*B1 + b*B2, by increasing degree, each vector as its coefficient
    vectors c_0..c_eps.

    The kernel of T_delta holds the shifts a^o b^(delta-eps-o) v of the
    vectors v found below delta, and the vectors of degree delta are a
    complement of them.  Each kernel vector of `linalg.nullspace` is zero
    on every free column but its own, which is its last nonzero entry; so
    a complement is the kernel vectors of the free columns left over once
    the shifts, read on the free columns, are in echelon form."""
    n = len(B1)
    basis = []
    delta = 0
    while n - sum(2 * len(cs) - 1 for cs in basis) >= 2 * delta + 1:
        kernel = linalg.nullspace(_toeplitz_rows(B1, B2, n, delta),
                                  (delta + 1) * n)
        free = [max(i for i, x in enumerate(v) if x) for v in kernel]
        shifts = [[cs[f // n - o][f % n] if 0 <= f // n - o < len(cs) else 0
                   for f in free]
                  for cs in basis for o in range(delta + 2 - len(cs))]
        covered = set(linalg.echelon_int(shifts, len(free))[1])
        basis += [[v[e * n:(e + 1) * n] for e in range(delta + 1)]
                  for j, v in enumerate(kernel) if j not in covered]
        delta += 1
    if len(basis) == n:
        raise ValueError("zero pencil has no Kronecker invariants")
    return basis


def congruence_to_canonical(B1, B2):
    """(invariants, P, m) for a constant-rank integer pencil a*B1 + b*B2:
    integers P (n x n, det P != 0) and m > 0 with P^T B_k P = m^2 C_k,
    where C_1, C_2 are the coefficient matrices of
    canonical_form(partition).matrix.pad_zero(padding); None when the
    rank is not constant.  Steps 1 to 5 of the module docstring."""
    n = len(B1)
    basis = _minimal_basis(B1, B2)
    degrees = [len(cs) - 1 for cs in basis]
    partition = tuple(sorted((e for e in degrees if e), reverse=True))
    inv = KroneckerInvariants(n - len(basis), partition, degrees.count(0))
    if not inv.constant:
        return None
    # y_s = (-1)^s c_(eps-s), block by block in the order of the partition;
    # x number p pairs with y number yof[p] under B1 and yof[p] + 1 under B2
    blocks = sorted((cs for cs in basis if len(cs) > 1), key=len, reverse=True)
    ys, yof = [], []
    for cs in blocks:
        yof += range(len(ys), len(ys) + len(cs) - 1)
        ys += [[(-1) ** s * x for x in cs[-1 - s]] for s in range(len(cs))]
    r = len(yof)
    # X, with free coordinates 0: B1(X_p, y_q) = m [q = yof[p]] and
    # B2(X_p, y_q) = m [q = yof[p] + 1], one echelon form for all p
    rows = []
    for q, y in enumerate(ys):
        for B, s in ((B1, 0), (B2, 1)):
            rows.append(linalg.mat_vec(B, y) + [int(q == t + s) for t in yof])
    red, pivots = linalg.reduced_echelon_int(rows, n + r)
    if pivots and pivots[-1] >= n:
        raise ArithmeticError("no dual vectors for the minimal basis")
    m = lcm(*(row[c] for row, c in zip(red, pivots)))
    X = [[0] * n for _ in range(r)]
    for row, c in zip(red, pivots):
        for p in range(r):
            X[p][c] = row[n + p] * (m // row[c])
    # x_p = m X_p + sum_q alpha[p, q] y_q is isotropic when, for p < p2,
    # alpha[p2, yof[p] + s] - alpha[p, yof[p2] + s] = -B(X_p, X_p2), with
    # s = 0 for B1 and s = 1 for B2.  Each unknown is in at most two of
    # these equations, so they solve along chains from a value 0.
    links = {}
    for s, B in enumerate((B1, B2)):
        BX = [linalg.mat_vec(B, x) for x in X]
        for p, p2 in combinations(range(r), 2):
            c = -sum(a * b for a, b in zip(X[p], BX[p2]))
            u, v = (p2, yof[p] + s), (p, yof[p2] + s)
            links.setdefault(u, []).append((v, c))
            links.setdefault(v, []).append((u, -c))
    alpha = {}
    for start in links:
        if start in alpha:
            continue
        alpha[start] = 0
        todo = [start]
        while todo:
            u = todo.pop()
            for v, c in links[u]:
                if v not in alpha:
                    alpha[v] = alpha[u] - c
                    todo.append(v)
    cols = [[m * x for x in X[p]] for p in range(r)]
    for (p, q), a in alpha.items():
        if a:
            cols[p] = [x + a * y for x, y in zip(cols[p], ys[q])]
    cols += ys + [cs[0] for cs in basis if len(cs) == 1]
    P = linalg.transpose(cols)
    for B, C in zip((B1, B2), _staircase(partition, n)):
        if linalg.mat_mul(cols, linalg.mat_mul(B, P)) != \
                [[m * m * x for x in row] for row in C]:
            raise ArithmeticError("congruence check failed")
    if not linalg.bareiss_det(P):
        raise ArithmeticError("singular congruence")
    return inv, P, m


def equivalent(A, B):
    """Congruence equivalence of two constant-rank pencils."""
    return minimal_indices(A) == minimal_indices(B)
