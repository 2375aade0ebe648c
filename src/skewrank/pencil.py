"""Complete classification of skew-symmetric pencils, and their rank.

A pencil a*B1 + b*B2 of order n and constant rank 2r is classified by its
n - 2r Kronecker minimal indices, the degrees of a minimal polynomial
basis of its kernel: the positive ones form a partition of r, the zeros
count constant kernel vectors (padding, the degenerate part split off by
zero rows and columns).  These invariants are complete for congruence, so
equivalence is decided by comparing them.

They come from integer kernels in Q^n alone, by one chain recursion
(a Wong sequence: Berger, Ilchmann and Trenn, SIAM J. Matrix Anal. Appl.
33, 2012) that reproduces Van Dooren's counts (LAA 27, 1979).  A kernel
vector sum c_e a^(delta-e) b^e of degree delta has B1 c_0 = 0,
B1 c_e + B2 c_(e-1) = 0 for 0 < e <= delta, and B2 c_delta = 0: the
kernel of a block-Toeplitz system T_delta, of dimension k_delta = sum
over indices eps <= delta of (delta - eps + 1), so
k_delta - 2 k_(delta-1) + k_(delta-2) indices equal delta.  Call
c_0..c_delta a chain when it meets all but the last condition, and let
E_delta be the space of chain ends c_delta: E_0 = ker B1 and
E_(delta+1) = {c : B1 c in B2 E_delta}.  Block elimination on the last
block column of T_delta, which meets only its last two block rows, gives
the counts: v -> c_delta maps ker T_delta onto E_delta cap ker B2, and
its kernel, the chains ending in c_delta = 0, is ker T_(delta-1) with a
zero block appended.  So k_delta - k_(delta-1) = g_delta, the dimension
of E_delta cap ker B2, and g_delta - g_(delta-1) indices equal delta.
Every step, step 0 included, reads g_delta = dim E_delta -
rank(B2 E_delta).  Moving from E_delta to E_(delta+1) takes one integer
kernel, of the n x (k + n) matrix [B2 E_delta | B1] with k = dim E_delta:
each kernel vector (y, c) with c != 0 ends a chain one longer, through
E_delta y.  E_0 = ker B1 depends on B1 alone, so it is kept in a bounded
cache keyed by the matrix: the pencils of the lines through one point
share their first kernel, and each later step costs one kernel and one
rank.

A skew pencil is congruent to a sum of blocks, one of 2eps + 1
rows for each index eps, and a regular part of size R; so the sequence
stops once the rows left over cannot hold a block of index delta.  The
normal rank is n minus the number of indices, 2*sum(eps) + R, and the
rank is the same at every point exactly when R = 0, that is when the
indices sum to half the normal rank: the constancy proof of `certify`.

A caller that has already proved rank 2r at every point (a line in a
certified constant-rank space) passes it as `constant_rank`, and the
sequence stops as soon as that proof forces the rest.  With R = 0 the
m = n - 2r indices sum to r.  Before step delta, the indices found are
exactly those below delta, so the m' still missing are all >= delta and
sum to r' = r - (sum found).  When m' <= 1, or r' - m' * delta = e <= 1,
there is one way to do that: the single index r', or e indices
delta + 1 and m' - e indices delta.  On an 8x8 rank-6 plane step 0
alone decides the splitting, from the two vectors of ker B1: one
constant kernel vector gives (3) with padding 1, none gives (2, 1).  A
claimed rank that no indices can meet raises ValueError; one that is
wrong but consistent gives wrong indices, so only a proven rank may be
passed.

`congruence_to_canonical` also exhibits the congruence, in integers
(Thompson, LAA 147, 1991, made explicit):
1. A minimal basis of the kernel from the same steps, each of which
   gives kernel chains whose ends are a basis of E_delta cap ker B2.
   A lower vector's shifts into degree delta end in 0 (times a power of
   a) or in its own last coefficient (times b^(delta - eps)), and the
   kernel chains that end in 0 are shifts, so the vectors of degree
   delta are the kernel chains whose ends complement the lower vectors'
   ends: an n-wide echelon test.  Their count is g_delta - g_(delta-1).
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

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

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


@dataclass(frozen=True)
class CanonicalPencil:
    invariants: KroneckerInvariants
    matrix: SkewPolyMatrix


@lru_cache(maxsize=256)
def _first_kernel(B1):
    """ker B1 = E_0 of the integer matrix B1, given as nested tuples: the
    vectors of `linalg.nullspace`, as tuples."""
    return tuple(map(tuple, linalg.nullspace(B1, len(B1))))


def _chain_steps(B1, B2):
    """The chain recursion, one step per delta = 0, 1, ...: yields
    (E, B2E, Y), E a basis of E_delta, B2E the products B2 e, and Y[j]
    the y of E[j] below.

    E_delta holds the last coefficients c_delta of the chains c_0..c_delta
    with B1 c_0 = 0 and B1 c_e + B2 c_(e-1) = 0.  Moving on takes one
    integer kernel of [B2 E | B1]: a kernel vector (y, c) has
    B1 c + B2 (E y) = 0, so c ends a chain one longer through E y.
    Kernel vectors are read off the reduced echelon form, each zero past
    its free column, so the c != 0 are independent and span E_(delta+1);
    the rest, c = 0, only repeat the kernel of B2 E.  E_0 comes from
    `_first_kernel`, whose vectors are tuples: no caller writes to E."""
    n = len(B1)
    E, Y = _first_kernel(B1 if type(B1) is tuple
                         else tuple(map(tuple, B1))), []
    while True:
        B2E = [linalg.mat_vec(B2, e) for e in E]
        yield E, B2E, Y
        k = len(E)
        rows = [[u[i] for u in B2E] + list(B1[i]) for i in range(n)]
        kernel = [v for v in linalg.nullspace(rows, k + n) if any(v[k:])]
        Y, E = [v[:k] for v in kernel], [v[k:] for v in kernel]


def _kernel_growth(B1, B2):
    """g_delta = k_delta - k_(delta-1) = dim E_delta - rank(B2 E_delta),
    the dimension of E_delta cap ker B2, for delta = 0, 1, ..., computed
    one step at a time as the caller asks."""
    n = len(B1)
    for E, B2E, _ in _chain_steps(B1, B2):
        yield len(E) - len(linalg.echelon_int(B2E, n)[1])


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
    growth = _kernel_growth(B1, B2)
    g = 0                            # g_(delta-1)
    indices = []
    delta = 0
    while n - 2 * sum(indices) - len(indices) >= 2 * delta + 1:
        if constant_rank is not None:
            forced = _forced_indices(n - constant_rank - len(indices),
                                     constant_rank // 2 - sum(indices), delta)
            if forced is not None:
                indices += forced
                break
        last, g = g, next(growth)
        indices += [delta] * (g - last)
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
    vectors c_0..c_eps, primitive.

    At each delta the kernel K of B2 E gives E K, a basis of
    E_delta cap ker B2: the last coefficients of ker T_delta.  The shifts
    of a vector found below end in 0 (times a) or in its own last
    coefficient (a pure power of b), and the kernel chains ending in 0
    are shifts, so the vectors of degree delta are the kernel chains
    whose ends complement the lower vectors' ends: the pivot columns
    past those, in column order.  Each is walked back through the
    steps' Y to its whole chain."""
    n = len(B1)
    basis = []
    Ets, Yts = [], []                 # each step's E and Y, transposed
    steps = _chain_steps(B1, B2)
    delta = 0
    while n - sum(2 * len(cs) - 1 for cs in basis) >= 2 * delta + 1:
        E, B2E, Y = next(steps)
        K = linalg.nullspace(linalg.transpose(B2E), len(E)) if E else []
        Ets.append(linalg.transpose(E))
        Yts.append(linalg.transpose(Y))
        low = len(basis)
        ends = [cs[-1] for cs in basis] + [linalg.mat_vec(Ets[-1], y)
                                           for y in K]
        # the lower ends are independent: they are the first low pivots
        pivots = linalg.echelon_int(linalg.transpose(ends), len(ends))[1]
        for p in pivots[low:]:
            y = K[p - low]
            cs = [ends[p]]
            for t in range(delta, 0, -1):
                y = linalg.mat_vec(Yts[t], y)
                cs.append(linalg.mat_vec(Ets[t - 1], y))
            g = gcd(*(x for c in cs for x in c))
            basis.append([[x // g for x in c] for c in reversed(cs)])
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
    if linalg.bareiss_rank(P) != n:
        raise ArithmeticError("singular congruence")
    return inv, P, m


def equivalent(A, B):
    """Congruence equivalence of two constant-rank pencils."""
    return minimal_indices(A) == minimal_indices(B)
