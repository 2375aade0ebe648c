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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .forms import Form
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


def _toeplitz_rank(B1, B2, n, delta):
    """Rank of T_delta: in the unknowns c_0..c_delta of
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
    return len(linalg.echelon_int(rows, (delta + 1) * n)[1])


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


def canonical_form(partition):
    """Canonical pencil for a partition (r_1 >= ... >= r_h >= 1).

    Block layout: order 2r + h with the top-right r x (r + h) block made of
    staircase blocks carrying `a` on the diagonal and `b` beside it.
    """
    partition = tuple(int(x) for x in partition)
    if not partition:
        raise ValueError("empty partition")
    if any(x < 1 for x in partition):
        raise ValueError("partition entries must be positive")
    if list(partition) != sorted(partition, reverse=True):
        raise ValueError("partition must be non-increasing")
    r = sum(partition)
    h = len(partition)
    order = 2 * r + h
    vars = ("a", "b")
    a = Form.variable(vars, "a")
    b = Form.variable(vars, "b")
    upper = {}
    row = 0
    col = r
    for ri in partition:
        for t in range(ri):
            upper[(row + t, col + t)] = a
            upper[(row + t, col + t + 1)] = b
        row += ri
        col += ri + 1
    matrix = SkewPolyMatrix(order, vars, upper)
    return CanonicalPencil(KroneckerInvariants(2 * r, partition, 0), matrix)


def equivalent(A, B):
    """Congruence equivalence of two constant-rank pencils."""
    return minimal_indices(A) == minimal_indices(B)
