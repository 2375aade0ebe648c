"""Projective geometry toolkit for constant-rank spaces.

Order reduction by verified projection, the kernel 2-plane map through
complementary sub-Pfaffians, line restrictions with their splitting data,
jumping-line scans, and degrees of section zero schemes.  A line query
on a certified constant-rank space hands the proven rank to
`pencil_invariants`, which stops once it forces the splitting; each
point's matrix and first kernel are memoised, since a scan draws many
lines through few points.  The kernel map's span and the zero-scheme
ideals read the packed integer Pfaffians; only `kernel_plucker` builds
Forms.  Everything is exact, and every answer is a function of the
input alone.  The generic splitting is proven by one line that attains
a lower bound.  The negative lines of `verify_jumping_set` and the
covectors redrawn for zero schemes and fingerprints come from fixed
pseudo-random streams, one per use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, islice
from math import comb, gcd

from . import linalg
from .certify import certify_constant_rank, verdict
from .groebner import Ideal, WrongDimension, hilbert_profile
from .pencil import KroneckerInvariants, pencil_invariants
from .skew import SkewPolyMatrix

Q = Fraction

GRID_BOUND = 4                  # grid points for jumping-line candidates
GENERIC_SAMPLES = 20            # secant lines read for the generic splitting
NEGATIVE_LINES = 50             # random lines that must not jump
COVECTOR_RETRIES = 10           # covectors redrawn for a zero scheme


class BudgetExhausted(RuntimeError):
    """A search ran out of its budget: the answer is unknown, not wrong."""


# -- projections -------------------------------------------------------


@dataclass(frozen=True)
class ProjectionStep:
    center: tuple
    basis_change: tuple          # P with result = drop_last(P^T A P)
    result: SkewPolyMatrix
    valid: bool
    certificate: object

    def to_json(self):
        return {
            "center": [str(x) for x in self.center],
            "valid": self.valid,
            "result": self.result.to_json(),
            "certificate": self.certificate.to_json(),
        }


def _projection_basis_change(center):
    """Invertible P whose congruence moves the center into the last
    coordinate: row k of P^T reads off the k-th quotient coordinate.

    The completion is deterministic: the center is scaled to have leading
    coefficient 1 at its first nonzero coordinate j0, and the quotient
    coordinates are x_j - center_j * x_j0 for j != j0 in increasing order.
    """
    center = [Q(x) for x in center]
    n = len(center)
    j0 = next((i for i, x in enumerate(center) if x), None)
    if j0 is None:
        raise ValueError("zero projection center")
    center = [x / center[j0] for x in center]
    rows = []
    for j in range(n):
        if j == j0:
            continue
        row = [Q(0)] * n
        row[j] = Q(1)
        row[j0] = -center[j]
        rows.append(row)
    last = [Q(0)] * n
    last[j0] = Q(1)
    rows.append(last)
    P = linalg.transpose(rows)
    return tuple(tuple(r) for r in P), tuple(center)


def project(A, center):
    """Project the space from a point: cut the last row and column off
    the coefficient matrices moved by `_projection_basis_change`.
    Validity is decided by re-certification of the result at the same
    rank, never assumed."""
    if len(center) != A.order:
        raise ValueError("center must have one coordinate per matrix row")
    P, center = _projection_basis_change(center)
    moved = A.congruence_transform(P)
    result = SkewPolyMatrix._from_integer(
        A.vars, [[row[:-1] for row in B[:-1]] for B in moved.integer_basis()],
        moved._lam)
    cert_in = verdict(A)
    cert_out = certify_constant_rank(result)
    valid = (cert_out.constant is True
             and cert_out.generic_rank == cert_in.generic_rank)
    return ProjectionStep(center, P, result, valid, cert_out)


# -- kernel 2-plane map --------------------------------------------------


def _check_corank2(A):
    cert = verdict(A)
    if A.order % 2:
        raise ValueError("kernel 2-plane map needs even order")
    if cert.constant is not True:
        raise ValueError("needs a constant-rank certificate")
    if cert.generic_rank != A.order - 2:
        raise ValueError("kernel 2-plane map needs corank exactly 2")


def kernel_plucker(A):
    """Coordinates of the kernel 2-plane: entry (i, j) is
    (-1)^(i+j) times the Pfaffian with rows and columns i, j removed."""
    _check_corank2(A)
    n = A.order
    out = {}
    for i, j in combinations(range(n), 2):
        idx = tuple(k for k in range(n) if k not in (i, j))
        f = A._form(A._pf(idx), n // 2 - 1)
        out[(i, j)] = f if (i + j) % 2 == 0 else -f
    return out


def gauss_span_dim(A):
    """Dimension of the rational span of the kernel-map coordinates: the
    rank of the integer coefficient rows of the complementary Pfaffians,
    of which the coordinates are nonzero constant multiples.  They are
    forms of degree n/2 - 1, so the rank stops reading them once it
    reaches the dimension of that space."""
    _check_corank2(A)
    most = comb(A.order // 2 - 1 + A.nvars - 1, A.nvars - 1)
    return linalg.coefficient_rank(
        map(A._pf, combinations(range(A.order), A.order - 2)), most)


# -- lines, splitting types, jumping lines -------------------------------


def line_span_points(line):
    """Two deterministic independent points on the line with the given
    dual coordinates, as primitive integer triples."""
    if len(line) != 3:
        raise ValueError("dual line coordinates must be a triple")
    line = linalg.primitive_vector(line)
    j0 = next((i for i, x in enumerate(line) if x), None)
    if j0 is None:
        raise ValueError("zero dual vector is not a line")
    pts = []
    for j in range(3):
        if j == j0:
            continue
        v = [0] * 3
        v[j] = line[j0]
        v[j0] = -line[j]
        pts.append(linalg.primitive_int(v))
    return pts[0], pts[1]


@lru_cache(maxsize=256)
def _point_matrix(A, p):
    """The integer matrix A(p) = sum(p_k B_k) at the primitive integer
    point p, as nested tuples: the key under which `pencil` keeps its
    kernel, so a point read again costs neither."""
    return tuple(map(tuple, A._combine(p)))


def splitting_on_line(A, p, q):
    """Kronecker invariants of the restriction to the line through p, q.

    The restriction is the integer pencil s*A(p) + t*A(q), A(p) =
    sum(p_k B_k) over the integer coefficient basis B_k of A, with p and
    q scaled to primitive integers (a parameter change).  Scans put many
    lines through one point, so A(p) and its kernel, the first step of
    the rank sequence, are read from bounded memos.  When A is certified
    of constant rank 2r, every point of the line has rank 2r, so the rank
    sequence stops as soon as that forces the indices: on an 8x8 plane
    of rank 6 the kernel of A(p) and one rank of A(q) times it.
    Otherwise the full sequence is the line's certificate: ValueError
    unless the line has the ambient generic rank at every point, so a
    line through the rank-drop locus of a space of non-constant rank is
    rejected.
    """
    if len(p) != A.nvars or len(q) != A.nvars:
        raise ValueError("points must have one coordinate per variable")
    p = tuple(linalg.primitive_vector(p))
    q = tuple(linalg.primitive_vector(q))
    if not linalg.independent(p, q):
        raise ValueError("line needs two independent points")
    cert = verdict(A)
    proven = cert.generic_rank if cert.constant is True else None
    inv = pencil_invariants(_point_matrix(A, p), _point_matrix(A, q), proven)
    if not (inv.constant and inv.rank == cert.generic_rank):
        raise ValueError("line does not have rank %d at every point"
                         % cert.generic_rank)
    return inv


def _orthogonal_blocks(A):
    """Index sets of the visible block-diagonal form of A: the components
    of the graph that joins i and j when some B_k has a nonzero (i, j)
    entry.  A direct sum has one block per summand at least."""
    blocks = []
    for i in range(A.order):
        linked = [b for b in blocks if any(B[i][j] for B in A.integer_basis() for j in b)]
        blocks = [b for b in blocks if b not in linked] + [sum(linked, [i])]
    return blocks


def _splitting_bound(A):
    """The lower bound beta of `generic_splitting` on a certified
    constant-rank space: for each block of `_orthogonal_blocks`, of rank
    2r_b, m_b = (block size) - 2r_b indices and c_b common kernel
    vectors, c_b zeros and r_b cut into m_b - c_b parts that differ by at
    most 1."""
    B1, kernel, parts = A.integer_basis()[0], A.common_kernel(), []
    for b in _orthogonal_blocks(A):
        rank = linalg.bareiss_rank([[B1[i][j] for j in b] for i in b])  # B_1 = A(e_1)
        free = (len(b) - rank
                - linalg.bareiss_rank([[v[j] for j in b] for v in kernel]))
        parts += ((rank // 2 + i) // free for i in range(free))
    partition = tuple(sorted(filter(None, parts), reverse=True))
    rank = verdict(A).generic_rank
    return KroneckerInvariants(rank, partition, A.order - rank - len(partition))


def generic_splitting(A):
    """Splitting type of a general line of a certified constant-rank
    space, proven by one line that attains a lower bound.

    On a space of constant rank 2r every line has m = n - 2r Kronecker
    indices, which sum to r, and at least c of them are 0, where
    c = dim of the common kernel of the B_k (a constant kernel vector of
    every line).  Write k_delta(L) = sum(max(0, delta - eps + 1)) over
    the indices eps of the line L: the kernel dimension of the
    block-Toeplitz system T_delta, which is upper semicontinuous, so a
    general line has the smallest k_delta for every delta
    (Okonek-Schneider-Spindler, Vector Bundles on Complex Projective
    Spaces, ch. II).  The map x -> max(0, delta - x + 1) is convex, so
    no line has a k_delta below that of the balanced splitting: c zeros
    plus the partition of r into m - c parts that differ by at most 1.
    On a block-diagonal A each block has constant rank, each line splits
    as the union of the blocks' splittings, and the union of the blocks'
    balanced splittings, `_splitting_bound`, is a bound at least as high.
    A line whose splitting is beta = `_splitting_bound(A)` therefore
    proves that beta is the generic splitting.

    Lines are read in one order for every d until one has splitting
    beta: the secants of the moment curve, through (1, t, ..., t^(d-1))
    and (1, u, ..., u^(d-1)) for 0 <= t < u, by u and then t; two
    distinct points of that curve are independent.  A pencil (d = 2) has
    one line, whose splitting is returned.  A general line reaches beta
    only when beta is the generic splitting: not on a space congruent to
    a direct sum of blocks with different balanced splittings whose
    blocks A does not show (pi1 + pi2 split generically as (3, 2, 1),
    beta = (2, 2, 2) once a congruence hides the blocks).  So if none of
    the first GENERIC_SAMPLES lines reaches beta, BudgetExhausted: the
    answer is unknown, either because the budget ran out or because the
    generic splitting is not beta.  A space of non-constant rank raises
    ValueError.
    """
    d = A.nvars
    if d < 2:
        raise ValueError("splitting types need at least two parameters")
    if verdict(A).constant is not True:
        raise ValueError("needs a constant-rank certificate")
    if d == 2:
        return splitting_on_line(A, (1, 0), (1, 1))
    beta = _splitting_bound(A)
    secants = (([t ** k for k in range(d)], [u ** k for k in range(d)])
               for u in count(1) for t in range(u))
    if any(splitting_on_line(A, p, q) == beta for p, q in islice(secants, GENERIC_SAMPLES)):
        return beta
    raise BudgetExhausted("none of the first %d secants attains the lower bound %s "
                          "with padding %d: the budget ran out or the generic "
                          "splitting is not that bound, so it is unknown"
                          % (GENERIC_SAMPLES, list(beta.partition), beta.padding))


def jumping_test(A, line, generic=None):
    """Does the line's splitting differ from the generic one?"""
    if generic is None:
        generic = generic_splitting(A)
    p, q = line_span_points(line)
    return splitting_on_line(A, p, q) != generic


@lru_cache(maxsize=None)
def _meets_two_grid_points(a, b, c):
    """Do two independent grid points lie on the line (a, b, c), where
    0 <= a <= b <= c?  Signs and order of the coordinates do not matter,
    since the grid is symmetric.  A point (x, y, z) on it has
    z = -(a*x + b*y) / c, so (x, y) runs over the grid square, up to sign."""
    bound = GRID_BOUND * c
    first = None
    for x in range(GRID_BOUND + 1):
        for y in range(-GRID_BOUND if x else 1, GRID_BOUND + 1):
            s = a * x + b * y
            if s % c == 0 and -bound <= s <= bound:
                if first is None:
                    first = (x, y)
                elif first[0] * y != first[1] * x:
                    return True
    return False


@lru_cache(maxsize=None)
def _grid_shell(h):
    """The grid lines of height h (largest |coordinate|) in lex order,
    each a primitive triple with its first nonzero coordinate positive:
    only the triples with a coordinate of size h are enumerated."""
    out = []
    span = range(-h, h + 1)
    for x0 in range(h + 1):
        for x1 in (span if x0 else range(h + 1)):
            for x2 in (span if max(x0, abs(x1)) == h else (-h, h)):
                line = (x0, x1, x2)
                if (x0 or x1 or x2 > 0) and gcd(*line) == 1 and \
                        _meets_two_grid_points(*sorted(map(abs, line))):
                    out.append(line)
    return tuple(out)


def grid_lines(count=None):
    """Duals of the lines through two independent points with coordinates
    in [-GRID_BOUND, GRID_BOUND], simplest first: by height, lex within a
    height; `count` slices the list as [:count] does.  Heights are
    enumerated only as far as a nonnegative count reads; no such line is
    higher than 2 * GRID_BOUND**2, the largest cross product of two
    points."""
    lines = []
    for h in range(1, 2 * GRID_BOUND ** 2 + 1):
        if count is not None and 0 <= count <= len(lines):
            break
        lines += _grid_shell(h)
    return tuple(lines[:count])


@dataclass(frozen=True)
class ScanResult:
    generic: KroneckerInvariants
    jumping_lines: tuple         # ((line, invariants), ...)
    scanned: int


def jumping_scan(A, budget=200):
    """Test the first `budget` grid lines for jumping."""
    if budget < 1:
        raise ValueError("budget must be at least 1, got %r" % budget)
    generic = generic_splitting(A)
    candidates = grid_lines(budget)
    read = [(line, splitting_on_line(A, *line_span_points(line))) for line in candidates]
    return ScanResult(generic, tuple((line, inv) for line, inv in read if inv != generic),
                      len(candidates))


def verify_jumping_set(A, lines):
    """All given lines jump; NEGATIVE_LINES other lines, drawn from a
    fixed stream, do not."""
    generic = generic_splitting(A)
    positives = {tuple(linalg.primitive_vector(l)) for l in lines}
    if not all(jumping_test(A, line, generic=generic) for line in lines):
        return False
    rng = random.Random("negative-lines:0")
    done = 0
    while done < NEGATIVE_LINES:
        l = tuple(rng.randint(-9, 9) for _ in range(3))
        if not any(l) or linalg.primitive_int(l) in positives:
            continue
        done += 1
        if jumping_test(A, l, generic=generic):
            return False
    return True


def fit_dual_conic(lines):
    """Conic through five dual points (lines); None unless unique."""
    rows = []
    for l in lines[:5]:
        l0, l1, l2 = (Q(x) for x in l)
        rows.append([l0 * l0, l0 * l1, l0 * l2, l1 * l1, l1 * l2, l2 * l2])
    basis = linalg.nullspace(rows, ncols=6)
    if len(basis) != 1:
        return None
    return tuple(basis[0])


def conic_contains(conic, line):
    l0, l1, l2 = (Q(x) for x in line)
    vals = [l0 * l0, l0 * l1, l0 * l2, l1 * l1, l1 * l2, l2 * l2]
    return sum(c * v for c, v in zip(conic, vals)) == 0


# -- section zero schemes -------------------------------------------------


def _bordered_pfaffians(A, xi):
    """Nonzero Pfaffians of size 2r+2 of A bordered skew-symmetrically by
    the constant covector xi (only subsets through the border survive),
    as packed integer polynomials P with Pfaffian lam^r / den * P, den
    the lcm of the denominators of xi.

    Expanded along the border: Pf(sub + border) is the sum over t of
    (-1)^t xi[sub[t]] Pf(sub without sub[t]), and those size-2r
    sub-Pfaffians are the ones certification already computed.  The sum
    runs on the integer Pfaffians of A_int with xi cleared of
    denominators.
    """
    (xi,), _ = linalg.integer_rows([xi])
    pfs = {}                # each sub-Pfaffian is decoded once, not per border
    gens = []
    for sub in combinations(range(A.order), verdict(A).generic_rank + 1):
        acc = {}
        for t, i in enumerate(sub):
            if xi[i]:
                x = xi[i] if t % 2 == 0 else -xi[i]
                s = sub[:t] + sub[t + 1:]
                pf = pfs.get(s)
                if pf is None:
                    pf = pfs[s] = A._pf(s)
                for m, c in pf.items():
                    acc[m] = acc.get(m, 0) + x * c
        acc = {m: c for m, c in acc.items() if c}
        if acc:
            gens.append(acc)
    return gens


def default_covector(order):
    return tuple(Q(i) for i in range(1, order + 1))


def _draw_covector(rng, order):
    """The first nonzero covector drawn from rng, coordinates in [-9, 9]."""
    while True:
        xi = tuple(Q(rng.randint(-9, 9)) for _ in range(order))
        if any(xi):
            return xi


def section_zero_scheme_degree(A, xi=None, seed=0):
    """Degree of the locus where the kernel plane sits inside ker(xi).

    On a plane of parameters (d = 3) the locus is finite and the degree is
    the second Chern class of the dual kernel bundle; for d = 4 the locus
    is a curve and its degree is returned.  A must have certified
    constant rank, and xi one coordinate per row.  Degenerate covectors
    are redrawn from a fixed stream.
    `seed` is ignored: `perfbench/worker.py` still passes it.
    """
    d = A.nvars
    if d not in (3, 4):
        raise ValueError("zero-scheme degrees are computed for d = 3 or 4")
    if xi is not None and len(xi) != A.order:
        raise ValueError("covector must have one coordinate per matrix row")
    if verdict(A).constant is not True:
        raise ValueError("needs a constant-rank certificate")
    want_dim = 0 if d == 3 else 1
    rng = random.Random("covector:0")
    current = tuple(Q(x) for x in xi) if xi is not None else default_covector(A.order)
    if not any(current):
        raise ValueError("zero covector")
    tried = 0
    last_error = None
    while tried <= COVECTOR_RETRIES:
        tried += 1
        gens = _bordered_pfaffians(A, current)
        if gens:
            prof = hilbert_profile(Ideal._from_packed(A.vars, gens))
            if prof.dimension == -1:
                return 0
            if prof.dimension == want_dim:
                return prof.degree
            last_error = "dimension %d (wanted %d)" % (prof.dimension, want_dim)
        else:
            last_error = "section vanished identically"
        current = _draw_covector(rng, A.order)
    raise WrongDimension("no generic covector found after %d draws: %s"
                         % (tried, last_error))


# -- fingerprints ---------------------------------------------------------


@dataclass(frozen=True)
class BundleFingerprint:
    generic_splitting: tuple
    generic_padding: int
    jumping_lines: tuple
    c2: int
    gauss_span_dim: int
    scanned: int

    def to_json(self):
        return {
            "generic_splitting": list(self.generic_splitting),
            "generic_padding": self.generic_padding,
            "jumping_lines": [{"line": [str(x) for x in l],
                               "splitting": inv.to_json()}
                              for l, inv in self.jumping_lines],
            "c2": self.c2,
            "gauss_span_dim": self.gauss_span_dim,
            "scanned": self.scanned,
        }


def bundle_fingerprint(A, budget=200):
    """Splitting data, jumping lines, c2 and the kernel-map span size.

    The zero-scheme degree is recomputed with two more covectors, drawn
    from a fixed stream, and must agree; a disagreement raises (it would
    mean the covectors were degenerate in a way the retries did not
    catch).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1, got %r" % budget)
    rng = random.Random("fingerprint-covectors:0")
    degrees = [section_zero_scheme_degree(A)]
    for _ in range(2):
        xi = _draw_covector(rng, A.order)
        degrees.append(section_zero_scheme_degree(A, xi=xi))
    if len(set(degrees)) != 1:
        raise WrongDimension("covector draws disagree on the zero-scheme "
                             "degree: %r" % degrees)
    # a net is scanned for jumping lines; other spaces report none
    scan = (jumping_scan(A, budget=budget) if A.nvars == 3
            else ScanResult(generic_splitting(A), (), 0))
    return BundleFingerprint(
        generic_splitting=scan.generic.partition,
        generic_padding=scan.generic.padding,
        jumping_lines=scan.jumping_lines,
        c2=degrees[0],
        gauss_span_dim=gauss_span_dim(A),
        scanned=scan.scanned,
    )
