"""Projective geometry toolkit for constant-rank spaces.

Order reduction by verified projection, the kernel 2-plane map through
complementary sub-Pfaffians, line restrictions with their splitting data,
jumping-line scans, and degrees of section zero schemes.  A line query
on a certified constant-rank space hands the proven rank to
`pencil_invariants`, which stops once it forces the splitting.  The
kernel map's span and the zero-scheme ideals read the packed integer
Pfaffians; only `kernel_plucker` builds Forms.  Everything is exact;
randomness is always drawn from a caller-supplied seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from . import linalg
from .certify import certify_constant_rank
from .groebner import Ideal, WrongDimension, hilbert_profile
from .pencil import KroneckerInvariants, pencil_invariants
from .skew import SkewPolyMatrix, _integer_rows

Q = Fraction

GRID_BOUND = 4                  # grid points for jumping-line candidates
GENERIC_SAMPLES = 20            # random lines drawn for the generic splitting
GENERIC_QUORUM = 15             # how many of them must agree


class BudgetExhausted(RuntimeError):
    """A sampling search ran out of attempts; not a silent failure."""


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


def project(A, center, seed=0):
    """Project the space from a point: cut the last row and column off
    the coefficient matrices moved by `_projection_basis_change`.
    Validity is decided by re-certification of the result at the same
    rank, never assumed."""
    if len(center) != A.order:
        raise ValueError("center must have one coordinate per matrix row")
    P, center = _projection_basis_change(center)
    moved = A.congruence_transform(P)
    result = SkewPolyMatrix.from_coefficient_basis(
        A.vars, [[row[:-1] for row in B[:-1]] for B in moved.coefficient_basis()])
    cert_in = certify_constant_rank(A, seed=seed)
    cert_out = certify_constant_rank(result, seed=seed)
    valid = (cert_out.constant is True
             and cert_out.generic_rank == cert_in.generic_rank)
    return ProjectionStep(center, P, result, valid, cert_out)


def find_valid_center(A, target_order, seed=0, budget=200):
    """Chain of valid projection steps down to the target order.

    Sampling is deterministic under the seed; running out of candidates
    raises BudgetExhausted.  Orders below 2r + 2 (kernel rank two) are
    rejected up front; the coarser guarantee for existence is order
    2r + d, which the error message reports as well.
    """
    cert = certify_constant_rank(A, seed=seed)
    if cert.constant is not True:
        raise ValueError("projection chains need a constant-rank input")
    two_r = cert.generic_rank
    floor = two_r + 2
    if target_order < floor:
        raise ValueError(
            "target order %d is below the kernel-rank-two floor %d "
            "(guaranteed reachable: order %d)"
            % (target_order, floor, two_r + A.nvars))
    if target_order >= A.order:
        raise ValueError("target order %d is not below the current order %d"
                         % (target_order, A.order))
    rng = random.Random("projection-centers:%d" % seed)
    steps = []
    current = A
    attempts = 0
    while current.order > target_order:
        found = None
        while attempts < budget:
            attempts += 1
            cand = tuple(Q(rng.randint(-3, 3)) for _ in range(current.order))
            if not any(cand):
                continue
            step = project(current, cand, seed=seed)
            if step.valid:
                found = step
                break
        if found is None:
            raise BudgetExhausted(
                "no valid center found for order %d after %d attempts"
                % (current.order, attempts))
        steps.append(found)
        current = found.result
    return steps


# -- kernel 2-plane map --------------------------------------------------


def _check_corank2(A, cert):
    cert = cert or certify_constant_rank(A)
    if A.order % 2:
        raise ValueError("kernel 2-plane map needs even order")
    if cert.constant is not True:
        raise ValueError("needs a constant-rank certificate")
    if cert.generic_rank != A.order - 2:
        raise ValueError("kernel 2-plane map needs corank exactly 2")


def kernel_plucker(A, cert=None):
    """Coordinates of the kernel 2-plane: entry (i, j) is
    (-1)^(i+j) times the Pfaffian with rows and columns i, j removed."""
    _check_corank2(A, cert)
    n = A.order
    out = {}
    for i, j in combinations(range(n), 2):
        idx = tuple(k for k in range(n) if k not in (i, j))
        f = A._form(A._pf(idx), n // 2 - 1)
        out[(i, j)] = f if (i + j) % 2 == 0 else -f
    return out


def plucker_tensor_at(kp, order, point):
    """Constant skew matrix of the kernel coordinates at a point."""
    T = [[Q(0)] * order for _ in range(order)]
    for (i, j), f in kp.items():
        v = f.evaluate(point)
        T[i][j] = v
        T[j][i] = -v
    return T


def support_plane(T):
    """Column space of a rank-2 skew tensor, as a canonical RREF basis.

    For skew T the column space equals the row space, so the rows serve.
    """
    return linalg.span_rref([row for row in T if any(row)])


def kernel_plane_at(A, point):
    """Exact kernel of the evaluated matrix, as a canonical RREF basis."""
    basis = linalg.nullspace(A.evaluate_at(point), ncols=A.order)
    return linalg.span_rref(basis)


def gauss_span_dim(A, cert=None):
    """Dimension of the rational span of the kernel-map coordinates: the
    rank of the integer coefficient rows of the complementary Pfaffians,
    of which the coordinates are nonzero constant multiples."""
    _check_corank2(A, cert)
    pfs = [A._pf(idx) for idx in combinations(range(A.order), A.order - 2)]
    monos = sorted({m for p in pfs for m in p})
    return linalg.rank([[p.get(m, 0) for m in monos] for p in pfs])


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


def splitting_on_line(A, p, q):
    """Kronecker invariants of the restriction to the line through p, q.

    The restriction is the integer pencil s*sum(p_k B_k) + t*sum(q_k B_k)
    over the integer coefficient basis B_k of A, with p and q scaled to
    primitive integers (a parameter change).  When A is certified of
    constant rank 2r, every point of the line has rank 2r, so the rank
    sequence stops as soon as that forces the indices: one 2n x n rank
    on an 8x8 plane of rank 6.  Otherwise the full sequence is the
    line's certificate: ValueError unless the line has the ambient
    generic rank at every point, so a line through the rank-drop locus of
    a space of non-constant rank is rejected.
    """
    if len(p) != A.nvars or len(q) != A.nvars:
        raise ValueError("points must have one coordinate per variable")
    p = linalg.primitive_vector(p)
    q = linalg.primitive_vector(q)
    if linalg.rank([p, q]) != 2:
        raise ValueError("line needs two independent points")
    cert = certify_constant_rank(A)
    proven = cert.generic_rank if cert.constant is True else None
    inv = pencil_invariants(A._combine(p), A._combine(q), proven)
    if not (inv.constant and inv.rank == cert.generic_rank):
        raise ValueError("line does not have rank %d at every point"
                         % cert.generic_rank)
    return inv


def generic_splitting(A, seed=0):
    """Most frequent splitting over seeded random lines, with a quorum."""
    d = A.nvars
    if d < 2:
        raise ValueError("splitting types need at least two parameters")
    rng = random.Random("generic-splitting:%d" % seed)
    seen = {}
    done = 0
    while done < GENERIC_SAMPLES:
        p = tuple(rng.randint(-5, 5) for _ in range(d))
        q = tuple(rng.randint(-5, 5) for _ in range(d))
        if not any(p) or not any(q) or linalg.rank([list(p), list(q)]) != 2:
            continue
        inv = splitting_on_line(A, p, q)
        seen[inv] = seen.get(inv, 0) + 1
        done += 1
    best, count = max(seen.items(), key=lambda kv: kv[1])
    if count < GENERIC_QUORUM:
        raise BudgetExhausted("no splitting reached the quorum: %r" % seen)
    return best


def jumping_test(A, line, generic=None, seed=0):
    """Does the line's splitting differ from the generic one?"""
    if generic is None:
        generic = generic_splitting(A, seed=seed)
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
    seed: int


def jumping_scan(A, budget=200, seed=0):
    """Test the first `budget` grid lines for jumping."""
    if budget < 1:
        raise ValueError("budget must be at least 1, got %r" % budget)
    generic = generic_splitting(A, seed=seed)
    candidates = grid_lines(budget)
    jumps = []
    for line in candidates:
        p, q = line_span_points(line)
        inv = splitting_on_line(A, p, q)
        if inv != generic:
            jumps.append((line, inv))
    return ScanResult(generic, tuple(jumps), len(candidates), seed)


def verify_jumping_set(A, lines, negatives=50, seed=0):
    """All given lines jump; seeded random other lines do not."""
    generic = generic_splitting(A, seed=seed)
    positives = {tuple(linalg.primitive_vector(l)) for l in lines}
    for line in lines:
        if not jumping_test(A, line, generic=generic):
            return False
    rng = random.Random("negative-lines:%d" % seed)
    done = 0
    while done < negatives:
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
    (xi,), den = _integer_rows([xi])
    gens = []
    for sub in combinations(range(A.order), certify_constant_rank(A).generic_rank + 1):
        acc = {}
        for t, i in enumerate(sub):
            if xi[i]:
                x = xi[i] if t % 2 == 0 else -xi[i]
                for m, c in A._pf(sub[:t] + sub[t + 1:]).items():
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


def section_zero_scheme_degree(A, xi=None, seed=0, retries=10):
    """Degree of the locus where the kernel plane sits inside ker(xi).

    On a plane of parameters (d = 3) the locus is finite and the degree is
    the second Chern class of the dual kernel bundle; for d = 4 the locus
    is a curve and its degree is returned.  Degenerate covectors are
    redrawn deterministically from the seed.
    """
    d = A.nvars
    if d not in (3, 4):
        raise ValueError("zero-scheme degrees are computed for d = 3 or 4")
    want_dim = 0 if d == 3 else 1
    rng = random.Random("covector:%d" % seed)
    current = tuple(Q(x) for x in xi) if xi is not None else default_covector(A.order)
    if not any(current):
        raise ValueError("zero covector")
    tried = 0
    last_error = None
    while tried <= retries:
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
    seed: int

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
            "seed": self.seed,
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2)


def bundle_fingerprint(A, seed=0, budget=200):
    """Splitting data, jumping lines, c2 and the kernel-map span size.

    The zero-scheme degree is recomputed with three independent covectors
    and must agree; a disagreement raises (it would mean the covectors
    were degenerate in a way the retries did not catch).
    """
    if budget < 1:
        raise ValueError("budget must be at least 1, got %r" % budget)
    cert = certify_constant_rank(A, seed=seed)
    rng = random.Random("fingerprint-covectors:%d" % seed)
    degrees = [section_zero_scheme_degree(A, seed=seed)]
    for _ in range(2):
        xi = _draw_covector(rng, A.order)
        degrees.append(section_zero_scheme_degree(A, xi=xi, seed=seed))
    if len(set(degrees)) != 1:
        raise WrongDimension("covector draws disagree on the zero-scheme "
                             "degree: %r" % degrees)
    if A.nvars == 3:
        scan = jumping_scan(A, budget=budget, seed=seed)
        generic = scan.generic
        jumps = scan.jumping_lines
        scanned = scan.scanned
    else:
        generic = generic_splitting(A, seed=seed)
        jumps = ()
        scanned = 0
    return BundleFingerprint(
        generic_splitting=generic.partition,
        generic_padding=generic.padding,
        jumping_lines=jumps,
        c2=degrees[0],
        gauss_span_dim=gauss_span_dim(A, cert),
        scanned=scanned,
        seed=seed,
    )
