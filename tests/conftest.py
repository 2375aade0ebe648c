import random
import re
from fractions import Fraction
from math import lcm

import pytest

from skewrank import catalog, geometry, linalg
from skewrank.certify import certify_constant_rank, verdict
from skewrank.forms import Form
from skewrank.groebner import _make_layout
from skewrank.pencil import KroneckerInvariants, _forced_indices
from skewrank.skew import SkewPolyMatrix

Q = Fraction


@pytest.fixture
def rng():
    return random.Random(12345)


def bareiss_det(rows):
    """Determinant of a square matrix with integer entries, by the square
    Bareiss recurrence: the oracle for Pf^2 = det and det(P^T A P)."""
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
    rows, m = linalg.integer_rows(rows)
    return Q(bareiss_det(rows), m ** len(rows))


def span_rref(vectors):
    """Canonical basis of the span of the given vectors: the rows of the
    integer reduced echelon form, each primitive with a positive pivot."""
    rows = linalg.integer_rows(vectors)[0]
    return tuple(linalg.reduced_echelon_int(rows, len(rows[0]))[0]) if rows else ()


def evaluate_at(A, point):
    """Constant skew matrix of A at a parameter point."""
    basis = A.coefficient_basis()
    return [[sum((Q(p) * B[i][j] for p, B in zip(point, basis)), Q(0))
             for j in range(A.order)] for i in range(A.order)]


def evaluate(f, point):
    """Exact value of the Form f at a point given as a sequence of rationals."""
    point = [Q(x) for x in point]
    if len(point) != len(f.vars):
        raise ValueError("point length %d does not match %d variables"
                         % (len(point), len(f.vars)))
    total = Q(0)
    for exps, c in f.terms():
        v = c
        for x, e in zip(point, exps):
            if e:
                v *= x ** e
        total += v
    return total


def leading_term(f):
    """(exponents, coefficient) of the degrevlex-largest monomial of f."""
    if f.is_zero():
        raise ValueError("zero form has no leading term")
    return f.terms()[0]


def pure_power_empty(gb):
    """Projective emptiness by the pure-power criterion: the leading-term
    ideal of the reduced basis gb holds a power of every variable, or 1.
    The criterion `groebner.is_projectively_empty` replaced with the
    Hilbert profile's dimension -1, kept as its reference.  The zero
    ideal yields False (whole space)."""
    if not gb:
        return False
    covered = [False] * len(gb.ideal.vars)
    for exps in gb.leading_exponents():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            covered[support[0]] = True
        elif not support:              # unit ideal
            return True
    return all(covered)


def random_invertible(rng, n, lo=-3, hi=3):
    """Seeded invertible rational matrix."""
    while True:
        M = [[Q(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if det(M) != 0:
            return M


def rational_invertible(rng, n):
    """Seeded invertible matrix with entries p/q, |p| <= 3, q in {1, 2}."""
    while True:
        M = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        if det(M) != 0:
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


def dense_variant(rng, A):
    """A moved by the congruence U^T A U, U unit upper triangular with
    entries in [-2, 2] above the diagonal, then by a parameter change."""
    n = A.order
    U = [[rng.randint(-2, 2) if i < j else int(i == j) for j in range(n)]
         for i in range(n)]
    return A.congruence_transform(U).parameter_change(
        random_invertible(rng, A.nvars))


def constant_cases(names=None):
    """(label, matrix) for each catalog entry of constant rank with d >= 3
    (or each of `names`) and three seeded dense variants of it."""
    if names is None:
        names = [n for n in catalog.names() if catalog.get(n).matrix.nvars >= 3
                 and verdict(catalog.get(n).matrix).constant is True]
    out = []
    for name in names:
        A = catalog.get(name).matrix
        rng = random.Random("variants:" + name)
        out.append((name, A))
        out += [("%s:dense%d" % (name, k), dense_variant(rng, A)) for k in range(3)]
    return out


def quorum_splitting(A, seed=0):
    """The most frequent splitting over 20 seeded random lines, which at
    least 15 of them must share: the vote that `geometry.generic_splitting`
    replaced with one line that attains a proven bound, kept as its oracle."""
    rng = random.Random("generic-splitting:%d" % seed)
    seen = {}
    done = 0
    while done < 20:
        p = tuple(rng.randint(-5, 5) for _ in range(A.nvars))
        q = tuple(rng.randint(-5, 5) for _ in range(A.nvars))
        if not linalg.independent(p, q):
            continue
        inv = geometry.splitting_on_line(A, p, q)
        seen[inv] = seen.get(inv, 0) + 1
        done += 1
    best, count = max(seen.items(), key=lambda kv: kv[1])
    assert count >= 15, "no splitting reached the quorum: %r" % seen
    return best


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
    return [A._form(p, r) * Q(1, den) for p in geometry._bordered_pfaffians(A, xi)]


def single_row_block(order):
    """Order-n block with one nonzero row: constant rank 2 in n-1 variables."""
    if order < 2:
        raise ValueError("order must be at least 2")
    vars = tuple("a%d" % i for i in range(1, order))
    return SkewPolyMatrix(order, vars, {(0, j): vars[j - 1] for j in range(1, order)})


def reference_pf(A, idx, memo):
    """Pfaffian of the principal submatrix of A_int on the sorted index
    tuple, as {groebner monomial key: integer}: the dict recursion the
    Kronecker-packed memo of `SkewPolyMatrix` replaced, expanded along
    the first row with one dict product per entry and memoised in memo
    (one dict per matrix).  The reference for `SkewPolyMatrix._pf`."""
    got = memo.get(idx)
    if got is not None:
        return got
    keys = _make_layout(A.nvars)[-1]
    rest = idx[1:]
    out = {} if idx else {0: 1}
    for t, j in enumerate(rest):
        for k, c1 in A._entries.get((idx[0], j), ()):
            if t % 2:
                c1 = -c1
            for m2, c2 in reference_pf(A, rest[:t] + rest[t + 1:], memo).items():
                m = keys[k] + m2
                out[m] = out.get(m, 0) + c1 * c2
    out = memo[idx] = {m: c for m, c in out.items() if c}
    return out


def echelon_coefficient_rank(polys):
    """Rank of the coefficient rows of dict polynomials, all at once by
    `linalg.echelon_int` over the monomials that occur: the formula
    `linalg.coefficient_rank` replaced, kept as its reference."""
    monos = sorted({m for p in polys for m in p})
    return len(linalg.echelon_int([[p.get(m, 0) for m in monos] for p in polys],
                                  len(monos))[1])


def normal_form(f, gb):
    """Remainder of the Form f on division by the monic Forms of
    gb.basis, by Form arithmetic alone: zero iff f lies in the ideal.
    The reference for ideal membership, independent of the packed
    reduction that builds the basis."""
    if f.vars != gb.ideal.vars:
        raise ValueError("ring mismatch")
    basis = [(leading_term(g)[0], g) for g in gb.basis]
    rem = Form.zero(f.vars)
    while not f.is_zero():
        lead, c = leading_term(f)
        term = Form(f.vars, {lead: c})
        for e, g in basis:
            if all(x <= y for x, y in zip(e, lead)):
                f = f - Form(f.vars, {tuple(y - x for x, y in zip(e, lead)): c}) * g
                break
        else:
            rem, f = rem + term, f - term
    return rem


def plucker_tensor_at(kp, order, point):
    """Constant skew matrix of the kernel coordinates at a point."""
    T = [[Q(0)] * order for _ in range(order)]
    for (i, j), f in kp.items():
        v = evaluate(f, point)
        T[i][j] = v
        T[j][i] = -v
    return T


def support_plane(T):
    """Column space of a rank-2 skew tensor, as a canonical RREF basis.

    For skew T the column space equals the row space, so the rows serve.
    """
    return span_rref([row for row in T if any(row)])


def kernel_plane_at(A, point):
    """Exact kernel of the evaluated matrix, as a canonical RREF basis."""
    return span_rref(linalg.nullspace(evaluate_at(A, point), ncols=A.order))


def toeplitz_rows(B1, B2, delta):
    """Nonzero rows of the block-Toeplitz system T_delta of a*B1 + b*B2:
    in the unknowns c_0..c_delta of v = sum c_e * a^(delta-e) b^e, the
    coefficient of a^(delta+1-e) b^e in (a*B1 + b*B2) v is
    B1 c_e + B2 c_(e-1)."""
    n = len(B1)
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


def toeplitz_invariants(B1, B2, constant_rank=None):
    """Reference for pencil.pencil_invariants: Van Dooren's count, with
    k_delta = dim ker T_delta and k_delta - 2 k_(delta-1) + k_(delta-2)
    indices equal to delta, stopped as pencil_invariants stops."""
    n = len(B1)
    k = [0, 0]
    indices = []
    delta = 0
    while n - 2 * sum(indices) - len(indices) >= 2 * delta + 1:
        if constant_rank is not None:
            forced = _forced_indices(n - constant_rank - len(indices),
                                     constant_rank // 2 - sum(indices), delta)
            if forced is not None:
                indices += forced
                break
        rank = len(linalg.echelon_int(toeplitz_rows(B1, B2, delta),
                                      (delta + 1) * n)[1])
        k.append((delta + 1) * n - rank)
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


def toeplitz_minimal_basis(B1, B2):
    """Reference minimal polynomial basis of the kernel of a*B1 + b*B2,
    each vector as its coefficient vectors c_0..c_eps: at each delta, the
    integer kernel vectors of T_delta that complement the shifts of the
    vectors found below delta, read on the kernel's free columns."""
    n = len(B1)
    basis = []
    delta = 0
    while n - sum(2 * len(cs) - 1 for cs in basis) >= 2 * delta + 1:
        kernel = linalg.nullspace(toeplitz_rows(B1, B2, delta),
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


# parse_form's token alphabet, plus an unknown variable and characters
# outside it
FORM_TOKENS = ["a", "b", "c", "x", "0", "1", "2", "10", "3/2", "1/0", "0/0",
               "^", "*", "+", "-", " ", "/", "."]


_REFERENCE_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\^)|(\*)|(\+)|(-))")


def reference_parse_form(text, vars):
    """The token state machine that `forms.parse_form` replaced, kept as
    the reference for the term reader.  Its last variable survives a sign,
    so a '^' after one reads an earlier term's variable, and a sign with
    no term after it is dropped, so 'a - - b' reads as a - b."""
    vars = tuple(vars)
    index = {v: i for i, v in enumerate(vars)}
    pos = 0
    tokens = []
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError("cannot parse %r at position %d" % (text, pos))
            break
        tokens.append(m)
        pos = m.end()

    terms = {}
    sign = 1
    coef = None
    exps = None

    def flush():
        nonlocal coef, exps, sign
        if exps is None:
            if coef is None:
                return
            exps = [0] * len(vars)
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + sign * (Q(1) if coef is None else coef)
        if not terms[e]:
            del terms[e]
        coef, exps, sign = None, None, 1

    expect_exp = False
    last_var = None
    for m in tokens:
        num, name, caret, star, plus, minus = m.groups()
        if num is not None:
            try:
                value = Q(int(num.split("/")[0]), int(num.split("/")[1])) if "/" in num else Q(int(num))
            except ZeroDivisionError:
                raise ValueError("zero denominator in %r" % text) from None
            if expect_exp:
                if last_var is None or value.denominator != 1:
                    raise ValueError("bad exponent in %r" % text)
                exps[last_var] += int(value) - 1
                expect_exp = False
                last_var = None
            else:
                if exps is not None or coef is not None:
                    raise ValueError("unexpected number in %r" % text)
                coef = value
        elif name is not None:
            if expect_exp:
                raise ValueError("expected exponent in %r" % text)
            if name not in index:
                raise ValueError("unknown variable %r (ring %r)" % (name, vars))
            if exps is None:
                exps = [0] * len(vars)
            exps[index[name]] += 1
            last_var = index[name]
        elif caret is not None:
            if last_var is None:
                raise ValueError("misplaced '^' in %r" % text)
            expect_exp = True
        elif star is not None:
            continue
        else:
            if expect_exp:
                raise ValueError("expected exponent in %r" % text)
            flush()
            sign = -1 if minus is not None else 1
    if expect_exp:
        raise ValueError("dangling '^' in %r" % text)
    flush()
    names = tuple(str(v) for v in vars)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names: %r" % (names,))
    return Form._from_clean(names, terms)
