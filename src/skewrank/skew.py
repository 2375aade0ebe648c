"""Skew-symmetric matrices of linear forms.

A matrix is stored once, as A = lam * sum(x_k * B_k): integer skew
matrices B_k with coprime entries (`integer_basis`), one rational
lam > 0 (1 for the zero space) and the index of nonzero upper positions
that evaluation and Pfaffians read.  A text entry is read by
`forms._parse_terms` straight to its coefficients, ints unless written
p/q, with no Form.  Every rational input (those coefficients or an entry
Form's, coefficient matrices, points, transforms) is cleared of
denominators by `linalg.integer_rows`, which takes integer input as it
is; congruence, parameter change, line restriction, direct sum and
padding compute integer combinations of the B_k; all of them store
through one `_seed`.  Equality and hashing compare (order, vars,
lam, basis).  Forms are built only at the edges: an entry printed for
text or JSON as lam times its integer one, and a Pfaffian of size 2k
as lam^k times its integer one.  Values are immutable.

The Pfaffians of sum(x_k * B_k) are expanded along the first row into a
memo keyed by principal index subsets, one integer per subset
(Kronecker substitution).  The memo belongs to the primitive integer
basis, not to one matrix: `_pfaffian_memo`, a bounded module-level
cache, holds the memos of the bases used last, so every matrix with
that basis (a re-parse of the same JSON, a positive multiple, a copy
with renamed variables) reads and extends one memo.  A matrix keeps its
memo from its first Pfaffian on, so the memo lives while that matrix or
the cache entry does.  With d variables, D = order // 2 and
b = D + 1, a form sum(c_e * x^e) of degree at most D is stored as its
value sum(c_e * 2^(w * sigma(e))) at x_k = 2^(w * b^k) for k < d - 1
and x_(d-1) = 1, where sigma(e) = sum(e_k * b^k, k < d - 1): the last
exponent is implied by the degree, and distinct monomials get distinct
slots since every e_k <= D < b.  Evaluation is a ring homomorphism, so
each expansion term is one bigint multiply-add and the memo holds the
packed Pfaffians exactly.  The slot width: let s be the largest
sum(|B_k[i][j]| over k) over the entries.  A sub-Pfaffian of size 2k is
a signed sum of (2k - 1)!! products of k entries, so each of its
coefficients, like each partial sum of the expansion, has absolute
value at most (2k - 1)!! * s^k <= (2D - 1)!! * s^D.  With w that
bound's bit length plus 2, every coefficient lies strictly inside
[-2^(w-1), 2^(w-1)), so the balanced base-2^w digits of a packed
Pfaffian are exactly its coefficients, and it is zero exactly when the
polynomial is; that is all the generic rank reads.  `_pf` decodes the
digits, by adding 2^(w-1) to every slot, into dicts from
`skewrank.groebner`'s packed monomial keys to integers that Groebner
bases take as they are, through slot tables shared by every matrix.
A degree-D form has D * b^(d-2) + 1 slots but only C(D + d - 1, d - 1)
monomials, so the slots grow as b^(d-2): a generic 6 x 6 matrix, with
15 variables, would need 4^13 slots for its 680 cubic monomials.  Where
the slots outnumber the monomials more than 4 times, the memo keeps
those dicts instead and expands with one dict product per entry.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, prod

from . import linalg
from .forms import Form, _parse_terms, parse_form
from .groebner import _as_form, _make_layout

Q = Fraction


@lru_cache(maxsize=None)
def _slots(d, b, degree):
    """(slot, dkey) of each monomial of the given degree in d variables,
    ascending: its Kronecker slot sum(e_k * b^k, k < d - 1) and its
    `skewrank.groebner` key.  One table serves every matrix with these
    d and b."""
    units = _make_layout(d)[-1]
    return sorted((sum(b ** k for k in m if k < d - 1), sum(units[k] for k in m))
                  for m in combinations_with_replacement(range(d), degree))


@lru_cache(maxsize=64)
def _pfaffian_memo(basis):
    """(w, b, entries, memo): the Pfaffian memo of every matrix whose
    primitive integer basis is `basis`, keyed by principal index subsets,
    with the packing it holds them in.  Packed (the module docstring
    derives w): the slot width, the exponent base and the packed integer
    of each nonzero upper entry of A_int.  A degree-D form has
    D * b^(d-2) + 1 slots against C(D + d - 1, d - 1) monomials, so with
    many variables the packed integers are mostly empty slots; where the
    slots outnumber the monomials more than 4 times (the measured
    crossover), w = b = 0, each entry is its pairs (groebner key,
    integer) and the memo holds dicts."""
    d, n = len(basis), len(basis[0])
    upper = {}
    for i, j in combinations(range(n), 2):
        t = [(k, B[i][j]) for k, B in enumerate(basis) if B[i][j]]
        if t:
            upper[(i, j)] = t
    D = n // 2
    b = D + 1
    slots = D * b ** (d - 2) + 1 if d > 1 else 1
    if slots > 4 * comb(D + d - 1, d - 1):
        keys = _make_layout(d)[-1]
        return 0, 0, {ij: tuple((keys[k], x) for k, x in t)
                      for ij, t in upper.items()}, {}
    s = max((sum(abs(x) for _, x in t) for t in upper.values()), default=0)
    w = (prod(range(1, 2 * D, 2)) * s ** D).bit_length() + 2
    unit = [1 << (w * b ** k) for k in range(d - 1)] + [1]
    return w, b, {ij: sum(x * unit[k] for k, x in t)
                  for ij, t in upper.items()}, {}


class SkewPolyMatrix:
    __slots__ = ("order", "vars", "_basis", "_lam", "_entries", "_pfs", "_hash")

    def __init__(self, order, vars, upper):
        order = int(order)
        vars = tuple(str(v) for v in vars)
        distinct = len(set(vars)) == len(vars)
        terms = {}
        items = upper.items() if isinstance(upper, dict) else upper
        for (i, j), f in items:
            i, j = int(i), int(j)
            if not (0 <= i < j < order):
                raise ValueError("bad upper-triangle position (%d, %d)" % (i, j))
            if (i, j) in terms:
                raise ValueError("upper-triangle position (%d, %d) given twice" % (i, j))
            if isinstance(f, str):
                t = _parse_terms(f, vars)
                if distinct and all(sum(e) == 1 for e in t):
                    terms[(i, j)] = t
                    continue
                f = parse_form(f, vars)    # to word the error below
            if not isinstance(f, Form):
                raise ValueError("entries must be Forms")
            if f.vars != vars:
                raise ValueError("entry ring %r does not match %r" % (f.vars, vars))
            if not f.is_homogeneous(1):
                raise ValueError("entry (%d, %d) is not linear: %s" % (i, j, f))
            terms[(i, j)] = f._terms
        ints, m = linalg.integer_rows([t.values() for t in terms.values()])
        self._seed(order, vars, {ij: sorted(zip((e.index(1) for e in t), row))
                                 for (ij, t), row in zip(terms.items(), ints)}, Q(1, m))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPolyMatrix is immutable")

    @property
    def nvars(self):
        return len(self.vars)

    @classmethod
    def zero(cls, order, vars):
        return cls(order, vars, {})

    @classmethod
    def from_coefficient_basis(cls, vars, matrices):
        """Rebuild sum(var_k * B_k) from constant skew matrices B_k."""
        if len(matrices) != len(vars):
            raise ValueError("need one coefficient matrix per variable")
        if not matrices:
            raise ValueError("need at least one coefficient matrix")
        order = len(matrices[0])
        if any(len(B) != order or any(len(r) != order for r in B) for B in matrices):
            raise ValueError("coefficient matrices must share one order")
        ints, m = linalg.integer_rows([row for B in matrices for row in B])
        mats = [ints[k:k + order] for k in range(0, len(ints), order)]
        for k, B in enumerate(mats):
            for i in range(order):
                if B[i][i]:
                    raise ValueError("nonzero diagonal in coefficient matrix")
                if any(B[i][j] != -B[j][i] for j in range(i + 1, order)):
                    raise ValueError("coefficient matrix %d is not skew" % k)
        return cls._from_integer(tuple(str(v) for v in vars), mats, Q(1, m))

    @classmethod
    def _from_integer(cls, vars, mats, scale):
        """scale * sum(var_k * mats[k]) for integer skew matrices mats[k]."""
        n = len(mats[0])
        return object.__new__(cls)._seed(n, vars, {
            (i, j): [(k, x) for k, x in enumerate(col) if x] for i in range(n)
            for j, col in enumerate(zip(*(B[i][i + 1:] for B in mats)), i + 1)
            if any(col)}, scale)

    def _seed(self, n, vars, upper, scale):
        """Store A = scale * sum(var_k * B_k) of order n, where upper maps
        positions (i, j), i < j, to the pairs (k, c) of the nonzero
        integers c = B_k[i][j].  The content and sign move into lam, so
        the stored basis is primitive and lam > 0 (lam = 1 for the zero
        space); _entries keeps the nonzero positions with their pairs."""
        if not vars or len(set(vars)) != len(vars):
            raise ValueError("need distinct parameter variables, at least one")
        if n < 1:
            raise ValueError("order must be at least 1")
        g = gcd(*(x for t in upper.values() for _, x in t))
        lam = scale * g if g else Q(1)
        if lam < 0:
            g, lam = -g, -lam
        entries = {ij: tuple((k, x // g) for k, x in t) for ij, t in upper.items() if t}
        basis = [[[0] * n for _ in range(n)] for _ in vars]
        for (i, j), t in entries.items():
            for k, x in t:
                basis[k][i][j], basis[k][j][i] = x, -x
        basis = tuple(tuple(map(tuple, B)) for B in basis)
        for name, value in (("order", n), ("vars", vars), ("_lam", lam),
                            ("_basis", basis), ("_entries", entries), ("_pfs", None),
                            ("_hash", hash((n, vars, lam, basis)))):
            object.__setattr__(self, name, value)
        return self

    # -- access ---------------------------------------------------------

    def entry(self, i, j):
        """Entry (i, j) with the skew sign materialised."""
        if i > j:
            return -self.entry(j, i)
        keys = _make_layout(self.nvars)[-1]
        return self._form({keys[k]: c for k, c in self._entries.get((i, j), ())}, 1)

    def upper_entries(self):
        """Nonzero strict-upper entries as ((i, j), Form), lex ordered."""
        return [((i, j), self.entry(i, j)) for i, j in sorted(self._entries)]

    def integer_basis(self):
        """Primitive integer coefficient matrices B_k, as nested tuples.

        A = lam * sum(var_k * B_k) for one positive rational lam, so the
        entries of the B_k are coprime integers.  One common scale is a
        constant factor on the whole space: it changes no rank, no span
        and no line through given parameter points.
        """
        return self._basis

    def coefficient_basis(self):
        """Constant skew matrices lam * B_k with A = sum(var_k * lam * B_k)."""
        return [[[self._lam * x for x in row] for row in B] for B in self._basis]

    def _combine(self, c):
        """The integer matrix sum(c_k * B_k) for integers c_k, summed over
        the nonzero positions only."""
        n = self.order
        M = [[0] * n for _ in range(n)]
        for (i, j), t in self._entries.items():
            v = sum(c[k] * x for k, x in t)
            M[i][j] = v
            M[j][i] = -v
        return M

    def _substitute(self, vars, images):
        """Replace var_k by sum(images[l][k] * vars[l]): the space read on
        the span of the rational points images[l] of the old parameters."""
        ints, m = linalg.integer_rows(images)
        return SkewPolyMatrix._from_integer(
            vars, [self._combine(c) for c in ints], self._lam / m)

    def __eq__(self, other):
        return (isinstance(other, SkewPolyMatrix) and self.order == other.order
                and self.vars == other.vars and self._lam == other._lam
                and self._basis == other._basis)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "SkewPolyMatrix(order=%d, vars=%r, entries=%d)" % (
            self.order, list(self.vars), len(self._entries))

    # -- evaluation -------------------------------------------------------

    def _at(self, point):
        """(M, s) with A(point) = s * M for an integer matrix M."""
        (c,), m = linalg.integer_rows([point])
        if len(c) != self.nvars:
            raise ValueError("point length does not match variable count")
        if not any(c):
            raise ValueError("zero parameter point")
        return self._combine(c), self._lam / m

    def evaluate_at(self, point):
        """Constant skew matrix at a nonzero parameter point."""
        M, s = self._at(point)
        return [[s * x if x else Q(0) for x in row] for row in M]

    def rank_at(self, point):
        """Exact rank at a nonzero point (always even)."""
        r = linalg.bareiss_rank(self._at(point)[0])
        assert r % 2 == 0
        return r

    # -- transforms -------------------------------------------------------

    def congruence_transform(self, P):
        """Congruence P^T A P by an invertible constant matrix."""
        n = self.order
        if len(P) != n or any(len(r) != n for r in P):
            raise ValueError("transform must be square of order %d" % n)
        P, m = linalg.integer_rows(P)
        if linalg.bareiss_rank(P) < n:
            raise ValueError("singular congruence matrix")
        Pt = linalg.transpose(P)
        return SkewPolyMatrix._from_integer(
            self.vars, [linalg.mat_mul(linalg.mat_mul(Pt, B), P)
                        for B in self._basis], self._lam / (m * m))

    def parameter_change(self, L):
        """Substitute variables by L * (vars); L invertible d x d."""
        d = self.nvars
        if len(L) != d or any(len(r) != d for r in L):
            raise ValueError("parameter change must be square of order %d" % d)
        if linalg.bareiss_rank(L) < d:
            raise ValueError("singular parameter change")
        return self._substitute(self.vars, linalg.transpose(L))

    def direct_sum(self, other):
        if not isinstance(other, SkewPolyMatrix):
            raise ValueError("direct_sum needs a SkewPolyMatrix")
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))
        (scales,), m = linalg.integer_rows([(self._lam, other._lam)])
        upper = {}
        for A, s, c in zip((self, other), (0, self.order), scales):
            upper.update({(i + s, j + s): [(k, c * x) for k, x in t]
                          for (i, j), t in A._entries.items()})
        return object.__new__(SkewPolyMatrix)._seed(
            self.order + other.order, self.vars, upper, Q(1, m))

    def pad_zero(self, k):
        """Append k zero rows and columns."""
        if k < 0:
            raise ValueError("negative padding")
        if k == 0:
            return self
        return self.direct_sum(SkewPolyMatrix.zero(k, self.vars))

    # -- nondegeneracy ------------------------------------------------------

    def is_nondegenerate(self):
        """(flag, witness): witness is a common kernel vector when False.

        Nondegenerate means the coefficient matrices have trivial common
        kernel, the kernel of the stack [B_1; ...; B_d].  Their images then
        span the whole space too: for skew B_k the concatenation
        [B_1 | ... | B_d] is minus the transpose of the stack.
        """
        stacked = [row for B in self.integer_basis() for row in B]
        kernel = linalg.nullspace(stacked, ncols=self.order)
        if not kernel:
            return True, None
        return False, tuple(kernel[0])

    # -- Pfaffians ----------------------------------------------------------

    def _pfaffians(self):
        """(w, b, entries, memo) of `_pfaffian_memo` for this matrix's
        basis, looked up on the first Pfaffian asked for, since most
        matrices never need one, and kept from then on."""
        got = self._pfs
        if got is None:
            got = _pfaffian_memo(self._basis)
            object.__setattr__(self, "_pfs", got)
        return got

    def _pf_raw(self, idx):
        """Pfaffian of the principal submatrix of A_int on the sorted index
        tuple, as the memo holds it: the Kronecker-packed integer, or the
        dict `_pf` returns where `_pfaffian_memo` keeps dicts.  Zero or
        empty exactly when the polynomial is.  The memo is the one shared
        by every matrix with this primitive integer basis, so a subset
        expanded for any of them is not expanded again."""
        w, _, entries, memo = self._pfaffians()
        got = memo.get(idx)
        if got is not None:
            return got
        # the degree must stay below the guard bit of a groebner key's field
        if len(idx) >> _make_layout(self.nvars)[1]:
            raise ValueError("Pfaffian of size %d out of packing range" % len(idx))
        rest = idx[1:]
        if w:
            out = 0 if idx else 1
            for t, j in enumerate(rest):
                e = entries.get((idx[0], j))
                if e is not None:
                    p = e * self._pf_raw(rest[:t] + rest[t + 1:])
                    out = out - p if t % 2 else out + p
        else:
            out = {} if idx else {0: 1}
            for t, j in enumerate(rest):
                e = entries.get((idx[0], j))
                if e is None:
                    continue
                sub = self._pf_raw(rest[:t] + rest[t + 1:])
                for m1, c1 in e:
                    if t % 2:
                        c1 = -c1
                    for m2, c2 in sub.items():
                        m = m1 + m2
                        out[m] = out.get(m, 0) + c1 * c2
            out = {m: c for m, c in out.items() if c}
        memo[idx] = out
        return out

    def _pf(self, idx):
        """Pfaffian of the principal submatrix of A_int on the sorted index
        tuple, as {groebner monomial key: integer coefficient}: the
        balanced base-2^w digits of a packed `_pf_raw`, each read off its
        slot after adding 2^(w-1) to every slot."""
        p = self._pf_raw(idx)
        w, b, _, _ = self._pfaffians()
        if not w:
            return p
        if not p:
            return {}
        slots = _slots(self.nvars, b, len(idx) // 2)
        half, mask = 1 << (w - 1), (1 << w) - 1
        p += half * ((1 << (w * (slots[-1][0] + 1))) - 1) // mask
        out = {}
        for slot, dkey in slots:
            c = ((p >> (w * slot)) & mask) - half
            if c:
                out[dkey] = c
        return out

    def _form(self, poly, degree):
        """The Form lam^degree * poly of a packed integer polynomial of the
        given degree, such as a Pfaffian of size 2 * degree."""
        return _as_form(poly.items(), self.vars, self._lam ** degree)

    def pfaffian_symbolic(self):
        """Pfaffian of the whole matrix; requires even order."""
        if self.order % 2:
            raise ValueError("Pfaffian needs even order")
        return self._form(self._pf(tuple(range(self.order))), self.order // 2)

    def sub_pfaffians(self, size):
        """Pfaffians of all principal size x size submatrices, lex order."""
        size = int(size)
        if size % 2:
            raise ValueError("sub-Pfaffian size must be even")
        if size < 0 or size > self.order:
            raise ValueError("size %d out of range for order %d" % (size, self.order))
        return [self._form(self._pf(s), size // 2)
                for s in combinations(range(self.order), size)]

    # -- JSON ------------------------------------------------------------

    def to_json(self):
        return {
            "order": self.order,
            "vars": list(self.vars),
            "upper": [{"i": i, "j": j, "form": str(f)}
                      for (i, j), f in self.upper_entries()],
        }

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; a malformed object raises ValueError."""
        if not (isinstance(obj, dict) and type(obj.get("order")) is int
                and isinstance(obj.get("vars"), list)
                and all(isinstance(v, str) for v in obj["vars"])
                and isinstance(obj.get("upper"), list)
                and all(isinstance(e, dict) and type(e.get("i")) is int
                        and type(e.get("j")) is int and isinstance(e.get("form"), str)
                        for e in obj["upper"])):
            raise ValueError('matrix JSON must be {"order": int, "vars": [str], '
                             '"upper": [{"i": int, "j": int, "form": str}]}')
        return cls(obj["order"], obj["vars"],
                   [((e["i"], e["j"]), e["form"]) for e in obj["upper"]])

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, s):
        return cls.from_json(json.loads(s))

    def digest(self):
        """Content digest of the canonical JSON encoding."""
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def pfaffian(rows):
    """Pfaffian of a constant skew-symmetric matrix (exact).

    Read off as the coefficient of t^(n/2) in the symbolic Pfaffian of the
    pencil t * rows; Pf([[0, a], [-a, 0]]) is +a and the empty matrix has
    Pfaffian 1.
    """
    n = len(rows)
    if n % 2:
        raise ValueError("Pfaffian needs even order")
    if not n:
        return Q(1)
    A = SkewPolyMatrix.from_coefficient_basis(("t",), [rows])
    return A.pfaffian_symbolic().coefficient((n // 2,))
