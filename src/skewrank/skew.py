"""Skew-symmetric matrices of linear forms.

A matrix is stored once, as A = lam * sum(x_k * B_k): integer skew
matrices B_k with coprime entries (`integer_basis`), one rational
lam > 0 (1 for the zero space) and the index of nonzero upper positions
that evaluation and Pfaffians read.  The public constructor scales the
entry Forms' coefficients to integers; congruence, parameter change,
line restriction, direct sum and padding compute integer combinations
of the B_k; all of them store through one `_seed`.  Equality and
hashing compare (order, vars, lam, basis).  The Pfaffians of
sum(x_k * B_k) are expanded on integers into a memo keyed by principal
index subsets, as dicts from `skewrank.groebner`'s packed monomial keys
to integers that Groebner bases take as they are.  Forms are built only
at the edges: an entry for text or JSON as lam times its integer one,
and a Pfaffian of size 2k as lam^k times its integer one.  Values are
immutable.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .forms import Form, parse_form
from .groebner import _as_form, _make_layout

Q = Fraction


class SkewPolyMatrix:
    __slots__ = ("order", "vars", "_basis", "_lam", "_entries", "_pf_memo", "_hash")

    def __init__(self, order, vars, upper):
        order = int(order)
        vars = tuple(str(v) for v in vars)
        forms = {}
        items = upper.items() if isinstance(upper, dict) else upper
        for (i, j), f in items:
            i, j = int(i), int(j)
            if not (0 <= i < j < order):
                raise ValueError("bad upper-triangle position (%d, %d)" % (i, j))
            if (i, j) in forms:
                raise ValueError("upper-triangle position (%d, %d) given twice" % (i, j))
            if isinstance(f, str):
                f = parse_form(f, vars)
            if not isinstance(f, Form):
                raise ValueError("entries must be Forms")
            if f.vars != vars:
                raise ValueError("entry ring %r does not match %r" % (f.vars, vars))
            if not f.is_homogeneous(1):
                raise ValueError("entry (%d, %d) is not linear: %s" % (i, j, f))
            forms[(i, j)] = f
        m = lcm(*(c.denominator for f in forms.values() for c in f._terms.values()))
        self._seed(order, vars, {ij: sorted((e.index(1), c.numerator * (m // c.denominator))
                                            for e, c in f._terms.items())
                                 for ij, f in forms.items()}, Q(1, m))

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
        order = len(matrices[0])
        for k, B in enumerate(matrices):
            if len(B) != order or any(len(r) != order for r in B):
                raise ValueError("coefficient matrices must share one order")
            for i in range(order):
                if B[i][i]:
                    raise ValueError("nonzero diagonal in coefficient matrix")
                for j in range(i + 1, order):
                    if Q(B[i][j]) != -Q(B[j][i]):
                        raise ValueError("coefficient matrix %d is not skew" % k)
        ints, m = _integer_rows([row for B in matrices for row in B])
        return cls._from_integer(tuple(str(v) for v in vars),
                                 [ints[k:k + order] for k in range(0, len(ints), order)],
                                 Q(1, m))

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
                            ("_basis", basis), ("_entries", entries),
                            ("_pf_memo", {(): {0: 1}}),
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
        ints, m = _integer_rows(images)
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
        point = [Q(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        if not any(point):
            raise ValueError("zero parameter point")
        (c,), m = _integer_rows([point])
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
        P, m = _integer_rows(P)
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
        m = lcm(self._lam.denominator, other._lam.denominator)
        upper = {}
        for A, s in ((self, 0), (other, self.order)):
            c = int(A._lam * m)
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
        kernel and their images span the whole space; for skew-symmetric
        spaces the two conditions agree.
        """
        basis = self.integer_basis()
        stacked = [row for B in basis for row in B]
        kernel = linalg.nullspace(stacked, ncols=self.order)
        concat = [sum((list(B[i]) for B in basis), []) for i in range(self.order)]
        row_ok = linalg.rank(concat) == self.order
        col_ok = not kernel
        assert row_ok == col_ok
        if col_ok:
            return True, None
        return False, tuple(kernel[0])

    # -- Pfaffians ----------------------------------------------------------

    def _pf(self, idx):
        """Pfaffian of the principal submatrix of A_int on the sorted index
        tuple, as {groebner monomial key: integer coefficient}."""
        memo = self._pf_memo
        got = memo.get(idx)
        if got is not None:
            return got
        entries = self._entries
        _, bits, *_, keys = _make_layout(self.nvars)
        if len(idx) >> bits:               # the degree must stay below a field's guard bit
            raise ValueError("Pfaffian of size %d out of packing range" % len(idx))
        rest = idx[1:]
        out = {}
        for t, j in enumerate(rest):
            e = entries.get((idx[0], j))
            if e is None:
                continue
            sub = self._pf(rest[:t] + rest[t + 1:])
            for k, c1 in e:
                m1 = keys[k]
                if t % 2:
                    c1 = -c1
                for m2, c2 in sub.items():
                    m = m1 + m2
                    out[m] = out.get(m, 0) + c1 * c2
        out = memo[idx] = {m: c for m, c in out.items() if c}
        return out

    def _form(self, poly, degree, den=1):
        """The Form lam^degree / den * poly of a packed integer polynomial
        of the given degree, such as a Pfaffian of size 2 * degree."""
        return _as_form(poly.items(), self.vars, self._lam ** degree / den)

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
        from itertools import combinations
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


def _integer_rows(rows):
    """(integer rows, m): the rational rows times m, the lcm of all their
    denominators."""
    rows = [[Q(x) for x in row] for row in rows]
    m = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (m // x.denominator) for x in row] for row in rows], m


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
