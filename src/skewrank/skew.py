"""Skew-symmetric matrices of linear forms.

A matrix is A = lam * sum(x_k * B_k): integer skew matrices B_k with
coprime entries (`integer_basis`) and one rational lam > 0, built once,
by a transform or from the entry Forms' terms on first use.  Congruence,
parameter change, evaluation and restriction to a line are integer
combinations of the B_k; the Pfaffians of sum(x_k * B_k) are expanded
on integers into a memo keyed by principal index subsets, as dicts
from `skewrank.groebner`'s packed monomial keys to integers that
Groebner bases take as they are.  Forms stay at the edges: the strict
upper triangle is kept as linear Forms for text, JSON and equality, and
a Pfaffian of size 2k becomes a Form, lam^k times the integer one, only
where a caller gets one.  Values are immutable.
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
    __slots__ = ("order", "vars", "_upper", "_pf_memo", "_hash", "_int")

    def __init__(self, order, vars, upper):
        order = int(order)
        vars = tuple(str(v) for v in vars)
        self._init(order, vars)
        items = upper.items() if isinstance(upper, dict) else upper
        for (i, j), f in items:
            i, j = int(i), int(j)
            if not (0 <= i < j < order):
                raise ValueError("bad upper-triangle position (%d, %d)" % (i, j))
            if isinstance(f, str):
                f = parse_form(f, vars)
            if not isinstance(f, Form):
                raise ValueError("entries must be Forms")
            if f.vars != vars:
                raise ValueError("entry ring %r does not match %r" % (f.vars, vars))
            if f.is_zero():
                continue
            if not f.is_homogeneous(1):
                raise ValueError("entry (%d, %d) is not linear: %s" % (i, j, f))
            self._upper[(i, j)] = f

    def _init(self, order, vars):
        if order < 1:
            raise ValueError("order must be at least 1")
        if not vars or len(set(vars)) != len(vars):
            raise ValueError("need distinct parameter variables, at least one")
        for name, value in (("order", order), ("vars", vars), ("_upper", {}),
                            ("_pf_memo", {(): {0: 1}}), ("_hash", None), ("_int", None)):
            object.__setattr__(self, name, value)

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
        """scale * sum(var_k * mats[k]) for integer skew matrices mats[k],
        with the basis stored and the entry Forms read off it."""
        A = object.__new__(cls)
        A._init(len(mats[0]), vars)
        _, lam, entries = A._seed(mats, scale)
        units = [tuple(int(t == k) for t in range(len(vars))) for k in range(len(vars))]
        for ij, t in entries.items():
            A._upper[ij] = Form._from_clean(vars, {units[k]: lam * c for k, c in t})
        return A

    def _integer(self):
        """(integer_basis(), lam, entries) with A = lam * sum(var_k * B_k);
        entries maps each nonzero upper position (i, j) to the pairs
        (k, B_k[i][j]) with B_k[i][j] != 0.  Read off the terms of the
        entry Forms on first use."""
        if self._int is None:
            m = lcm(*(c.denominator for f in self._upper.values()
                      for c in f._terms.values()))
            mats = [[[0] * self.order for _ in range(self.order)] for _ in self.vars]
            for (i, j), f in self._upper.items():
                for e, c in f._terms.items():
                    B = mats[e.index(1)]
                    B[i][j] = c.numerator * (m // c.denominator)
                    B[j][i] = -B[i][j]
            self._seed(mats, Q(1, m))
        return self._int

    def _seed(self, mats, scale):
        """Store _integer() for A = scale * sum(var_k * mats[k]); the
        content and sign of the integer mats[k] move into lam, so the
        basis is primitive and lam > 0."""
        g = gcd(*(x for B in mats for row in B for x in row)) or 1
        lam = scale * g
        if lam < 0:
            g, lam = -g, -lam
        basis = tuple(tuple(tuple(x // g for x in row) for row in B) for B in mats)
        entries = {}
        for i in range(self.order):
            for j in range(i + 1, self.order):
                t = tuple((k, B[i][j]) for k, B in enumerate(basis) if B[i][j])
                if t:
                    entries[(i, j)] = t
        object.__setattr__(self, "_int", (basis, lam, entries))
        return self._int

    # -- access ---------------------------------------------------------

    def entry(self, i, j):
        """Entry (i, j) with the skew sign materialised."""
        if i == j:
            return Form.zero(self.vars)
        if i < j:
            return self._upper.get((i, j), Form.zero(self.vars))
        f = self._upper.get((j, i))
        return -f if f is not None else Form.zero(self.vars)

    def upper_entries(self):
        """Nonzero strict-upper entries as ((i, j), Form), lex ordered."""
        return [((i, j), self._upper[(i, j)]) for (i, j) in sorted(self._upper)]

    def integer_basis(self):
        """Primitive integer coefficient matrices B_k, as nested tuples.

        A = lam * sum(var_k * B_k) for one positive rational lam, so the
        entries of the B_k are coprime integers.  One common scale is a
        constant factor on the whole space: it changes no rank, no span
        and no line through given parameter points.
        """
        return self._integer()[0]

    def coefficient_basis(self):
        """Constant skew matrices lam * B_k with A = sum(var_k * lam * B_k)."""
        lam = self._integer()[1]
        return [[[lam * x for x in row] for row in B] for B in self.integer_basis()]

    def _combine(self, c):
        """The integer matrix sum(c_k * B_k) for integers c_k, summed over
        the nonzero positions only."""
        n = self.order
        M = [[0] * n for _ in range(n)]
        for (i, j), t in self._integer()[2].items():
            v = sum(c[k] * x for k, x in t)
            M[i][j] = v
            M[j][i] = -v
        return M

    def _substitute(self, vars, images):
        """Replace var_k by sum(images[l][k] * vars[l]): the space read on
        the span of the rational points images[l] of the old parameters."""
        ints, m = _integer_rows(images)
        return SkewPolyMatrix._from_integer(
            vars, [self._combine(c) for c in ints], self._integer()[1] / m)

    def __eq__(self, other):
        return (isinstance(other, SkewPolyMatrix) and self.order == other.order
                and self.vars == other.vars and self._upper == other._upper)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.order, self.vars, tuple(sorted(self._upper.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "SkewPolyMatrix(order=%d, vars=%r, entries=%d)" % (
            self.order, list(self.vars), len(self._upper))

    # -- evaluation -------------------------------------------------------

    def _at(self, point):
        """(M, s) with A(point) = s * M for an integer matrix M."""
        point = [Q(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        if not any(point):
            raise ValueError("zero parameter point")
        (c,), m = _integer_rows([point])
        return self._combine(c), self._integer()[1] / m

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
                        for B in self.integer_basis()], self._integer()[1] / (m * m))

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
        n = self.order
        upper = dict(self._upper)
        for (i, j), f in other._upper.items():
            upper[(i + n, j + n)] = f
        return SkewPolyMatrix(n + other.order, self.vars, upper)

    def pad_zero(self, k):
        """Append k zero rows and columns."""
        if k < 0:
            raise ValueError("negative padding")
        if k == 0:
            return self
        return SkewPolyMatrix(self.order + k, self.vars, dict(self._upper))

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
        entries = self._integer()[2]
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
        return _as_form(poly.items(), self.vars, self._integer()[1] ** degree / den)

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
        vars = tuple(obj["vars"])
        upper = {(e["i"], e["j"]): parse_form(e["form"], vars) for e in obj["upper"]}
        return cls(obj["order"], vars, upper)

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
