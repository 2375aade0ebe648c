"""Skew-symmetric matrices of linear forms.

The matrix stores only its strict upper triangle; the lower triangle and
the zero diagonal are implied.  Entries are homogeneous linear
:class:`~skewrank.forms.Form` values (or zero) in a shared tuple of
parameter variables.  Values are immutable.

Pfaffians are expanded on integers: A = lam * A_int for the one rational
lam of `integer_basis`, and a per-instance memo keyed by principal index
subsets holds the Pfaffians of A_int as dicts from packed exponents to
integer coefficients.  A Form is built only where a caller gets one; the
Pfaffian of size 2k is lam^k times that of A_int, so the Forms are exactly
the Pfaffians of A.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .forms import Form, parse_form

Q = Fraction


class SkewPolyMatrix:
    __slots__ = ("order", "vars", "_upper", "_pf_memo", "_hash", "_int_basis",
                 "_int_entries")

    def __init__(self, order, vars, upper):
        order = int(order)
        if order < 1:
            raise ValueError("order must be at least 1")
        vars = tuple(str(v) for v in vars)
        if not vars:
            raise ValueError("need at least one parameter variable")
        clean = {}
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
            clean[(i, j)] = f
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "_upper", clean)
        object.__setattr__(self, "_pf_memo", {})
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_int_basis", None)
        object.__setattr__(self, "_int_entries", None)

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
        vars = tuple(vars)
        if len(matrices) != len(vars):
            raise ValueError("need one coefficient matrix per variable")
        order = len(matrices[0])
        upper = {}
        for k, B in enumerate(matrices):
            if len(B) != order or any(len(r) != order for r in B):
                raise ValueError("coefficient matrices must share one order")
            for i in range(order):
                if B[i][i]:
                    raise ValueError("nonzero diagonal in coefficient matrix")
                for j in range(i + 1, order):
                    if Q(B[i][j]) != -Q(B[j][i]):
                        raise ValueError("coefficient matrix %d is not skew" % k)
                    if B[i][j]:
                        e = tuple(1 if t == k else 0 for t in range(len(vars)))
                        f = upper.get((i, j), Form.zero(vars))
                        upper[(i, j)] = f + Form(vars, [(e, Q(B[i][j]))])
        return cls(order, vars, upper)

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

    def coefficient_basis(self):
        """Constant skew matrices B_k with A = sum(var_k * B_k)."""
        mats = []
        for k in range(self.nvars):
            B = [[Q(0)] * self.order for _ in range(self.order)]
            for (i, j), f in self._upper.items():
                e = tuple(1 if t == k else 0 for t in range(self.nvars))
                c = f.coefficient(e)
                if c:
                    B[i][j] = c
                    B[j][i] = -c
            mats.append(B)
        return mats

    def integer_basis(self):
        """Primitive integer coefficient matrices, as nested tuples.

        The B_k of coefficient_basis, all scaled by one positive rational
        so that the entries are coprime integers.  One common scale is a
        constant factor on the whole space: it changes no rank, no span
        and no line through given parameter points.  Built once per
        matrix and cached.
        """
        return self._integer_scaled()[0]

    def _integer_scaled(self):
        """(integer_basis(), lam) with A = lam * sum(var_k * B_k)."""
        got = self._int_basis
        if got is None:
            mats = self.coefficient_basis()
            m = lcm(*(x.denominator for B in mats for row in B for x in row))
            mats = [[[x.numerator * (m // x.denominator) for x in row]
                     for row in B] for B in mats]
            g = gcd(*(x for B in mats for row in B for x in row)) or 1
            got = (tuple(tuple(tuple(x // g for x in row) for row in B)
                         for B in mats), Q(g, m))
            object.__setattr__(self, "_int_basis", got)
        return got

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

    def evaluate_at(self, point):
        """Constant skew matrix at a nonzero parameter point."""
        point = [Q(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        if not any(point):
            raise ValueError("zero parameter point")
        M = [[Q(0)] * self.order for _ in range(self.order)]
        for (i, j), f in self._upper.items():
            v = f.evaluate(point)
            M[i][j] = v
            M[j][i] = -v
        return M

    def rank_at(self, point):
        """Exact rank at a nonzero point (always even)."""
        r = linalg.bareiss_rank(self.evaluate_at(point))
        assert r % 2 == 0
        return r

    # -- transforms -------------------------------------------------------

    def congruence_transform(self, P):
        """Congruence P^T A P by an invertible constant matrix."""
        P = [[Q(x) for x in row] for row in P]
        n = self.order
        if len(P) != n or any(len(r) != n for r in P):
            raise ValueError("transform must be square of order %d" % n)
        if linalg.det(P) == 0:
            raise ValueError("singular congruence matrix")
        Pt = linalg.transpose(P)
        basis = self.coefficient_basis()
        new = [linalg.mat_mul(linalg.mat_mul(Pt, B), P) for B in basis]
        return SkewPolyMatrix.from_coefficient_basis(self.vars, new)

    def parameter_change(self, L):
        """Substitute variables by L * (vars); L invertible d x d."""
        d = self.nvars
        L = [[Q(x) for x in row] for row in L]
        if len(L) != d or any(len(r) != d for r in L):
            raise ValueError("parameter change must be square of order %d" % d)
        if linalg.det(L) == 0:
            raise ValueError("singular parameter change")
        images = []
        for i in range(d):
            images.append(Form(self.vars,
                               [(tuple(1 if t == j else 0 for t in range(d)), L[i][j])
                                for j in range(d) if L[i][j]]))
        upper = {ij: f.linear_substitute(images) for ij, f in self._upper.items()}
        return SkewPolyMatrix(self.order, self.vars, upper)

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
        basis = self.coefficient_basis()
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

    def _packing_width(self):
        """Bits per variable in a packed exponent.  A Pfaffian has degree
        at most order // 2, so no exponent carries into the next field."""
        return (self.order // 2).bit_length()

    def _pf(self, idx):
        """Pfaffian of the principal submatrix of A_int on the sorted index
        tuple, as {packed exponents: integer coefficient}."""
        memo = self._pf_memo
        got = memo.get(idx)
        if got is not None:
            return got
        entries = self._int_entries
        if entries is None:
            basis = self.integer_basis()
            w = self._packing_width()
            entries = {(i, j): [(1 << (w * k), B[i][j])
                                for k, B in enumerate(basis) if B[i][j]]
                       for (i, j) in self._upper}
            object.__setattr__(self, "_int_entries", entries)
        if not idx:
            out = {0: 1}
        else:
            rest = idx[1:]
            i0 = idx[0]
            out = {}
            for t, j in enumerate(rest):
                e = entries.get((i0, j))
                if e is None:
                    continue
                sub = self._pf(rest[:t] + rest[t + 1:])
                for m1, c1 in e:
                    if t % 2:
                        c1 = -c1
                    for m2, c2 in sub.items():
                        m = m1 + m2
                        out[m] = out.get(m, 0) + c1 * c2
            out = {m: c for m, c in out.items() if c}
        memo[idx] = out
        return out

    def _form(self, poly, degree, den=1):
        """The Form lam^degree / den * poly of a packed integer polynomial
        of the given degree, such as a Pfaffian of size 2 * degree."""
        scale = self._integer_scaled()[1] ** degree / den
        p, q = scale.numerator, scale.denominator
        w = self._packing_width()
        mask = (1 << w) - 1
        shifts = [w * k for k in range(self.nvars)]
        return Form._from_clean(self.vars, {
            tuple(m >> s & mask for s in shifts): Q(c * p, q)
            for m, c in poly.items()})

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
