"""Correctness checks on every answer a worker returns.

Catalog answers must carry the report's ``ok`` flags and, independently,
observed values equal to the recorded ``Expected`` fields.  Certify,
classify, degree and orbit answers are compared with the recorded values
of the entry they were derived from; those values are invariant under
the congruences and parameter changes that make the dense variants.
Refutations are checked with sympy, independently of skewrank's linear
algebra: the witness must drop the rank, and the reported generic rank
must be the largest rank at seeded random points.

``check`` returns ``(attempted, failures)`` for one answer, where
``failures`` lists one line per failed check.
"""

import random
from fractions import Fraction

import inputs

ORACLE_POINTS = 4          # Schwartz-Zippel: a miss needs all four to drop


def check(req, answer, error):
    """Checks for one request against its recorded ``expect`` values."""
    kind = req["kind"]
    want = req["expect"]
    attempted = 3 if kind == "refute" else len(want)
    if error is not None:
        return attempted, ["%s: %s" % (req["id"], error)] * attempted
    if kind == "reproduce":
        return attempted, _reproduce(req["id"], answer, want)
    if kind == "refute":
        return attempted, _refute(req, answer)
    got = _observed(kind, answer)
    bad = ["%s: %s = %r, recorded %r" % (req["id"], k, got.get(k), v)
           for k, v in want.items() if got.get(k) != v]
    return attempted, bad


def _observed(kind, answer):
    if kind == "certify":
        return answer
    if kind == "classify":
        return {"partition": answer["partition"], "padding": answer["padding"],
                "generic_rank": answer["rank"]}
    if kind == "degree":
        return {"c2": answer["degree"], "curve_degree": answer["degree"]}
    if kind == "orbit":
        return answer
    raise ValueError("unknown request kind %r" % kind)


def _reproduce(rid, rows, want):
    bad = []
    seen = {}
    for row in rows:
        seen[row["check"]] = row
        if not row["ok"]:
            bad.append("%s: %s flagged FAIL (observed %r)"
                       % (rid, row["check"], row["observed"]))
    for field, value in want.items():
        row = seen.get(field)
        if row is None:
            bad.append("%s: no row for %s" % (rid, field))
        elif row["observed"] != value and row["ok"]:
            bad.append("%s: %s observed %r, recorded %r"
                       % (rid, field, row["observed"], value))
    extra = set(seen) - set(want)
    if extra:
        bad.append("%s: unexpected rows %s" % (rid, sorted(extra)))
    return bad


def _refute(req, answer):
    """Refuted, a witness (when given) that drops the rank, and a generic
    rank equal to the largest sympy rank at seeded points."""
    import sympy

    rid = req["id"]
    mats = inputs.basis_of(req["matrix"])
    d = len(mats)

    def rank_at(point):
        n = len(mats[0])
        M = [[sum(Fraction(p) * B[i][j] for p, B in zip(point, mats))
              for j in range(n)] for i in range(n)]
        return sympy.Matrix(n, n, lambda i, j: sympy.Rational(
            M[i][j].numerator, M[i][j].denominator)).rank()

    bad = []
    if answer["constant"] is not False:
        bad.append("%s: constant = %r, must refute" % (rid, answer["constant"]))
    rng = random.Random("perfbench:oracle:" + inputs.digest(req["matrix"]))
    ranks = []
    while len(ranks) < ORACLE_POINTS:
        p = [rng.randint(-99, 99) for _ in range(d)]
        if any(p):
            ranks.append(rank_at(p))
    if max(ranks) != answer["generic_rank"]:
        bad.append("%s: generic_rank %r, sympy ranks at seeded points %r"
                   % (rid, answer["generic_rank"], ranks))
    witness = answer.get("witness")
    if witness is not None:
        point = [Fraction(x) for x in witness]
        if not any(point) or rank_at(point) >= answer["generic_rank"]:
            bad.append("%s: witness %r does not drop the rank" % (rid, witness))
    return bad
