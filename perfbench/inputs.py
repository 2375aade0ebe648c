"""Seeded inputs for the three workloads, in the CLI's JSON matrix format.

Everything here is plain integer arithmetic on coefficient matrices; the
program is used only to read the frozen catalog (printed matrices and
recorded ``Expected`` values).  The same seed gives byte-identical
canonical JSON, whose digest goes into the report.

A request is a dict ``{"id", "kind", "matrix", "expect", "seed"}``:

- ``seed`` is the seed the program is given, as the CLI's ``--seed``;
- ``kind`` is ``reproduce`` (catalog), ``certify``, ``classify``,
  ``degree``, ``refute`` (certify-mix) or ``orbit`` (orbit);
- ``matrix`` is the CLI matrix JSON (absent for ``reproduce``, which
  carries ``entry`` instead);
- ``expect`` holds the recorded answers the output must match.
"""

import hashlib
import json
import random
from fractions import Fraction

CERTIFY_FIELDS = ("generic_rank", "constant", "method")
DEGREE_FIELDS = ("c2", "curve_degree")
ORBIT_FIELDS = ("tangent_rank", "orbit_dim")

EIGHT_BY_EIGHT_PLANES = ("pi1", "pi2", "pi3", "pi4", "pi5", "pi6",
                         "schwarzenberger", "dk_steiner")


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


# -- integer matrix helpers ---------------------------------------------


def _int(x):
    x = Fraction(x)
    if x.denominator != 1:
        raise ValueError("catalog coefficient %s is not an integer" % x)
    return int(x)


def _rank(rows):
    """Rank over Q of integer rows (fraction-free elimination)."""
    m = [list(r) for r in rows if any(r)]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, len(m)):
            t = m[i][col]
            if t:
                m[i] = [p * a - t * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def _random_invertible(rng, n):
    while True:
        M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if _rank(M) == n:
            return M


def basis_of(matrix_json):
    """Integer coefficient matrices B_k of a CLI matrix JSON whose entries
    are integer linear forms (as printed by the catalog)."""
    n, vars = matrix_json["order"], matrix_json["vars"]
    mats = [[[0] * n for _ in range(n)] for _ in vars]
    for e in matrix_json["upper"]:
        for k, c in _parse_linear(e["form"], vars).items():
            mats[k][e["i"]][e["j"]] = c
            mats[k][e["j"]][e["i"]] = -c
    return mats


def _parse_linear(text, vars):
    """Coefficients of a linear form such as ``-a``, ``c-b`` or ``2*a+3*b``."""
    out = {}
    s = text.replace(" ", "")
    term, i = "", 0
    pieces = []
    while i < len(s):
        if s[i] in "+-" and term:
            pieces.append(term)
            term = ""
        term += s[i]
        i += 1
    if term:
        pieces.append(term)
    for piece in pieces:
        sign = -1 if piece.startswith("-") else 1
        piece = piece.lstrip("+-")
        coef, _, var = piece.rpartition("*")
        k = vars.index(var)
        out[k] = out.get(k, 0) + sign * (_int(coef) if coef else 1)
    return {k: c for k, c in out.items() if c}


def matrix_json(vars, mats):
    """CLI matrix JSON of sum(var_k * B_k) for integer skew B_k."""
    n = len(mats[0])
    upper = []
    for i in range(n):
        for j in range(i + 1, n):
            text = ""
            for k, v in enumerate(vars):
                c = mats[k][i][j]
                if not c:
                    continue
                mag = "" if abs(c) == 1 else "%d*" % abs(c)
                text += ("-" if c < 0 else ("+" if text else "")) + mag + v
            if text:
                upper.append({"i": i, "j": j, "form": text})
    return {"order": n, "vars": list(vars), "upper": upper}


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)]
            for i in range(n)]


def _transform(vars, mats, P, L):
    """CLI matrix JSON of the congruence P^T A P composed with the
    parameter change x -> L x."""
    n, d = len(mats[0]), len(mats)
    moved = []
    for B in mats:
        BP = [[sum(B[i][k] * P[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        moved.append([[sum(P[k][i] * BP[k][j] for k in range(n))
                       for j in range(n)] for i in range(n)])
    # A(L x) = sum_k (sum_j L[k][j] x_j) B'_k = sum_j x_j (sum_k L[k][j] B'_k)
    mixed = [[[sum(L[k][j] * moved[k][r][c] for k in range(d))
               for c in range(n)] for r in range(n)] for j in range(d)]
    return matrix_json(vars, mixed)


def dense_variant(rng, vars, mats):
    """Random invertible congruence (entries of P in [-2, 2]) composed with
    a random invertible parameter change (same range)."""
    n, d = len(mats[0]), len(mats)
    return _transform(vars, mats, _random_invertible(rng, n),
                      _random_invertible(rng, d))


def relabelled_variant(rng, vars, mats):
    """Signed permutations of the rows and of the variables: as sparse as
    the printed form, with its entries moved and signs flipped."""
    n, d = len(mats[0]), len(mats)
    return _transform(vars, mats, _signed_permutation(rng, n),
                      _signed_permutation(rng, d))


def extension(rng, mats):
    """Lift a three-variable plane to four variables and add a seeded
    random skew coefficient matrix (six entries in [-2, 2]) for ``d``,
    retrying until the four coefficient matrices are independent and the
    space has full rank 8 at a seeded point.

    Full generic rank makes every refutation the same kind of work.  About
    one draw in eight keeps the generic rank at 6; certifying those costs
    25 to 50 times more, so a seed's mix of them, not the program, would
    set certify-mix's total."""
    n = len(mats[0])
    while True:
        D = [[0] * n for _ in range(n)]
        placed = 0
        while placed < 6:
            i, j = rng.randrange(n), rng.randrange(n)
            c = rng.randint(-2, 2)
            if i == j or not c:
                continue
            i, j = min(i, j), max(i, j)
            D[i][j] += c
            D[j][i] -= c
            placed += 1
        four = [B for B in mats] + [D]
        flat = [[B[i][j] for i in range(n) for j in range(i + 1, n)] for B in four]
        point = [rng.randint(-9, 9) for _ in four]
        at = [[sum(x * B[i][j] for x, B in zip(point, four)) for j in range(n)]
              for i in range(n)]
        if _rank(flat) == 4 and _rank(at) == n:
            return four


# -- workloads ----------------------------------------------------------


def _expect(entry, fields=None):
    """Recorded values of the given fields (all fields when None)."""
    return {f: list(v) if isinstance(v, tuple) else v
            for f, v in entry.expected.items() if fields is None or f in fields}


def _variants(rng, entry, relabelled=False):
    sparse = entry.matrix.to_json()
    vars, mats = sparse["vars"], basis_of(sparse)
    out = [("sparse", sparse)]
    if relabelled:
        out.append(("relabelled", relabelled_variant(rng, vars, mats)))
    out.append(("dense", dense_variant(rng, vars, mats)))
    return out


def catalog_requests(catalog, seed):
    return [{"id": "reproduce:%s" % name, "kind": "reproduce", "entry": name,
             "expect": _expect(catalog.get(name))} for name in catalog.names()]


def certify_mix_requests(catalog, seed):
    """Sessions of requests on one matrix each, in seeded order.  Within a
    session the requests run back to back, certify first, so the certify
    cache behaves the same on every seed."""
    rng = random.Random("perfbench:certify-mix:%d" % seed)
    sessions = []
    for name in catalog.names():
        entry = catalog.get(name)
        rec = dict(entry.expected.items())
        for tag, mj in _variants(rng, entry):
            sid = "%s:%s" % (name, tag)
            session = [{"id": "certify:" + sid, "kind": "certify", "matrix": mj,
                        "expect": _expect(entry, CERTIFY_FIELDS)}]
            if len(mj["vars"]) == 2 and "partition" in rec:
                exp = _expect(entry, ("partition", "padding", "generic_rank"))
                session.append({"id": "classify:" + sid, "kind": "classify",
                                "matrix": mj, "expect": exp})
            deg = _expect(entry, DEGREE_FIELDS)
            if deg:
                session.append({"id": "degree:" + sid, "kind": "degree",
                                "matrix": mj, "expect": deg})
            sessions.append(session)
    for name in EIGHT_BY_EIGHT_PLANES:
        base = catalog.get(name).matrix.to_json()
        four = extension(rng, basis_of(base))
        vars = ["a", "b", "c", "d"]
        for tag, mj in (("sparse", matrix_json(vars, four)),
                        ("dense", dense_variant(rng, vars, four))):
            sessions.append([{"id": "refute:%s+d:%s" % (name, tag),
                              "kind": "refute", "matrix": mj,
                              "expect": {"constant": False}}])
    rng.shuffle(sessions)
    return [req for session in sessions for req in session]


def orbit_requests(catalog, seed):
    """Sparse, relabelled and dense variants of each entry with a recorded
    orbit dimension, in seeded order.  The relabelled variants put the
    median request inside the group of sparse requests, so it is not the
    boundary between a sparse and a dense one."""
    rng = random.Random("perfbench:orbit:%d" % seed)
    out = []
    for name in catalog.names():
        entry = catalog.get(name)
        exp = _expect(entry, ORBIT_FIELDS)
        if "orbit_dim" not in exp:
            continue
        for tag, mj in _variants(rng, entry, relabelled=True):
            out.append({"id": "orbit:%s:%s" % (name, tag), "kind": "orbit",
                        "matrix": mj, "expect": exp})
    rng.shuffle(out)
    return out


WORKLOADS = {
    "catalog": catalog_requests,
    "certify-mix": certify_mix_requests,
    "orbit": orbit_requests,
}


def build(catalog, workload, seed):
    """Request list of a workload and the digest of its canonical JSON."""
    reqs = WORKLOADS[workload](catalog, seed)
    # The catalog workload passes its seed to reproduce_all, whose checks
    # draw lines and covectors from it.  The others give the program the
    # CLI's default seed and use theirs only to build inputs, as classify
    # and the degree certify with that default: they then reuse their
    # session's certificate on every seed alike.
    for req in reqs:
        req["seed"] = seed if workload == "catalog" else 0
    return reqs, digest(reqs)
