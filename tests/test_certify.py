import hashlib
import json
import random
import signal
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from tests.conftest import (echelon_coefficient_rank, partitions, random_invertible,
                            random_skew)

from skewrank import catalog, linalg
from skewrank.certify import (_binary_rational_roots, certify_constant_rank,
                              generic_rank, restrict_line, witness_candidates)
from skewrank.forms import binary_gcd
from skewrank.geometry import section_zero_scheme_degree
from skewrank.skew import SkewPolyMatrix

Q = Fraction
AB = ("a", "b")
ABCD = ("a", "b", "c", "d")


def test_generic_rank_examples():
    assert generic_rank(catalog.get("M9").matrix) == 6
    assert generic_rank(catalog.get("westwick").matrix) == 8
    assert generic_rank(catalog.get("triangle3").matrix) == 2
    with pytest.raises(ValueError):
        generic_rank(SkewPolyMatrix.zero(3, AB))


def test_certify_and_zero_scheme_build_no_pfaffian_form(monkeypatch):
    # both ideals reach groebner as the packed integer Pfaffians
    P = random_invertible(random.Random("form-count"), 8)
    A = catalog.get("pi6").matrix.congruence_transform(P)
    built = []
    form = SkewPolyMatrix._form

    def counting(self, *args):
        built.append(args)
        return form(self, *args)

    monkeypatch.setattr(SkewPolyMatrix, "_form", counting)
    cert = certify_constant_rank(A)
    assert (cert.generic_rank, cert.constant) == (6, True)
    assert section_zero_scheme_degree(A) == 3
    assert built == []


def test_one_verdict_per_matrix_across_seeds(monkeypatch):
    from skewrank import certify
    checks = []
    real = certify._pfaffian_ideal_empty
    monkeypatch.setattr(certify, "_pfaffian_ideal_empty",
                        lambda A, rank: checks.append(1) or real(A, rank))
    P = random_invertible(random.Random("seed-free"), 8)
    A = catalog.get("pi2").matrix.congruence_transform(P)
    certs = {certify_constant_rank(A, seed=seed) for seed in (0, 1, 3)}
    assert len(certs) == 1 and len(checks) == 1
    # a refutation keeps its seeded witness search, on the one verdict;
    # the rank drops at none of the first, seed-free probe points
    net = SkewPolyMatrix(4, ("a", "b", "c"),
                         {(0, 1): "a + b + c", (2, 3): "a + 2*b + 3*c"})
    witnesses = set()
    for seed in (0, 3):
        c = certify_constant_rank(net, seed=seed)
        assert (c.generic_rank, c.constant, c.method) == (4, False, "groebner")
        assert c.witness == certify._search_witness(net, 4, seed)
        witnesses.add(c.witness)
    assert len(witnesses) == 2 and len(checks) == 2


def _extend(A, B, var="d"):
    """A with one more variable, whose coefficient matrix is B."""
    return SkewPolyMatrix.from_coefficient_basis(
        A.vars + (var,), A.coefficient_basis() + [B])


def test_span_proof_agrees_with_groebner(monkeypatch):
    # the span proof answers only where the packed sub-Pfaffian ideal is
    # empty, and every other input reaches the Groebner basis
    from skewrank import certify
    from skewrank.groebner import Ideal, is_projectively_empty

    rng = random.Random(23)
    span = []                        # d >= 3 inputs whose span is all of S_r
    other = []                       # inputs whose span is not
    for name in catalog.names():
        entry = catalog.get(name)
        A = entry.matrix
        if A.nvars == 2:
            continue
        cases = span if entry.expected.method == "macaulay" else other
        cases.append(A)
        for k in range(2):
            B = A.congruence_transform(random_invertible(rng, A.order))
            cases.append(B.parameter_change(random_invertible(rng, A.nvars))
                         if k else B)
    for name in ("pi1", "pi2", "pi3", "pi4", "pi5", "pi6",
                 "schwarzenberger", "dk_steiner"):
        A = catalog.get(name).matrix
        # generic rank 8: one quartic Pfaffian, a surface in P^3
        other.append(_extend(A, random_skew(rng, 8)))
        # generic rank 6: A read through a map of rank 3 from Q^4, which
        # vanishes at the point of its kernel
        images = random_invertible(rng, 3) + [[Q(rng.randint(-3, 3))
                                               for _ in range(3)]]
        other.append(A._substitute(ABCD, images))
    # generic rank 6: pi1's common kernel vector e_7 kept by the new matrix
    B = [row[:7] + [Q(0)] for row in random_skew(rng, 7)] + [[Q(0)] * 8]
    other.append(_extend(catalog.get("pi1").matrix, B))
    # as many entries as linear forms, spanning one form fewer: they
    # vanish at (0, 0, 1) and at (0, 0, 1, -1)
    other.append(SkewPolyMatrix(3, ("a", "b", "c"), {(0, 1): "a", (0, 2): "b",
                                                     (1, 2): "a + b"}))
    other.append(SkewPolyMatrix(5, ABCD, {(0, 1): "a", (0, 2): "b",
                                          (0, 3): "c + d",
                                          (0, 4): "a + b + c + d"}))
    assert (len(span), len(other)) == (48, 25)

    groebner_calls = []
    monkeypatch.setattr(certify, "is_projectively_empty",
                        lambda ideal: groebner_calls.append(1)
                        or is_projectively_empty(ideal))
    reads = []
    pf = SkewPolyMatrix._pf
    monkeypatch.setattr(SkewPolyMatrix, "_pf",
                        lambda self, idx: reads.append(idx) or pf(self, idx))
    refuted = 0
    for cases, method in ((span, "macaulay"), (other, "groebner")):
        for A in cases:
            rank = generic_rank(A)
            subsets = list(combinations(range(A.order), rank))
            pfs = [pf(A, s) for s in subsets]
            nonzero = [p for p in pfs if p]
            want = is_projectively_empty(Ideal._from_packed(A.vars, nonzero))
            del groebner_calls[:], reads[:]
            assert certify._pfaffian_ideal_empty(A, rank) == (want, method)
            assert len(groebner_calls) == (method == "groebner")
            if method == "macaulay":
                # exactly the shortest prefix whose rows span the forms
                forms = comb(rank // 2 + A.nvars - 1, A.nvars - 1)
                stop = next(k for k in range(len(pfs) + 1)
                            if echelon_coefficient_rank(pfs[:k]) == forms)
                assert reads == subsets[:stop]
            else:
                # every subset, each decoded once
                assert reads == subsets
            refuted += not want
    assert refuted == 19
    assert sum(generic_rank(A) == 6 and A.nvars == 4 for A in other) == 9


def test_dense_pi6_pair_reads_only_its_first_spanning_sub_pfaffians(monkeypatch):
    # the seeded dense congruence of pi6 + pi6 in the CI console step, order
    # 16: 1,820 sub-Pfaffians of size 12, of which the first 28 already
    # span the 28 sextics in a, b, c
    from skewrank import certify
    rng = random.Random(16)
    A = catalog.get("pi6").matrix
    A = A.direct_sum(A)
    U = [[rng.randint(-2, 2) if i < j else int(i == j) for j in range(16)]
         for i in range(16)]
    A = A.congruence_transform(U).congruence_transform([list(c) for c in zip(*U)])
    reads = []
    pf = SkewPolyMatrix._pf
    monkeypatch.setattr(SkewPolyMatrix, "_pf",
                        lambda self, idx: reads.append(idx) or pf(self, idx))
    assert certify._pfaffian_ideal_empty(A, generic_rank(A)) == (True, "macaulay")
    assert reads == list(combinations(range(16), 12))[:28]


def _rank_rule_lines(d, seed):
    """witness_candidates' 25 lines as the rank of the pair picks them,
    after the same draws for its 25 points."""
    rng = random.Random(seed)
    points = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    points.append((1,) * d)
    while len(points) < 25:
        p = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(p) and p not in points:
            points.append(p)
    lines = []
    while len(lines) < 25:
        p = [Q(rng.randint(-3, 3)) for _ in range(d)]
        q = [Q(rng.randint(-3, 3)) for _ in range(d)]
        if any(p) and any(q) and linalg.rank([p, q]) == 2:
            lines.append((tuple(p), tuple(q)))
    return lines


def test_witness_lines_by_integer_minors():
    for d in (3, 4, 5):
        for seed in range(6):
            assert witness_candidates(d, seed)[1] == _rank_rule_lines(d, seed)
    pins = {0: "709c463a35a6b5e4100bba370c472e0fb11f5097472439f9ea7dbf6c5522d6fc",
            3: "dd934c7c670bca9bb98e5951472d1ddda703ef4603e1161bc4e875310c3ced57"}
    for seed, want in pins.items():
        points, lines = witness_candidates(4, seed)
        blob = json.dumps([[list(map(str, p)) for p in points],
                           [[list(map(str, p)), list(map(str, q))] for p, q in lines]])
        assert hashlib.sha256(blob.encode()).hexdigest() == want
        assert all(type(x) is int for p, q in lines for x in p + q)


def test_witness_candidates_of_one_parameter_return():
    """One parameter spans no line; the call must return instead of
    drawing forever, so it runs under an alarm."""
    def stop(signum, frame):
        raise TimeoutError("witness_candidates(1) did not return")

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        points, lines = witness_candidates(1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert points == [(1,)] and lines == []


def test_certify_examples():
    c = certify_constant_rank(catalog.get("M8").matrix)
    assert (c.generic_rank, c.constant, c.method) == (6, True, "kronecker")
    split = SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "b"})
    c = certify_constant_rank(split)
    assert (c.generic_rank, c.constant) == (4, False)
    assert c.witness == (Q(0), Q(1))
    c = certify_constant_rank(catalog.get("westwick").matrix)
    assert (c.generic_rank, c.constant, c.method) == (8, True, "macaulay")


def test_witness_drops_rank():
    split = SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "b"})
    c = certify_constant_rank(split)
    assert split.rank_at(c.witness) < c.generic_rank


def test_witness_search_falls_back_to_a_line(monkeypatch):
    # the rank drops at none of the seed-0 probe points; the first
    # witness line meets the plane 101a + 103b - 107c = 0
    from skewrank import certify
    net = SkewPolyMatrix(2, ("a", "b", "c"), {(0, 1): "101*a + 103*b - 107*c"})
    points, lines = witness_candidates(3, 0)
    assert all(net.rank_at(p) == 2 for p in points)
    restricted = []
    real = certify.restrict_line
    monkeypatch.setattr(certify, "restrict_line",
                        lambda A, p, q: restricted.append((p, q)) or real(A, p, q))
    c = certify_constant_rank(net, seed=0)
    assert (c.generic_rank, c.constant) == (2, False)
    a, b, cc = c.witness
    assert any(c.witness) and 101 * a + 103 * b - 107 * cc == 0
    assert restricted == lines[:1]


def test_certificate_invariance(rng):
    for name in ("M7", "pi3"):
        A = catalog.get(name).matrix
        base = certify_constant_rank(A)
        for _ in range(3):
            P = random_invertible(rng, A.order)
            c = certify_constant_rank(A.congruence_transform(P))
            assert (c.generic_rank, c.constant) == (base.generic_rank, True)
            L = random_invertible(rng, A.nvars)
            c = certify_constant_rank(A.parameter_change(L))
            assert (c.generic_rank, c.constant) == (base.generic_rank, True)


def test_cross_validation():
    # the certified generic rank is the rank at 200 seeded points
    A = catalog.get("pi4").matrix
    rank = certify_constant_rank(A).generic_rank
    rng = random.Random(0)
    points = []
    while len(points) < 200:
        p = tuple(rng.randint(-9, 9) for _ in range(A.nvars))
        if any(p):
            points.append(p)
    assert all(A.rank_at(p) == rank for p in points)


def test_gcd_and_groebner_routes_agree_on_pencils():
    from skewrank.groebner import Ideal, is_projectively_empty

    split = SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "b"})
    cases = [catalog.get(n).matrix
             for n in ("M7", "M8", "M9", "rank4_5x5", "rank4_6x6")] + [split]
    for A in cases:
        rank = generic_rank(A)
        pfs = [f for f in A.sub_pfaffians(rank) if not f.is_zero()]
        gcd_constant = binary_gcd(pfs).degree() == 0
        gb_constant = is_projectively_empty(Ideal(A.vars, sorted(set(pfs), key=str)))
        assert gcd_constant == gb_constant
        assert certify_constant_rank(A).constant is gcd_constant


def test_canonical_forms_certify():
    from skewrank.pencil import canonical_form

    for partition in [(1,), (2,), (2, 1), (3, 2), (2, 2, 1)]:
        cp = canonical_form(partition)
        c = certify_constant_rank(cp.matrix)
        assert c.constant is True
        assert c.generic_rank == 2 * sum(partition)


def test_order_bound_of_nondegenerate_pencils():
    # a constant-rank pencil with padding 0 has N + 1 - 2r positive
    # minimal indices summing to r, so 2r <= N <= 3r - 1
    from skewrank.pencil import canonical_form, minimal_indices

    pencils = [A for A in (catalog.get(n).matrix for n in catalog.names())
               if A.nvars == 2 and certify_constant_rank(A).constant]
    pencils += [canonical_form(p).matrix for r in range(1, 5) for p in partitions(r)]
    bounds = set()
    for A in pencils:
        inv = minimal_indices(A)
        if inv.padding == 0:
            r, N = inv.rank // 2, A.order - 1
            assert 2 * r <= N <= 3 * r - 1, (A, inv)
            bounds.add((N == 2 * r, N == 3 * r - 1))
    assert {(True, False), (False, True)} <= bounds   # e.g. M7, M9 attain them
    # an order-4 pencil of rank 2 breaks the bound only through padding 1
    stretched = SkewPolyMatrix(4, AB, {(0, 1): "a", (0, 2): "b", (0, 3): "a"})
    c = certify_constant_rank(stretched)
    assert c.constant is True and c.generic_rank == 2
    assert minimal_indices(stretched).padding == 1


def test_restrict_line_shapes():
    A = catalog.get("pi2").matrix
    pencil = restrict_line(A, (1, 0, 0), (0, 1, 0))
    assert pencil.vars == ("s", "t")
    assert pencil.order == A.order


def _symbolic_reference(A):
    """(generic rank, constant, witness) from the symbolic generic rank and
    the binary GCD of the sub-Pfaffians of that size."""
    rank = generic_rank(A)
    g = binary_gcd([f for f in A.sub_pfaffians(rank) if not f.is_zero()])
    if g.degree() == 0:
        return rank, True, None
    coeff = {ea: c for (ea, _), c in g._terms.items()}
    (ints,), _ = linalg.integer_rows([[coeff.get(i, 0) for i in range(max(coeff) + 1)]])
    roots = _binary_rational_roots(ints, g.degree() - max(coeff))
    return rank, False, roots[0] if roots else None


# regular blocks: rank 2 dropping at (-2, 1); rank 4 with Pfaffian
# a^2 + b^2, dropping at no rational point; then rank 2 dropping at
# (1, 0); rank 4 with Pfaffian (a - b)(2a + 3b); rank 6 with Pfaffian
# -(a^3 - 2b^3), whose only real root is irrational
REGULAR_BLOCKS = [
    SkewPolyMatrix(2, AB, {(0, 1): "a + 2*b"}),
    SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "a", (0, 2): "b", (1, 3): "-b"}),
    SkewPolyMatrix(2, AB, {(0, 1): "3*b"}),
    SkewPolyMatrix(4, AB, {(0, 1): "a - b", (2, 3): "2*a + 3*b"}),
    SkewPolyMatrix(6, AB, {(0, 3): "a", (0, 5): "-2*b", (1, 3): "-b",
                           (1, 4): "a", (2, 4): "-b", (2, 5): "a"}),
]


def _pencil_cases(regular):
    """(matrix, classification or None) over the catalog pencils, canonical
    pencils and direct sums of canonical pencils with the regular blocks,
    each also moved by seeded congruences."""
    from skewrank.pencil import canonical_form

    rng = random.Random(16)
    cases = []
    for name in catalog.names():
        entry = catalog.get(name)
        if entry.matrix.nvars != 2:
            continue
        A = entry.matrix
        want = (entry.expected.partition, entry.expected.padding)
        cases.append((A, want))
        for k in range(4):
            B = A.congruence_transform(random_invertible(rng, A.order))
            if k % 2:
                B = B.parameter_change(random_invertible(rng, 2))
            cases.append((B, want))
    for r in range(1, 5):
        for partition in partitions(r):
            for padding in range(3):
                A = canonical_form(partition).matrix.pad_zero(padding)
                cases.append((A, (partition, padding)))
                if padding == 1 and r <= 3:
                    P = random_invertible(rng, A.order)
                    cases.append((A.congruence_transform(P), (partition, 1)))
    for r in range(1, 4):
        for partition in partitions(r):
            for block in regular:
                A = canonical_form(partition).matrix.direct_sum(block)
                cases.append((A, None))
                if r < 3:            # dense refutations past order 10 are slow
                    B = A.congruence_transform(random_invertible(rng, A.order))
                    cases.append((B, None))
                    L = random_invertible(rng, 2)
                    cases.append((B.parameter_change(L), None))
    cases += [(block.pad_zero(1), None) for block in regular]
    return cases


def test_kronecker_route_matches_symbolic_reference():
    from skewrank.pencil import minimal_indices

    cases = _pencil_cases(REGULAR_BLOCKS[:2])
    assert (len(cases), sum(want is None for _, want in cases)) == (110, 26)
    for A, want in cases:
        c = certify_constant_rank(A)
        assert (c.generic_rank, c.constant, c.witness) == _symbolic_reference(A)
        if want is None:
            with pytest.raises(ValueError):
                minimal_indices(A)
        else:
            inv = minimal_indices(A)
            assert (inv.partition, inv.padding) == want


def test_pencil_and_one_variable_edge_cases():
    with pytest.raises(ValueError):
        certify_constant_rank(SkewPolyMatrix.zero(4, AB))
    line = SkewPolyMatrix(4, ("x",), {(0, 1): "x", (2, 3): "3*x"})
    c = certify_constant_rank(line)
    assert (c.generic_rank, c.constant, c.method) == (4, True, "macaulay")


def test_witness_roots_are_bounded():
    big = 10 ** 24 + 7
    # Pfaffian a^2 + big*b^2: no linear factor and a huge end coefficient,
    # so the rational-root search is skipped and the witness is None
    quad = SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "a",
                                  (0, 2): "b", (1, 3): "-%d*b" % big})
    c = certify_constant_rank(quad)
    assert (c.generic_rank, c.constant, c.witness) == (4, False, None)


def _fraction_gcd(forms):
    """(g, val): the monic GCD of nonzero binary forms by Euclid over Q,
    g little-endian in the first variable, val the power of the second
    that divides every form; the reference for the integer route."""
    def rem(u, v):
        u = list(u)
        while len(u) >= len(v):
            q = u[-1] / v[-1]
            for i, c in enumerate(v, len(u) - len(v)):
                u[i] -= q * c
            while u and not u[-1]:
                u.pop()
        return u

    g, val = None, None
    for f in forms:
        u = [Q(0)] * (f.degree() + 1)
        for (i, _), c in f._terms.items():
            u[i] = c
        while not u[-1]:
            u.pop()
        v = f.degree() + 1 - len(u)
        val = v if val is None else min(val, v)
        while g:
            u, g = g, rem(u, g)
        g = u
    return [c / g[-1] for c in g], val


def _gate_pencils():
    """The non-constant pencils of _pencil_cases over all five regular
    blocks, then the 25 witness lines of a refuted net."""
    pencils = [A for A, want in _pencil_cases(REGULAR_BLOCKS) if want is None]
    net = SkewPolyMatrix(7, ("a", "b", "c"), {
        (0, 1): "a", (2, 3): "a", (0, 2): "b", (1, 3): "-c", (4, 5): "a - b + 2*c"})
    net = net.congruence_transform(random_invertible(random.Random(5), 7))
    lines = [restrict_line(net, p, q) for p, q in witness_candidates(3, 0)[1]]
    return pencils, lines


def test_integer_first_drop_matches_fraction_euclid():
    from skewrank.certify import _first_drop, verdict

    pencils, lines = _gate_pencils()
    assert (len(pencils), len(lines)) == (65, 25)
    witnesses = []
    for A in pencils + lines:
        rank = verdict(A).generic_rank
        got = _first_drop(A, rank)
        pfs = [f for f in A.sub_pfaffians(rank) if not f.is_zero()]
        if pfs:
            g, val = _fraction_gcd(pfs)
            (ints,), _ = linalg.integer_rows([g])
            roots = _binary_rational_roots(ints, val)
            assert got == (roots[0] if roots else None)
        else:
            assert got == (Q(1), Q(0))
        if got is not None:
            assert A.rank_at(got) < rank
        witnesses.append(got)
    # every root branch is taken: (0, 1), (1, 0), a linear root, a root
    # found by trial division, and no rational root at all
    kinds = {w if w in ((0, 1), (1, 0), None) else "root" for w in witnesses}
    assert kinds == {(0, 1), (1, 0), None, "root"}
    assert (Q(2, 3), 1) in witnesses and (Q(-3, 2), 1) in witnesses
    blob = json.dumps([w and [str(x) for x in w] for w in witnesses])
    assert hashlib.sha256(blob.encode()).hexdigest() == GATE_WITNESSES


# the witnesses of the Fraction-Euclid route on sub-Pfaffian Forms that
# the integer route replaced, recorded before it was deleted
GATE_WITNESSES = "c622d4d8003c6eae5131a8166e70c8d7c2ab5e7d3185827e3e3a5e8aabd4bb4f"


def _with_canonical(block):
    from skewrank.pencil import canonical_form

    return canonical_form((1,)).matrix.direct_sum(block)


def test_verdict_only_callers_compute_no_witness(monkeypatch):
    from skewrank import certify, geometry
    from skewrank.catalog import CatalogEntry, Expected

    def refuse(*args):
        raise AssertionError("a witness was computed for a verdict")

    monkeypatch.setattr(certify, "_first_drop", refuse)
    monkeypatch.setattr(certify, "_search_witness", refuse)
    certify.verdict.cache_clear()
    pencil = _with_canonical(REGULAR_BLOCKS[0]).pad_zero(1)
    net = SkewPolyMatrix(4, ("a", "b", "c"),
                         {(0, 1): "a + b + c", (2, 3): "a + 2*b + 3*c"})
    for A in (pencil, net):
        with pytest.raises(ValueError, match="constant-rank certificate"):
            geometry.gauss_span_dim(A)
    with pytest.raises(ValueError, match="rank 4 at every point"):
        geometry.splitting_on_line(net, (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="constant-rank certificate"):
        section_zero_scheme_degree(net)
    table = {"pencil": CatalogEntry("pencil", 1, "refuted pencil", pencil,
                                    Expected(generic_rank=4, constant=False,
                                             method="kronecker")),
             "net": CatalogEntry("net", 2, "refuted net", net,
                                 Expected(generic_rank=4, constant=False,
                                          method="groebner"))}
    rows = catalog.reproduce_all(table=table)
    assert len(rows) == 6 and all(row.ok for row in rows)


def test_pencil_refutation_builds_no_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Form was built")

    A = _with_canonical(REGULAR_BLOCKS[3])
    A = A.congruence_transform(random_invertible(random.Random(7), A.order))
    monkeypatch.setattr(SkewPolyMatrix, "_form", refuse)
    c = certify_constant_rank(A)
    assert (c.generic_rank, c.constant, c.witness) == (6, False, (1, 1))
