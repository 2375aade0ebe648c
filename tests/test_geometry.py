import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from tests.conftest import (bordered_forms, constant_cases, evaluate, evaluate_at,
                            kernel_plane_at, plucker_tensor_at, quorum_splitting,
                            support_plane)

from skewrank import catalog, geometry, groebner, linalg, pencil
from skewrank.certify import certify_constant_rank, restrict_line
from skewrank.pencil import (KroneckerInvariants, minimal_indices,
                             pencil_invariants)
from skewrank.skew import SkewPolyMatrix, pfaffian

Q = Fraction


# -- projections --------------------------------------------------------


def test_project_reproduces_tangent_bundle_plane():
    tri = catalog.get("triangle3").matrix
    nine = tri.direct_sum(tri).direct_sum(tri)
    step = geometry.project(nine, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert step.valid
    assert step.certificate.generic_rank == 6
    assert step.result == catalog.get("pi6").matrix


def test_two_step_projection_reproduces_pi5():
    tri = catalog.get("triangle3").matrix
    rb = catalog.get("rowblock4").matrix
    ten = tri.direct_sum(tri).direct_sum(rb)
    s1 = geometry.project(ten, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
    assert s1.valid
    s2 = geometry.project(s1.result, [0, 0, 1, 1, 0, 0, 0, 1, 0])
    assert s2.valid
    assert s2.result == catalog.get("pi5").matrix


def test_projection_step_invariant():
    tri = catalog.get("triangle3").matrix
    nine = tri.direct_sum(tri).direct_sum(tri)
    M9 = catalog.get("M9").matrix
    for A, center in ((nine, [1, 0, 0, 0, 1, 0, 0, 0, 1]),
                      (M9, [0, 0, 0, 0, 1, 1, 0, 0, 0])):
        step = geometry.project(A, center)
        assert step.valid
        # the recorded basis change and result are consistent
        moved = A.congruence_transform(step.basis_change)
        rebuilt = {(i, j): f for (i, j), f in moved.upper_entries() if j < 8}
        assert rebuilt == dict(step.result.upper_entries())
        # the basis change sends the center into the last coordinate
        Pt = linalg.transpose(step.basis_change)
        image = linalg.mat_vec(Pt, list(step.center))
        assert image == [Q(0)] * 8 + [Q(1)]
    # the last step, M9's, keeps rank 6 and has the minimal indices of M8
    assert minimal_indices(step.result) == minimal_indices(catalog.get("M8").matrix)


def test_bad_center_is_rejected_with_witness():
    A = catalog.get("pi2").matrix
    C = evaluate_at(A, (1, 0, 0))
    col = next([C[i][j] for i in range(8)] for j in range(8)
               if any(C[i][j] for i in range(8)))
    step = geometry.project(A, col)
    assert step.valid is False
    assert step.certificate.witness is not None
    assert step.result.rank_at(step.certificate.witness) < 6


# -- kernel 2-plane map --------------------------------------------------


def test_kernel_plucker_requirements():
    with pytest.raises(ValueError):
        geometry.kernel_plucker(catalog.get("M7").matrix)    # odd order
    with pytest.raises(ValueError):
        geometry.kernel_plucker(catalog.get("M9").matrix)    # corank 3


def test_kernel_plucker_m8_is_28_binary_cubics():
    M8 = catalog.get("M8").matrix
    kp = geometry.kernel_plucker(M8)
    assert len(kp) == 28
    assert all(f.is_zero() or f.is_homogeneous(3) for f in kp.values())
    T = plucker_tensor_at(kp, 8, (1, 0))
    assert support_plane(T) == kernel_plane_at(M8, (1, 0))


def test_kernel_plucker_support_property(rng):
    for name in ("M8", "pi1", "pi6", "westwick"):
        A = catalog.get(name).matrix
        kp = geometry.kernel_plucker(A)
        checked = 0
        while checked < 20:
            p = tuple(Q(rng.randint(-6, 6)) for _ in range(A.nvars))
            if not any(p):
                continue
            checked += 1
            T = plucker_tensor_at(kp, A.order, p)
            assert linalg.bareiss_rank(T) == 2
            assert support_plane(T) == kernel_plane_at(A, p)


def test_rank2_4x4_plucker_is_support():
    from skewrank.skew import SkewPolyMatrix

    A = SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a", (0, 2): "b"})
    kp = geometry.kernel_plucker(A)
    T = plucker_tensor_at(kp, 4, (1, 2))
    assert support_plane(T) == kernel_plane_at(A, (1, 2))


def test_gauss_span_dims():
    assert geometry.gauss_span_dim(catalog.get("pi1").matrix) == 7
    assert geometry.gauss_span_dim(catalog.get("M8").matrix) == 4
    # independent point-sampling oracle fixes the tangent-bundle plane at
    # the complete cubic system (the Veronese bound is attained)
    assert geometry.gauss_span_dim(catalog.get("pi6").matrix) == 10


def test_gauss_span_veronese_bound():
    from math import comb

    for name in ("pi1", "pi2", "pi5", "schwarzenberger", "westwick"):
        A = catalog.get(name).matrix
        cert = certify_constant_rank(A)
        r = cert.generic_rank // 2
        d = A.nvars
        assert geometry.gauss_span_dim(A) <= comb(d - 1 + r, r)


def test_gauss_span_matches_point_sampling_oracle(rng):
    from itertools import combinations, combinations_with_replacement

    for name in ("pi2", "pi6", "schwarzenberger"):
        A = catalog.get(name).matrix
        pairs = list(combinations(range(A.order), 2))
        rows = []
        while len(rows) < 40:
            p = tuple(Q(rng.randint(-9, 9)) for _ in range(A.nvars))
            if not any(p):
                continue
            kb = linalg.nullspace(evaluate_at(A, p), ncols=A.order)
            if len(kb) != 2:
                continue
            w1, w2 = kb
            rows.append([w1[i] * w2[j] - w1[j] * w2[i] for (i, j) in pairs])
        assert linalg.bareiss_rank(rows) == geometry.gauss_span_dim(A)


# -- lines and jumping ----------------------------------------------------


def test_restrict_to_line_examples(rng):
    pi2 = catalog.get("pi2").matrix
    checked = 0
    while checked < 3:
        p = tuple(Q(rng.randint(-5, 5)) for _ in range(3))
        q = tuple(Q(rng.randint(-5, 5)) for _ in range(3))
        if linalg.bareiss_rank([list(p), list(q)]) != 2:
            continue
        checked += 1
        inv = geometry.splitting_on_line(pi2, p, q)
        assert inv.partition == (2, 1) and inv.padding == 0
    pi1 = catalog.get("pi1").matrix
    inv = geometry.splitting_on_line(pi1, (1, 0, 0), (0, 1, 0))
    assert inv.partition == (3,) and inv.padding == 1
    sw = catalog.get("schwarzenberger").matrix
    inv = geometry.splitting_on_line(sw, (1, 2, 0), (0, 1, 3))
    assert inv.partition == (2, 1)
    for p, q in [((1, 1, 1), (2, 2, 2)), ((0, 0, 0), (1, 0, 0)),
                 ((1, 1, 1), (Q(-1, 3), Q(-1, 3), Q(-1, 3)))]:
        for query in (geometry.splitting_on_line, restrict_line):
            with pytest.raises(ValueError,
                               match="^line needs two independent points$"):
                query(pi2, p, q)


def test_splitting_scans_need_two_parameters():
    # a space of one parameter has no line
    A = SkewPolyMatrix(4, ("a",), {(0, 1): "a", (2, 3): "a"})
    with pytest.raises(ValueError):
        geometry.generic_splitting(A)
    with pytest.raises(ValueError):
        geometry.jumping_scan(A, budget=5)


def test_splitting_rejects_lines_through_the_drop_locus():
    # rank 4 off a = 0 and b = 0, so every line meets the drop locus
    net = SkewPolyMatrix(4, ("a", "b", "c"), {(0, 1): "a", (2, 3): "b"})
    for p, q in [((1, 2, 3), (2, -1, 5)), ((0, 1, 0), (0, 0, 1))]:
        with pytest.raises(ValueError):
            geometry.splitting_on_line(net, p, q)
    # generic rank 6, but rank 4 at every point of the line a = 0
    bordered = SkewPolyMatrix(6, ("a", "b", "c"), {
        (0, 2): "b", (0, 3): "c", (1, 3): "b", (1, 4): "c",
        (0, 5): "a", (2, 5): "a", (4, 5): "a"})
    with pytest.raises(ValueError):
        geometry.splitting_on_line(bordered, (0, 1, 0), (0, 0, 1))


def test_line_span_points():
    p, q = geometry.line_span_points((1, 2, 3))
    for v in (p, q):
        assert sum(Q(x) * Q(y) for x, y in zip((1, 2, 3), v)) == 0
    assert linalg.bareiss_rank([list(p), list(q)]) == 2
    assert (p, q) == ((2, -1, 0), (3, 0, -1))
    # rational and scaled duals give the same integer points
    assert geometry.line_span_points((Q(-1, 2), -1, Q(-3, 2))) == (p, q)
    assert all(type(x) is int for x in p + q)


_PLANES = ("pi1", "pi2", "pi3", "pi4", "pi5", "pi6", "schwarzenberger",
           "dk_steiner")
_SPLIT_03 = KroneckerInvariants(6, (3,), 1)


def _forced_equals_full(A, rank, pairs):
    """The rank sequence stopped by the proven constant rank gives the
    full sequence's invariants on the line through each pair p, q."""
    got = []
    for p, q in pairs:
        B1, B2 = A._combine(p), A._combine(q)
        full = pencil_invariants(B1, B2)
        assert pencil_invariants(B1, B2, rank) == full, (p, q)
        got.append(full)
    return got


def test_forced_splitting_matches_the_full_sequence(rng):
    from tests.conftest import random_invertible

    grid = [geometry.line_span_points(l) for l in geometry.grid_lines(100)]
    seen = set()
    for name in _PLANES:
        A = catalog.get(name).matrix
        rank = certify_constant_rank(A).generic_rank
        full = _forced_equals_full(A, rank, grid)
        assert [geometry.splitting_on_line(A, p, q) for p, q in grid] == full
        seen.update(full)
        # a congruence keeps the rank at every point and the invariants of
        # every line, so a moved copy's forced indices must be these
        moved = A.congruence_transform(random_invertible(rng, 8))
        assert [pencil_invariants(moved._combine(p), moved._combine(q), rank)
                for p, q in grid] == full
    assert seen == {KroneckerInvariants(6, (2, 1), 0), _SPLIT_03}
    # the known jumping lines, forced to (0, 3) by step 0 alone
    pi3_pencil = [(0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, -2), (0, 3, 4)]
    for name, lines in [("dk_steiner", catalog.DK_JUMPING_LINES),
                        ("pi4", [(0, 0, 1)]), ("pi5", [(1, 0, 0)]),
                        ("pi3", pi3_pencil)]:
        A = catalog.get(name).matrix
        pairs = [geometry.line_span_points(l) for l in lines]
        assert _forced_equals_full(A, 6, pairs) == [_SPLIT_03] * len(lines)
        assert all(geometry.splitting_on_line(A, p, q) == _SPLIT_03
                   for p, q in pairs)
    # seeded lines of every other entry with two or more parameters
    for name in catalog.names():
        A = catalog.get(name).matrix
        if name in _PLANES or A.nvars < 2:
            continue
        pairs = []
        while len(pairs) < 10:
            p = [rng.randint(-5, 5) for _ in range(A.nvars)]
            q = [rng.randint(-5, 5) for _ in range(A.nvars)]
            if linalg.bareiss_rank([p, q]) == 2:
                pairs.append((p, q))
        cert = certify_constant_rank(A)
        assert cert.constant is True
        assert _forced_equals_full(A, cert.generic_rank, pairs) == \
            [geometry.splitting_on_line(A, p, q) for p, q in pairs]


def test_point_memo_matches_fresh_pencils_on_every_grid_line(rng):
    """Through the point and kernel memos, every grid line up to 300 of
    each 8x8 plane and of a seeded dense congruence of it splits as the
    pencil of fresh `_combine` lists does, with and without the proven
    rank.  The spaces take turns on each line, so a memo that forgot
    which space a point belongs to would hand one space's matrix to the
    next."""
    from tests.conftest import random_invertible

    spaces = []
    for name in _PLANES:
        A = catalog.get(name).matrix
        spaces += [A, A.congruence_transform(random_invertible(rng, 8, -2, 2))]
    assert all(certify_constant_rank(A).generic_rank == 6 for A in spaces)
    grid = [geometry.line_span_points(l) for l in geometry.grid_lines(300)]
    assert len(grid) == 300
    geometry._point_matrix.cache_clear()
    got = {A: [] for A in spaces}
    for p, q in grid:
        for A in spaces:
            got[A].append(geometry.splitting_on_line(A, p, q))
    assert geometry._point_matrix.cache_info().hits > 0
    for A in spaces:
        want = _forced_equals_full(A, 6, grid)
        assert got[A] == want, A
    jumps = {A: frozenset(i for i, inv in enumerate(got[A]) if inv == _SPLIT_03)
             for A in spaces}
    # a congruence keeps each line's splitting; the planes differ
    assert all(jumps[a] == jumps[b] for a, b in zip(spaces[::2], spaces[1::2]))
    assert len(set(jumps.values())) > 2


def test_point_and_kernel_memos_stay_bounded(rng):
    A = catalog.get("pi1").matrix
    geometry._point_matrix.cache_clear()
    pencil._first_kernel.cache_clear()
    points = set()
    while len(points) < 2 * geometry._point_matrix.cache_info().maxsize:
        p, q = ([rng.randint(-9, 9) for _ in range(3)] for _ in range(2))
        if linalg.independent(p, q):
            geometry.splitting_on_line(A, p, q)
            points.update(tuple(linalg.primitive_vector(v)) for v in (p, q))
    for cache in (geometry._point_matrix, pencil._first_kernel):
        info = cache.cache_info()
        assert info.maxsize is not None
        assert 0 < info.currsize <= info.maxsize < len(points)


def test_line_queries_on_uncertified_spaces_run_the_full_sequence(monkeypatch):
    # a non-constant space passes no rank, so the line keeps its check
    net = SkewPolyMatrix(4, ("a", "b", "c"), {(0, 1): "a", (2, 3): "b"})
    ranks = []
    monkeypatch.setattr(geometry, "pencil_invariants",
                        lambda B1, B2, rank=None: ranks.append(rank)
                        or pencil_invariants(B1, B2, rank))
    with pytest.raises(ValueError):
        geometry.splitting_on_line(net, (1, 2, 3), (2, -1, 5))
    geometry.splitting_on_line(catalog.get("pi2").matrix, (1, 0, 0), (0, 1, 0))
    assert ranks == [None, 6]


def test_dk_jumping_lines():
    dk = catalog.get("dk_steiner").matrix
    assert geometry.verify_jumping_set(dk, catalog.DK_JUMPING_LINES)


def test_dk_degenerate_parameters_rejected():
    with pytest.raises(ValueError):
        catalog.dk_steiner((1, 2, 3), (1, 2, 3), (1, 4, 9))
    with pytest.raises(ValueError):
        catalog.dk_steiner((1, 0, 0), (1, 2, 3), (1, 4, 9))


def test_schwarzenberger_conic_of_jumping_lines():
    sw = catalog.get("schwarzenberger").matrix
    scan = geometry.jumping_scan(sw, budget=300)
    lines = [l for l, _ in scan.jumping_lines]
    assert len(lines) >= 6
    conic = geometry.fit_dual_conic(lines[:5])
    assert conic is not None
    assert all(geometry.conic_contains(conic, l) for l in lines)


def test_jumping_invariance_under_transforms(rng):
    from tests.conftest import random_invertible

    dk = catalog.get("dk_steiner").matrix
    line = (1, 1, 1)
    assert geometry.jumping_test(dk, line) is True
    P = random_invertible(rng, 8)
    assert geometry.jumping_test(dk.congruence_transform(P), line) is True
    # under a parameter change the line moves by the same substitution:
    # restricting A(L x) to the span of (p, q) equals restricting A(x)
    # to the span of (L p, L q)
    L = random_invertible(rng, 3)
    moved = dk.parameter_change(L)
    p, q = geometry.line_span_points(line)
    Lp = linalg.mat_vec(L, list(p))
    Lq = linalg.mat_vec(L, list(q))
    assert (geometry.splitting_on_line(moved, p, q)
            == geometry.splitting_on_line(dk, Lp, Lq))


# -- zero schemes ---------------------------------------------------------


def test_zero_scheme_degrees():
    expected = {"pi1": 0, "pi2": 2, "pi3": 3, "pi6": 3, "pi5": 4, "pi4": 5,
                "schwarzenberger": 6}
    for name, want in expected.items():
        A = catalog.get(name).matrix
        assert geometry.section_zero_scheme_degree(A) == want


def test_zero_scheme_westwick_curve_degree():
    w = catalog.get("westwick").matrix
    assert geometry.section_zero_scheme_degree(w) == 6


def test_zero_scheme_redraws_a_degenerate_covector(monkeypatch):
    # e_0 makes schwarzenberger's bordered section vanish and pi6's zero
    # scheme a curve; each redraws from the fixed stream and keeps its degree
    drawn = []
    real = geometry._bordered_pfaffians
    monkeypatch.setattr(geometry, "_bordered_pfaffians",
                        lambda A, xi: drawn.append(xi) or real(A, xi))
    for name, want in (("schwarzenberger", 6), ("pi6", 3)):
        A = catalog.get(name).matrix
        e0 = tuple(Q(int(i == 0)) for i in range(A.order))
        gens = real(A, e0)
        if name == "schwarzenberger":
            assert gens == []
        else:
            profile = groebner.hilbert_profile(groebner.Ideal._from_packed(A.vars, gens))
            assert profile.dimension == 1
        del drawn[:]
        assert geometry.section_zero_scheme_degree(A, xi=e0) == want
        assert drawn[0] == e0 and len(drawn) > 1


def test_zero_scheme_builds_one_basis_per_covector(monkeypatch):
    A = catalog.get("pi2").matrix
    certify_constant_rank(A)                   # cached; not counted below
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda ideal: calls.append(ideal) or real(ideal))
    assert geometry.section_zero_scheme_degree(A) == 2
    assert len(calls) == 1


def test_zero_scheme_stable_across_covectors(rng):
    for name in ("pi2", "pi4"):
        A = catalog.get(name).matrix
        base = geometry.section_zero_scheme_degree(A)
        for trial in range(2):
            xi = tuple(Q(rng.randint(-9, 9)) for _ in range(8))
            if not any(xi):
                continue
            assert geometry.section_zero_scheme_degree(A, xi=xi) == base


def test_bordered_pfaffians_match_numeric_bordering(rng):
    # Oracle: evaluate first, border the constant matrix by xi, expand
    # with pfaffian; independent of the symbolic expansion along the border.
    for name in catalog.names():
        entry = catalog.get(name)
        A = entry.matrix
        if entry.expected.constant is not True or A.nvars not in (3, 4):
            continue
        n = A.order
        size = certify_constant_rank(A).generic_rank + 2
        subs = [s + (n,) for s in combinations(range(n), size - 1)]
        points = [tuple(Q(rng.randint(-50, 50), rng.randint(1, 5))
                        for _ in range(A.nvars)) for _ in range(2)]
        for _ in range(3):
            xi = [Q(rng.randint(-9, 9)) for _ in range(n)]
            values = []
            for p in points:
                M = evaluate_at(A, p)
                B = [row + [x] for row, x in zip(M, xi)] + [[-x for x in xi] + [0]]
                values.append([pfaffian([[B[i][j] for j in s] for i in s])
                               for s in subs])
            nonzero = [v for v in zip(*values) if any(v)]
            gens = bordered_forms(A, xi)
            assert [tuple(evaluate(g, p) for p in points) for g in gens] == nonzero


def test_zero_scheme_rejects_zero_covector():
    with pytest.raises(ValueError):
        geometry.section_zero_scheme_degree(catalog.get("pi2").matrix,
                                            xi=(0,) * 8)


def test_zero_scheme_rejects_a_covector_of_the_wrong_length(monkeypatch):
    def refuse(*args):
        raise AssertionError("work before the covector check")

    monkeypatch.setattr(geometry, "verdict", refuse)
    pi6 = catalog.get("pi6").matrix
    for xi in ((1, 2), tuple(range(1, 12))):
        with pytest.raises(ValueError, match="one coordinate per matrix row"):
            geometry.section_zero_scheme_degree(pi6, xi=xi)


def test_zero_scheme_refuses_non_constant_spaces(monkeypatch):
    def refuse(*args):
        raise AssertionError("a section was computed")

    monkeypatch.setattr(geometry, "_bordered_pfaffians", refuse)
    net = SkewPolyMatrix(4, ("a", "b", "c"), {(0, 1): "a", (2, 3): "b"})
    for call in (lambda: geometry.section_zero_scheme_degree(net),
                 lambda: geometry.bundle_fingerprint(net)):
        with pytest.raises(ValueError, match="needs a constant-rank certificate"):
            call()


def test_fingerprint_bundle():
    fp = geometry.bundle_fingerprint(catalog.get("pi2").matrix, budget=40)
    assert fp.c2 == 2
    assert fp.generic_splitting == (2, 1)
    assert sum(fp.generic_splitting) == 3      # equals c1 of the dual kernel
    assert fp.jumping_lines == ()
    assert fp.gauss_span_dim == 10
    data = fp.to_json()
    assert data["c2"] == 2 and data["scanned"] == 40


def test_fingerprint_of_a_four_parameter_space():
    fp = geometry.bundle_fingerprint(catalog.get("westwick").matrix)
    assert (fp.generic_splitting, fp.generic_padding, fp.c2, fp.gauss_span_dim,
            fp.scanned, fp.jumping_lines) == ((2, 2), 0, 6, 35, 0, ())


# values recorded with the Fraction-nullspace classifier and the
# Fraction-normalised grid that the integer rank-sequence path replaced
_GRID_DIGEST = (13093, "d776963061fd260dcf234e3eca4ed2e2952a3ea0ee663bbc7f7614de5f5887fc")
_SW_JUMPS = ((0, 0, 1), (1, -1, 1), (1, 0, 0), (1, 1, 1),
             (1, -2, 4), (1, 2, 4), (4, -2, 1), (4, 2, 1))


def test_grid_lines_are_read_as_a_prefix():
    geometry._grid_shell.cache_clear()
    geometry._meets_two_grid_points.cache_clear()
    t0 = time.perf_counter()
    lines = geometry.grid_lines()
    assert time.perf_counter() - t0 < 1.5
    assert len(lines) == _GRID_DIGEST[0]
    for n in (1, 200, 300, 1000, 0, -5):
        assert geometry.grid_lines(n) == lines[:n]
    assert geometry.grid_lines(20000) == lines
    # a scan of 200 lines enumerates heights up to the one it reads
    geometry._grid_shell.cache_clear()
    geometry.grid_lines(200)
    height = max(max(map(abs, l)) for l in lines[:200])
    assert geometry._grid_shell.cache_info().currsize == height


def test_line_scan_outputs_are_pinned():
    lines = geometry.grid_lines()
    payload = json.dumps([list(l) for l in lines]).encode()
    assert (len(lines), hashlib.sha256(payload).hexdigest()) == _GRID_DIGEST
    split_21 = KroneckerInvariants(6, (2, 1), 0)
    split_3 = KroneckerInvariants(6, (3,), 1)
    for name, budget, generic, jumps in [
            ("pi1", 200, split_3, ()),
            ("pi6", 200, split_21, ()),
            ("schwarzenberger", 300, split_21,
             tuple((l, split_3) for l in _SW_JUMPS))]:
        scan = geometry.jumping_scan(catalog.get(name).matrix, budget=budget)
        assert (scan.generic, scan.scanned, scan.jumping_lines) == \
            (generic, budget, jumps)
    for name in catalog.EIGHT_BY_EIGHT_PLANES:
        want = split_3 if name == "pi1" else split_21
        assert geometry.generic_splitting(catalog.get(name).matrix) == want, name


def test_generic_splitting_agrees_with_the_quorum_oracle(monkeypatch):
    # 18 constant entries with d >= 3, each with three dense variants; the
    # proof draws nothing at random and reads at most three lines
    monkeypatch.setattr(geometry, "random", None)
    calls = []
    real = geometry.splitting_on_line
    monkeypatch.setattr(geometry, "splitting_on_line",
                        lambda *args: calls.append(args) or real(*args))
    cases = constant_cases()
    assert len(cases) == 72
    for label, A in cases:
        calls.clear()
        got = geometry.generic_splitting(A)
        assert len(calls) <= 3, label
        assert got == quorum_splitting(A), label


def test_a_direct_sum_is_bounded_block_by_block():
    # pi1 + pi2 splits generically as (3, 2, 1), not as the balanced
    # (2, 2, 2): every line of pi1 carries an index 3.  Its blocks are in
    # view, so the bound is the union of theirs and one line attains it
    planes = catalog.EIGHT_BY_EIGHT_PLANES          # 36 sums
    for a, b in combinations_with_replacement(planes, 2):
        A = catalog.get(a).matrix.direct_sum(catalog.get(b).matrix)
        assert geometry.generic_splitting(A) == quorum_splitting(A), (a, b)
    A = catalog.get("pi1").matrix.direct_sum(catalog.get("pi2").matrix)
    assert geometry.generic_splitting(A) == KroneckerInvariants(12, (3, 2, 1), 1)


def test_a_hidden_direct_sum_with_unbalanced_blocks_is_unknown():
    # a congruence hides the blocks of pi1 + pi2: the bound falls to the
    # balanced (2, 2, 2), which no line attains, so the answer is unknown
    # where the quorum voted (3, 2, 1)
    A = catalog.get("pi1").matrix.direct_sum(catalog.get("pi2").matrix)
    rng = random.Random("hidden")
    U = [[rng.randint(-1, 1) if i < j else int(i == j) for j in range(16)]
         for i in range(16)]
    hidden = A.congruence_transform(U)
    assert len(geometry._orthogonal_blocks(hidden)) == 1
    assert quorum_splitting(hidden) == KroneckerInvariants(12, (3, 2, 1), 1)
    with pytest.raises(geometry.BudgetExhausted,
                       match=r"lower bound \[2, 2, 2\] with padding 1: the budget "
                             "ran out or the generic splitting is not that bound"):
        geometry.generic_splitting(hidden)


def _k(inv, delta):
    """k_delta = sum(max(0, delta - eps + 1)) over the Kronecker indices."""
    indices = inv.partition + (0,) * inv.padding
    return sum(max(0, delta - eps + 1) for eps in indices)


def test_no_grid_line_splits_below_the_balanced_bound():
    # the lemma behind generic_splitting, on the first 200 grid lines of
    # the eight planes and their dense variants: beta = c zeros and r = 3
    # cut into m - c balanced parts, m = 2 and c the common kernel's size
    for label, A in constant_cases(catalog.EIGHT_BY_EIGHT_PLANES):
        stacked = [row for B in A.integer_basis() for row in B]
        c = len(linalg.nullspace(stacked, ncols=8))
        beta = KroneckerInvariants(6, (3,), 1) if c else KroneckerInvariants(6, (2, 1), 0)
        assert geometry.generic_splitting(A) == beta, label
        for line in geometry.grid_lines(200):
            inv = geometry.splitting_on_line(A, *geometry.line_span_points(line))
            assert all(_k(inv, delta) >= _k(beta, delta) for delta in range(5)), \
                (label, line, inv)


def test_generic_splitting_of_a_pencil_is_its_own():
    # a pencil is its only line, so its splitting need not be balanced
    for partition in ((3, 1), (2, 1), (4,)):
        A = pencil.canonical_form(partition).matrix
        assert geometry.generic_splitting(A) == minimal_indices(A)
    m8 = catalog.get("M8").matrix
    assert geometry.generic_splitting(m8) == minimal_indices(m8)


def test_generic_splitting_needs_a_constant_rank_certificate():
    net = SkewPolyMatrix(4, ("a", "b", "c"), {(0, 1): "a", (2, 3): "b"})
    with pytest.raises(ValueError, match="needs a constant-rank certificate"):
        geometry.generic_splitting(net)
