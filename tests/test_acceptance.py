"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every expected value here is exact (integers, partitions, flags),
there are no tolerances.  Runtime guards reflect the stated budgets.
"""

import random
import time
from fractions import Fraction

import pytest
from tests.conftest import (det, evaluate_at, kernel_plane_at, leading_term,
                            normal_form, plucker_tensor_at, random_invertible,
                            random_skew, support_plane)

from skewrank import catalog, geometry, linalg
from skewrank.certify import certify_constant_rank, verdict
from skewrank.forms import Form, binary_gcd, variables
from skewrank.groebner import Ideal, buchberger
from skewrank.orbit import orbit_dimension, rank_exact, tangent_rows
from skewrank.pencil import canonical_form, equivalent, minimal_indices
from skewrank.skew import pfaffian

Q = Fraction


def _verdict(n, label, failures):
    status = "PASS" if not failures else "FAIL (%s)" % "; ".join(failures)
    print("ACCEPTANCE %d [%s]: %s" % (n, label, status))
    if failures:
        pytest.fail("criterion %d: %s" % (n, "; ".join(failures)))


def test_criterion_1_certification():
    verdict.cache_clear()
    failures = []
    pencil_names = ("M7", "M8", "M9")
    plane_names = ("pi1", "pi2", "pi3", "pi4", "pi5", "pi6",
                   "schwarzenberger", "dk_steiner")
    for name in pencil_names:
        t0 = time.perf_counter()
        c = certify_constant_rank(catalog.get(name).matrix)
        dt = time.perf_counter() - t0
        if not (c.constant is True and c.generic_rank == 6
                and c.method == "kronecker"):
            failures.append("%s: %r" % (name, c))
        if dt >= 1.0:
            failures.append("%s took %.2fs (budget 1s)" % (name, dt))
    for name in plane_names:
        c = certify_constant_rank(catalog.get(name).matrix)
        method = "groebner" if name == "pi1" else "macaulay"
        if not (c.constant is True and c.generic_rank == 6
                and c.method == method):
            failures.append("%s: %r" % (name, c))
    t0 = time.perf_counter()
    c = certify_constant_rank(catalog.get("westwick").matrix)
    dt = time.perf_counter() - t0
    if not (c.constant is True and c.generic_rank == 8
            and c.method == "macaulay"):
        failures.append("westwick: %r" % (c,))
    if dt >= 60.0:
        failures.append("westwick took %.1fs (budget 60s)" % dt)
    _verdict(1, "constant-rank certification", failures)


def test_criterion_2_pencil_classification():
    failures = []
    expected = {"M7": (3,), "M8": (2, 1), "M9": (1, 1, 1),
                "rank4_5x5": (2,), "rank4_6x6": (1, 1)}
    for name, want in expected.items():
        got = minimal_indices(catalog.get(name).matrix).partition
        if got != want:
            failures.append("%s: %r != %r" % (name, got, want))

    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or rest[0] <= first:
                    yield (first,) + rest

    for r in range(1, 6):
        for p in partitions(r):
            if minimal_indices(canonical_form(p).matrix).partition != p:
                failures.append("round trip failed for %r" % (p,))

    rng = random.Random(2024)
    for name in expected:
        A = catalog.get(name).matrix
        for k in range(50):
            B = A.congruence_transform(random_invertible(rng, A.order))
            if k % 2:
                B = B.parameter_change(random_invertible(rng, 2))
            if not equivalent(A, B):
                failures.append("%s: transform %d broke equivalence" % (name, k))
                break
    _verdict(2, "pencil classification", failures)


def test_criterion_3_orbit_dimensions():
    failures = []
    expected = {"M7": 38, "M8": 47, "M7p": 45, "M7pp": 52, "M8p": 55,
                "M9": 56, "pi1": 54, "pi2": 60, "schwarzenberger": 52,
                "dk_steiner": 56, "pi3": 58, "pi4": 58, "pi5": 59, "pi6": 60}
    t0 = time.perf_counter()
    for name, want in expected.items():
        rep = orbit_dimension(catalog.get(name).matrix)
        if rep.orbit_dim != want:
            failures.append("%s: %d != %d" % (name, rep.orbit_dim, want))
        if name == "M7" and rep.tangent_rank != 39:
            failures.append("M7 tangent rank %d != 39" % rep.tangent_rank)
        cross = rank_exact(tangent_rows(catalog.get(name).matrix))
        if cross != rep.tangent_rank:
            failures.append("%s: tangent-row rank %d != stabilizer %d"
                            % (name, cross, rep.tangent_rank))
    dt = time.perf_counter() - t0
    if dt >= 300.0:
        failures.append("orbit suite took %.0fs (budget 300s)" % dt)
    _verdict(3, "orbit dimensions", failures)


def test_criterion_4_zero_scheme_degrees():
    failures = []
    expected = {"pi1": 0, "pi2": 2, "pi3": 3, "pi6": 3, "pi5": 4, "pi4": 5,
                "schwarzenberger": 6}
    rng = random.Random(99)
    for name, want in expected.items():
        A = catalog.get(name).matrix
        degs = [geometry.section_zero_scheme_degree(A)]
        while len(degs) < 3:
            xi = tuple(Q(rng.randint(-9, 9)) for _ in range(A.order))
            if not any(xi):
                continue
            degs.append(geometry.section_zero_scheme_degree(A, xi=xi))
        if set(degs) != {want}:
            failures.append("%s: %r != %d" % (name, degs, want))
    got = geometry.section_zero_scheme_degree(catalog.get("westwick").matrix)
    if got != 6:
        failures.append("westwick curve degree %d != 6" % got)
    _verdict(4, "zero-scheme degrees (c2)", failures)


def test_criterion_5_projection_pipeline():
    failures = []
    tri = catalog.get("triangle3").matrix
    rb = catalog.get("rowblock4").matrix

    nine = tri.direct_sum(tri).direct_sum(tri)
    step = geometry.project(nine, [1, 0, 0, 0, 1, 0, 0, 0, 1])
    if not (step.valid and step.certificate.generic_rank == 6):
        failures.append("tangent-plane projection did not re-certify")
    if step.result != catalog.get("pi6").matrix:
        failures.append("projection from the printed center is not pi6")

    ten = tri.direct_sum(tri).direct_sum(rb)
    s1 = geometry.project(ten, [1, 0, 0, 0, 1, 0, 0, 0, 0, 1])
    s2 = geometry.project(s1.result, [0, 0, 1, 1, 0, 0, 0, 1, 0]) \
        if s1.valid else None
    if not (s1.valid and s2 is not None and s2.valid):
        failures.append("two-step projection chain did not re-certify")
    elif s2.result != catalog.get("pi5").matrix:
        failures.append("two-step projection is not pi5")

    A = catalog.get("pi2").matrix
    C = evaluate_at(A, (1, 0, 0))
    col = next([C[i][j] for i in range(8)] for j in range(8)
               if any(C[i][j] for i in range(8)))
    bad = geometry.project(A, col)
    if bad.valid:
        failures.append("center inside an image plane was accepted")
    if bad.certificate.witness is None:
        failures.append("invalid center produced no witness")
    elif bad.result.rank_at(bad.certificate.witness) >= 6:
        failures.append("witness does not drop the rank")
    _verdict(5, "projection pipeline", failures)


def test_criterion_6_jumping_lines():
    failures = []
    dk = catalog.get("dk_steiner").matrix
    if not geometry.verify_jumping_set(dk, catalog.DK_JUMPING_LINES):
        failures.append("chosen-lines family: jumping set mismatch")

    sw = catalog.get("schwarzenberger").matrix
    scan = geometry.jumping_scan(sw, budget=300)
    lines = [l for l, _ in scan.jumping_lines]
    if len(lines) < 6:
        failures.append("found only %d Schwarzenberger jumping lines" % len(lines))
    else:
        conic = geometry.fit_dual_conic(lines[:5])
        if conic is None:
            failures.append("no unique dual conic through five jumping lines")
        elif not all(geometry.conic_contains(conic, l) for l in lines):
            failures.append("a found jumping line is off the fitted conic")

    for name in ("pi1", "pi2", "pi6"):
        scan = geometry.jumping_scan(catalog.get(name).matrix, budget=200)
        if scan.jumping_lines:
            failures.append("%s shows %d jumping lines in a 200-line scan"
                            % (name, len(scan.jumping_lines)))
    _verdict(6, "jumping lines", failures)


def test_criterion_7_property_suites():
    failures = []
    rng = random.Random(777)

    for n in (2, 4, 6, 8, 10):
        for _ in range(3):
            M = random_skew(rng, n)
            if pfaffian(M) ** 2 != det(M):
                failures.append("Pf^2 != det at order %d" % n)
        P = random_invertible(rng, n)
        M = random_skew(rng, n)
        Pt = linalg.transpose(P)
        if pfaffian(linalg.mat_mul(linalg.mat_mul(Pt, M), P)) \
                != det(P) * pfaffian(M):
            failures.append("Pf(P^T A P) != det(P) Pf(A) at order %d" % n)

    for name in ("M8", "pi3"):
        A = catalog.get(name).matrix
        base_cert = certify_constant_rank(A)
        base_orbit = orbit_dimension(A).orbit_dim
        P = random_invertible(rng, A.order)
        B = A.congruence_transform(P)
        c = certify_constant_rank(B)
        if (c.generic_rank, c.constant) != (base_cert.generic_rank, True):
            failures.append("%s: certificate not congruence-invariant" % name)
        if name == "M8" and minimal_indices(B).partition != (2, 1):
            failures.append("M8: partition not congruence-invariant")
        if orbit_dimension(B).orbit_dim != base_orbit:
            failures.append("%s: orbit dim not congruence-invariant" % name)

    gb = buchberger(Ideal(("a", "b", "c"),
                          ["a^2*b - c^3", "a*c - b^2", "b*c - a^2"]))
    basis = list(gb.basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            ei, ci = leading_term(basis[i])
            ej, cj = leading_term(basis[j])
            lcm = tuple(max(x, y) for x, y in zip(ei, ej))
            mi = Form(gb.ideal.vars,
                      {tuple(l - x for l, x in zip(lcm, ei)): 1 / ci})
            mj = Form(gb.ideal.vars,
                      {tuple(l - x for l, x in zip(lcm, ej)): 1 / cj})
            if not normal_form(mi * basis[i] - mj * basis[j], gb).is_zero():
                failures.append("an S-polynomial does not reduce to zero")

    a, b = variables(("a", "b"))
    g = binary_gcd([a ** 3 * b - a * b ** 3, a ** 2 * b ** 2 + a * b ** 3])
    for f in (a ** 3 * b - a * b ** 3, a ** 2 * b ** 2 + a * b ** 3):
        q, rem = _divide(f, g)
        if rem is not None and not rem.is_zero():
            failures.append("binary gcd does not divide an input")

    applicable = ("M8", "pi1", "pi2", "pi3", "pi4", "pi5", "pi6",
                  "schwarzenberger", "dk_steiner", "westwick")
    for name in applicable:
        A = catalog.get(name).matrix
        kp = geometry.kernel_plucker(A)
        checked = 0
        while checked < 100:
            p = tuple(Q(rng.randint(-9, 9)) for _ in range(A.nvars))
            if not any(p):
                continue
            checked += 1
            T = plucker_tensor_at(kp, A.order, p)
            if linalg.bareiss_rank(T) != 2:
                failures.append("%s: kernel tensor rank != 2 at %r" % (name, p))
                break
            if support_plane(T) != kernel_plane_at(A, p):
                failures.append("%s: support plane != kernel at %r" % (name, p))
                break

    # Stated span values (vector dimensions).  The kernel-map coordinates
    # of an 8x8 plane are cubics in a, b, c, so the span is at most 10.
    # pi6's kernel dual is the tangent bundle, whose Pluecker map
    # (Ax, Bx) -> det(x, Ax, Bx) reaches every cubic monomial
    # (A = e_i e_j^T, B = e_k e_l^T give +-x_j x_l x_m, m the index other
    # than i and k): the triple Veronese bound 10 is attained.
    for name, want in (("pi1", 7), ("pi6", 10), ("M8", 4)):
        got = geometry.gauss_span_dim(catalog.get(name).matrix)
        if got != want:
            failures.append("gauss_span_dim(%s) = %d, stated %d"
                            % (name, got, want))
    _verdict(7, "property suites", failures)


def _divide(f, g):
    ring = f.vars
    rem = f
    q = Form.zero(ring)
    ge, gc = leading_term(g)
    while not rem.is_zero():
        fe, fc = leading_term(rem)
        de = tuple(x - y for x, y in zip(fe, ge))
        if any(x < 0 for x in de):
            return None, rem
        t = Form(ring, {de: fc / gc})
        q = q + t
        rem = rem - t * g
    return q, rem


def test_criterion_8_no_fourth_generator():
    # Sampling cannot prove the nonexistence theorem; this suite checks
    # consistency with it: every seeded extension attempt must fail.
    failures = []
    results = catalog.random_extension_attempts(attempts=20, seed=0)
    if not results:
        failures.append("no well-formed extension attempts generated")
    for name, cert in results:
        if cert.constant is not False:
            failures.append("an extension of %s certified constant rank" % name)
    print("ACCEPTANCE 8 note: %d seeded attempts, all refuted; consistency "
          "check only, not a proof of nonexistence" % len(results))
    _verdict(8, "no 4-dimensional extension", failures)
