import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from tests.conftest import (bordered_forms, leading_term, normal_form, pure_power_empty,
                            random_invertible)

from skewrank import catalog, forms, linalg
from skewrank.certify import certify_constant_rank
from skewrank.cli import main
from skewrank.forms import Form, variables
from skewrank.geometry import _bordered_pfaffians, default_covector
from skewrank.groebner import (HilbertProfile, Ideal, WrongDimension,
                               _hilbert_numerator, _minimal_monomials,
                               buchberger, hilbert_profile,
                               is_projectively_empty, projective_degree)

Q = Fraction
ABC = ("a", "b", "c")
AB = ("a", "b")


def basis_strs(gb):
    return sorted(str(g) for g in gb)


def test_buchberger_examples():
    a, b, c = variables(ABC)
    assert basis_strs(buchberger(Ideal(AB, ["a", "b"]))) == ["a", "b"]
    gb = buchberger(Ideal(AB, ["a^2 - b^2", "a - b"]))
    assert basis_strs(gb) == ["a - b"]
    gb = buchberger(Ideal(AB, ["a*b", "a^2"]))
    assert basis_strs(gb) == ["a*b", "a^2"]
    with pytest.raises(ValueError):
        buchberger(Ideal(AB, ["a + a^2"]))


def test_normal_form_examples():
    a, b, c = variables(ABC)
    gb = buchberger(Ideal(AB, ["a - b"]))
    assert normal_form(Form.variable(AB, "a") - Form.variable(AB, "b"), gb).is_zero()
    gb = buchberger(Ideal(ABC, ["a", "b"]))
    assert normal_form(c, gb) == c
    gbab = buchberger(Ideal(AB, ["a*b"]))
    f = variables(AB)[0] ** 2 * variables(AB)[1] ** 2
    assert normal_form(f, gbab).is_zero()


def test_normal_form_is_q_linear_and_idempotent():
    a, b, c = variables(ABC)
    f = 3 * a ** 2 * b - Q(7, 2) * b * c ** 2 + a * c * b
    # the second basis has non-unit integer leads, so reduction rescales
    for gens in ([a * b - c ** 2, b ** 2 - a * c],
                 [2 * a ** 2 - 3 * b * c, 3 * b ** 2 - 5 * a * c]):
        gb = buchberger(Ideal(ABC, gens))
        h = normal_form(f, gb)
        assert not h.is_zero()
        assert normal_form(f - h, gb).is_zero()       # f - NF(f) is a member
        assert normal_form(h, gb) == h
        assert normal_form(Q(5, 3) * f, gb) == Q(5, 3) * h


def test_normal_form_keeps_its_scale_through_long_reductions():
    # a^20 reduces in 20 steps by 2a - 3b, so its integer remainder is
    # rescaled and divided by its content on the way: the normal form
    # must still be (3/2)^20 b^20
    a, b = variables(AB)
    gb = buchberger(Ideal(AB, [2 * a - 3 * b]))
    assert normal_form(a ** 20, gb) == Q(3, 2) ** 20 * b ** 20
    assert normal_form(a ** 20 + Q(1, 7) * b ** 20, gb) == \
        (Q(3, 2) ** 20 + Q(1, 7)) * b ** 20


def test_s_polynomials_of_basis_reduce_to_zero():
    for gens in (["a^2 - b^2", "a*b - b^2"],
                 ["a*b + b^2", "a^2"],
                 ["a^2*b - c^3", "a*c - b^2", "b*c - a^2"]):
        ring = ABC if any("c" in g for g in gens) else AB
        gb = buchberger(Ideal(ring, gens))
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ei, ci = leading_term(basis[i])
                ej, cj = leading_term(basis[j])
                lcm = tuple(max(x, y) for x, y in zip(ei, ej))
                mi = Form(gb.ideal.vars, {tuple(l - x for l, x in zip(lcm, ei)): 1 / ci})
                mj = Form(gb.ideal.vars, {tuple(l - x for l, x in zip(lcm, ej)): 1 / cj})
                spoly = mi * basis[i] - mj * basis[j]
                assert normal_form(spoly, gb).is_zero()


def test_emptiness_examples():
    assert is_projectively_empty(Ideal(ABC, ["a", "b", "c"])) is True
    assert is_projectively_empty(Ideal(ABC, ["a", "b"])) is False
    assert is_projectively_empty(Ideal(ABC, [])) is False
    pi2 = catalog.get("pi2").matrix
    pfs = [f for f in pi2.sub_pfaffians(6) if not f.is_zero()]
    assert is_projectively_empty(Ideal(ABC, sorted(set(pfs), key=str))) is True


def test_emptiness_invariant_under_substitution(rng):
    a, b, c = variables(ABC)
    ideals = [Ideal(ABC, [a ** 2 + b ** 2 + c ** 2, a * b]),
              Ideal(ABC, [a, b ** 3]),
              Ideal(ABC, [a ** 2, b ** 2, c ** 2])]
    for ideal in ideals:
        want = is_projectively_empty(ideal)
        for _ in range(3):
            L = random_invertible(rng, 3)
            images = [L[i][0] * a + L[i][1] * b + L[i][2] * c for i in range(3)]
            moved = Ideal(ABC, [g.linear_substitute(images)
                                for g in ideal.generators])
            assert is_projectively_empty(moved) == want


def test_degree_examples_and_dimension_guard():
    assert projective_degree(Ideal(ABC, ["a^2", "b"])) == 2
    assert projective_degree(Ideal(ABC, ["a", "b"])) == 1
    conic = Ideal(ABC, ["a*c - b^2"])      # a curve: must be rejected in
    with pytest.raises(WrongDimension):    # the zero-dimensional mode
        projective_degree(conic, proj_dim=0)
    assert projective_degree(conic, proj_dim=1) == 2


def test_degree_invariant_under_substitution(rng):
    a, b, c = variables(ABC)
    ideal = Ideal(ABC, [a ** 2 - b * c, b ** 2 - a * c])
    want = projective_degree(ideal)
    for _ in range(3):
        L = random_invertible(rng, 3)
        images = [L[i][0] * a + L[i][1] * b + L[i][2] * c for i in range(3)]
        moved = Ideal(ABC, [g.linear_substitute(images) for g in ideal.generators])
        assert projective_degree(moved) == want


def test_vanishing_point_means_nonempty(rng):
    a, b, c = variables(ABC)
    for _ in range(5):
        p = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
        if not any(p):
            continue
        # forms vanishing at p: two random linear combinations of a basis
        # of the degree-1 forms vanishing at p, squared for variety
        lins = []
        for i in range(3):
            for j in range(i + 1, 3):
                v = [Q(0)] * 3
                v[i], v[j] = p[j], -p[i]
                if any(v):
                    lins.append(v[0] * a + v[1] * b + v[2] * c)
        ideal = Ideal(ABC, [lins[0] ** 2, lins[1] * lins[0], lins[-1] ** 2])
        assert is_projectively_empty(ideal) is False


def test_s_polynomials_reduce_on_workload_ideals():
    # the certification and zero-scheme ideals actually used downstream
    dk = catalog.get("dk_steiner").matrix
    w = catalog.get("westwick").matrix
    ideals = [
        Ideal(dk.vars, sorted({f for f in dk.sub_pfaffians(6)
                               if not f.is_zero()}, key=str)),
        Ideal(w.vars, sorted({str(f): f for f in
                              bordered_forms(w, default_covector(10))}
                             .values(), key=str)),
    ]
    for ideal in ideals:
        gb = buchberger(ideal)
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
                assert normal_form(mi * basis[i] - mj * basis[j], gb).is_zero()
        for g in ideal.generators:
            assert normal_form(g, gb).is_zero()


def test_reduced_basis_digests_on_workload_ideals():
    # A reduced basis is unique: these pin invariants, not an implementation.
    w = catalog.get("westwick").matrix
    dk = catalog.get("dk_steiner").matrix
    cases = [
        ({f for f in w.sub_pfaffians(8) if not f.is_zero()}, w.vars,
         35, "5673142640001abc", (-1, 0)),
        (set(bordered_forms(w, default_covector(10))), w.vars,
         12, "f9a02dacf304ba1d", (1, 6)),
        ({f for f in dk.sub_pfaffians(6) if not f.is_zero()}, dk.vars,
         10, "cb5ec8e996768e3f", (-1, 0)),
    ]
    for gens, vars, size, digest, (dim, degree) in cases:
        gb = buchberger(Ideal(vars, sorted(gens, key=str)))
        text = "\n".join(str(g) for g in gb.basis)
        assert len(gb.basis) == size
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        prof = hilbert_profile(gb)
        assert (prof.dimension, prof.degree) == (dim, degree)


# sha256 of the reduced bases and Hilbert profiles of the ideals below,
# recorded with Form generators in str order
PFAFFIAN_IDEAL_GATE = "2c124aff60841d874af8a0af7baeb0882eb625dbbebc1fc9c995a915efc800e7"


def _gate_ideals():
    """The rank-size sub-Pfaffian ideal and the bordered ideal at the
    default covector of every certified d in {3, 4} entry and of one
    seeded dense variant of each: an integer congruence composed with a
    rational parameter change.  Built as certification and the zero
    scheme build them, from the packed integer Pfaffians."""
    rng = random.Random("pfaffian-ideal-gate")
    for name in catalog.names():
        entry = catalog.get(name)
        A = entry.matrix
        if entry.expected.constant is not True or A.nvars not in (3, 4):
            continue
        P = random_invertible(rng, A.order, -2, 2)
        L = random_invertible(rng, A.nvars)
        L = [[x / rng.randint(1, 3) for x in row] for row in L]
        rank = entry.expected.generic_rank
        for M in (A, A.congruence_transform(P).parameter_change(L)):
            pfs = [p for p in map(M._pf, combinations(range(M.order), rank)) if p]
            yield Ideal._from_packed(M.vars, pfs)
            yield Ideal._from_packed(M.vars, _bordered_pfaffians(
                M, default_covector(M.order)))


def test_pfaffian_ideal_bases_are_pinned():
    h = hashlib.sha256()
    for ideal in _gate_ideals():
        gb = buchberger(ideal)
        h.update(("%s\n%r\n" % ("\n".join(str(g) for g in gb.basis),
                                hilbert_profile(gb))).encode())
    assert h.hexdigest() == PFAFFIAN_IDEAL_GATE


# (dimension, degree) of the bordered ideals of every certified d in {3, 4}
# entry, as the degree-window profile found them; its empty schemes
# (reported as (0, 0)) read (-1, 0).
WINDOW_PROFILES = {
    "conic5": (1, 2), "dk_steiner": (0, 6), "double_t8": (-1, 0),
    "mixed7": (-1, 0), "nullcorr6": (0, 2), "pi1": (-1, 0), "pi2": (0, 2),
    "pi3": (0, 3), "pi4": (0, 5), "pi5": (0, 4), "pi6": (0, 3),
    "rowblock4": (0, 1), "schwarzenberger": (0, 6), "split6": (0, 1),
    "steiner6": (0, 3), "tquot7": (-1, 0), "triangle3": (1, 1),
    "westwick": (1, 6),
}


def test_exact_series_agrees_with_the_window_on_degree_and_certify_ideals():
    # Per entry: the rank-size sub-Pfaffian ideal (empty: the rank is
    # constant) and the bordered ideals at the default and three seeded
    # covectors.
    seen = set()
    for name in catalog.names():
        entry = catalog.get(name)
        A = entry.matrix
        if entry.expected.constant is not True or A.nvars not in (3, 4):
            continue
        seen.add(name)
        rank = certify_constant_rank(A).generic_rank
        rng = random.Random("gate:" + name)
        xis = [default_covector(A.order)] + [
            tuple(Q(rng.randint(-9, 9)) for _ in range(A.order)) for _ in range(3)]
        cases = [([f for f in A.sub_pfaffians(rank) if not f.is_zero()], (-1, 0))]
        cases += [(bordered_forms(A, xi), WINDOW_PROFILES[name]) for xi in xis]
        for gens, want in cases:
            gb = buchberger(Ideal(A.vars, sorted(set(gens), key=str)))
            prof = hilbert_profile(gb)
            assert (prof.dimension, prof.degree) == want, name
            assert pure_power_empty(gb) == (prof.dimension == -1)
    assert seen == set(WINDOW_PROFILES)
    unit = buchberger(Ideal(ABC, ["a + b", "1"]))
    assert pure_power_empty(unit) is True
    assert hilbert_profile(unit) == HilbertProfile(-1, 0)


def test_exact_series_beyond_curves():
    surface = hilbert_profile(Ideal(("a", "b", "c", "d"), ["a*b - c*d"]))
    assert (surface.dimension, surface.degree) == (2, 2)
    x = tuple("x%d" % i for i in range(8))
    pair = hilbert_profile(Ideal(x, ["x0*x1"]))
    assert (pair.dimension, pair.degree) == (6, 2)
    plane = hilbert_profile(Ideal(ABC, []))
    assert (plane.dimension, plane.degree) == (2, 1)
    twisted = hilbert_profile(Ideal(("a", "b", "c", "d"),
                                    ["a*c - b^2", "b*d - c^2", "a*d - b*c"]))
    assert (twisted.dimension, twisted.degree) == (1, 3)


def test_ideal_degree_names_the_real_dimension(tmp_path, capsys):
    p = tmp_path / "quadric.json"
    p.write_text(json.dumps({"vars": ["a", "b", "c", "d"],
                             "generators": ["a*b - c*d"]}))
    assert main(["ideal-degree", "--proj-dim", "1", str(p)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "dimension 2" in captured.err


def test_text_ideals_build_no_form_and_integer_ones_no_fraction(tmp_path, capsys,
                                                                monkeypatch):
    cases = [(["ideal-empty"], ["a", "b", "c"], {"empty": True}),
             (["ideal-empty"], ["a^2 - b*c", "b^2 - a*c"], {"empty": False}),
             (["ideal-degree"], ["a^2 - b*c", "b^2 - a*c"], {"degree": 4, "proj_dim": 0}),
             (["ideal-degree"], ["a^3 - b^2*c", "b^3 - 2*c^2*a"], {"degree": 9, "proj_dim": 0}),
             (["ideal-degree", "--proj-dim", "1"], ["a*c - b^2"],
              {"degree": 2, "proj_dim": 1})]

    def refuse(*args):
        raise AssertionError("built a Form or a Fraction")
    for owner, name, value in ((Form, "__init__", refuse),
                               (Form, "_from_clean", classmethod(refuse)),
                               (forms, "Q", refuse), (linalg, "Q", refuse)):
        monkeypatch.setattr(owner, name, value)
    for i, (argv, gens, want) in enumerate(cases):
        p = tmp_path / ("ideal%d.json" % i)
        p.write_text(json.dumps({"vars": list(ABC), "generators": gens}))
        assert main(argv + [str(p)]) == 0
        assert json.loads(capsys.readouterr().out) == want
    monkeypatch.undo()
    # a Form words the error of a non-homogeneous generator
    with pytest.raises(ValueError, match=r"^non-homogeneous generator a\^2 \+ b$"):
        Ideal(ABC, ["b + a^2"])


def test_generators_are_integer_multiples_with_zeros_and_repeats_dropped():
    a, b, c = variables(ABC)
    ideal = Ideal(ABC, ["1/2*a - 1/3*b", "0", a - b, "a - b", 3 * a - 3 * b,
                        Form.zero(ABC), "-c", Q(1, 2) * a - Q(1, 3) * b])
    assert [str(g) for g in ideal.generators] == ["3*a - 2*b", "a - b", "3*a - 3*b", "-c"]
    assert buchberger(ideal).basis == buchberger(Ideal(ABC, ["a", "b", "c"])).basis
    # a packed ideal reads its generators off the same dicts
    A = catalog.get("pi6").matrix
    pfs = [p for p in map(A._pf, combinations(range(A.order), 6)) if p]
    gens = Ideal._from_packed(A.vars, pfs + pfs[::-1]).generators
    assert len(pfs) == 21 and len(gens) == 14
    assert gens == tuple(dict.fromkeys(f for f in A.sub_pfaffians(6) if f))
    assert Ideal(A.vars, [str(g) for g in gens]).generators == gens


def test_a_ring_with_repeated_names_is_refused(tmp_path, capsys):
    for gens in ([], ["a"]):
        with pytest.raises(ValueError, match="duplicate variable names"):
            Ideal(("a", "a"), gens)
    with pytest.raises(ValueError, match="duplicate variable names"):
        Ideal._from_packed(("a", "b", "a"), [])
    p = tmp_path / "ideal.json"
    p.write_text(json.dumps({"vars": ["a", "b", "a"], "generators": []}))
    assert main(["ideal-empty", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate variable names: ('a', 'b', 'a')\n"


def test_hilbert_numerator_counts_standard_monomials(rng):
    # oracle: count the degree-t monomials no generator divides
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = _minimal_monomials([tuple(rng.randint(0, 3) for _ in range(n))
                                   for _ in range(rng.randint(1, 5))])
        series = (_hilbert_numerator(gens) + [0] * 7)[:7]
        for _ in range(n):                      # divide by (1 - t)^n
            series = [sum(series[:i + 1]) for i in range(7)]
        for t in range(7):
            standard = sum(1 for m in product(range(t + 1), repeat=n)
                           if sum(m) == t and not any(
                               all(a <= b for a, b in zip(g, m)) for g in gens))
            assert series[t] == standard, (gens, t)
