import hashlib
from fractions import Fraction

import pytest
from tests.conftest import random_invertible

from skewrank import catalog
from skewrank.forms import Form, variables
from skewrank.groebner import (Ideal, WrongDimension, buchberger,
                               hilbert_profile, is_projectively_empty,
                               normal_form, projective_degree)

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


def test_s_polynomials_of_basis_reduce_to_zero():
    for gens in (["a^2 - b^2", "a*b - b^2"],
                 ["a*b + b^2", "a^2"],
                 ["a^2*b - c^3", "a*c - b^2", "b*c - a^2"]):
        ring = ABC if any("c" in g for g in gens) else AB
        gb = buchberger(Ideal(ring, gens))
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ei, ci = basis[i].leading_term()
                ej, cj = basis[j].leading_term()
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
    from skewrank.geometry import _bordered_pfaffians, default_covector

    dk = catalog.get("dk_steiner").matrix
    w = catalog.get("westwick").matrix
    ideals = [
        Ideal(dk.vars, sorted({f for f in dk.sub_pfaffians(6)
                               if not f.is_zero()}, key=str)),
        Ideal(w.vars, sorted({str(f): f for f in
                              _bordered_pfaffians(w, default_covector(10))}
                             .values(), key=str)),
    ]
    for ideal in ideals:
        gb = buchberger(ideal)
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ei, ci = basis[i].leading_term()
                ej, cj = basis[j].leading_term()
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
    from skewrank.geometry import _bordered_pfaffians, default_covector

    w = catalog.get("westwick").matrix
    dk = catalog.get("dk_steiner").matrix
    cases = [
        ({f for f in w.sub_pfaffians(8) if not f.is_zero()}, w.vars,
         35, "5673142640001abc", (0, 0)),
        (set(_bordered_pfaffians(w, default_covector(10))), w.vars,
         12, "f9a02dacf304ba1d", (1, 6)),
        ({f for f in dk.sub_pfaffians(6) if not f.is_zero()}, dk.vars,
         10, "cb5ec8e996768e3f", (0, 0)),
    ]
    for gens, vars, size, digest, (dim, degree) in cases:
        gb = buchberger(Ideal(vars, sorted(gens, key=str)))
        text = "\n".join(str(g) for g in gb.basis)
        assert len(gb.basis) == size
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        prof = hilbert_profile(gb)
        assert (prof.dimension, prof.degree) == (dim, degree)
