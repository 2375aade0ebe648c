import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from tests.conftest import FORM_TOKENS, evaluate_at, random_invertible

from skewrank import catalog, geometry
from skewrank.certify import verdict
from skewrank.cli import main
from skewrank.skew import SkewPolyMatrix


def write_matrix(tmp_path, name):
    path = tmp_path / ("%s.json" % name)
    path.write_text(catalog.get(name).matrix.dumps())
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_a_reader_that_stops_early_keeps_the_exit_code(tmp_path):
    """`skewrank ... | head -c 1`: a closed standard output is not a usage
    error, and nothing but an unknown answer's reason is reported on
    standard error."""
    split = tmp_path / "split.json"
    split.write_text(SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a", (2, 3): "b"}).dumps())
    line = tmp_path / "line.json"           # a line asked for as a point
    line.write_text(json.dumps({"vars": ["a", "b", "c"], "generators": ["a"]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    unknown = "scheme has projective dimension 1, not 0\n"
    for argv, want in ((["canonical", "2,1"], (0, "")),
                       (["certify", str(split)], (3, "")),
                       (["ideal-degree", str(line)], (4, unknown))):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "skewrank.cli"] + argv,
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == want, argv


def test_certify_exit_codes(tmp_path, capsys):
    code, out = run(capsys, ["certify", write_matrix(tmp_path, "M8")])
    assert code == 0
    data = json.loads(out)
    assert data["generic_rank"] == 6 and data["constant"] is True
    assert data["method"] == "kronecker"

    split = SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a", (2, 3): "b"})
    p = tmp_path / "split.json"
    p.write_text(split.dumps())
    code, out = run(capsys, ["certify", str(p)])
    assert code == 3
    assert json.loads(out)["witness"] == ["0", "1"]


def test_certify_json_is_a_proof(tmp_path, capsys):
    # no "unknown" certificate: constant is a bool, with one key set
    split = SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a", (2, 3): "b"})
    p = tmp_path / "split.json"
    p.write_text(split.dumps())
    paths = [write_matrix(tmp_path, name) for name in catalog.names()] + [str(p)]
    for path in paths:
        code, out = run(capsys, ["certify", path])
        data = json.loads(out)
        assert set(data) == {"constant", "generic_rank", "method", "witness"}
        assert isinstance(data["constant"], bool)
        assert code == (0 if data["constant"] else 3)
    assert code == 3 and data["witness"] is not None


def test_certify_has_no_sampling_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--sampled", "5", write_matrix(tmp_path, "M8")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_seed_is_not_an_option(tmp_path, capsys):
    # every answer is a function of the input alone: no option picks a
    # pseudo-random stream, and no answer echoes one
    path = write_matrix(tmp_path, "pi2")
    for argv in (["--seed", "1", "certify", path], ["certify", "--seed", "1", path],
                 ["certify", path, "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.count("error:") == 1, argv
        assert "Traceback" not in captured.err
    net = tmp_path / "net.json"
    net.write_text(SkewPolyMatrix(4, ("a", "b", "c"), {
        (0, 1): "a + b + c", (2, 3): "a + 2*b + 3*c"}).dumps())
    for argv, want in ((["certify", path], 0), (["certify", str(net)], 3),
                       (["orbit-dim", path], 0),
                       (["fingerprint", "--budget", "10", path], 0),
                       (["reproduce", "--name", "rank2_3x3"], 0),
                       (["reproduce", "--name", "rank2_3x3", "--table"], 0)):
        code, out = run(capsys, argv)
        assert code == want and "seed" not in out, argv


def test_certify_reads_a_huge_linear_witness_at_once(tmp_path, capsys):
    p = tmp_path / "far.json"
    p.write_text(SkewPolyMatrix(2, ("a", "b"),
                                {(0, 1): "a - 1000000000000000000000007*b"}).dumps())
    verdict.cache_clear()
    t0 = time.perf_counter()
    code, out = run(capsys, ["certify", str(p)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert json.loads(out)["witness"] == ["1000000000000000000000007", "1"]


def test_certify_answers_a_generic_matrix_with_many_variables(tmp_path, capsys):
    # 28 variables: too many for Kronecker-packed Pfaffians
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    vars = ["x%d_%d" % ij for ij in pairs]
    p = tmp_path / "generic8.json"
    p.write_text(SkewPolyMatrix(8, vars, dict(zip(pairs, vars))).dumps())
    t0 = time.perf_counter()
    code, out = run(capsys, ["certify", str(p)])
    assert time.perf_counter() - t0 < 5
    data = json.loads(out)
    assert code == 3 and (data["generic_rank"], data["constant"]) == (8, False)


def test_certify_rejects_a_zero_pencil(tmp_path, capsys):
    p = tmp_path / "zero.json"
    p.write_text(SkewPolyMatrix.zero(4, ("a", "b")).dumps())
    assert main(["certify", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_classify_and_canonical(tmp_path, capsys):
    code, out = run(capsys, ["classify", write_matrix(tmp_path, "M8")])
    assert code == 0
    assert json.loads(out) == {"rank": 6, "partition": [2, 1], "padding": 0}
    code, out = run(capsys, ["canonical", "2,1"])
    assert code == 0
    assert SkewPolyMatrix.from_json(json.loads(out)) == catalog.get("M8").matrix


def test_classify_rejects_non_constant_pencils_and_nets(tmp_path, capsys):
    split = tmp_path / "split.json"
    split.write_text(SkewPolyMatrix(4, ("a", "b"),
                                    {(0, 1): "a", (2, 3): "b"}).dumps())
    for path in (str(split), write_matrix(tmp_path, "pi1")):
        assert main(["classify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_orbit_dim(tmp_path, capsys):
    code, out = run(capsys, ["orbit-dim", write_matrix(tmp_path, "M7")])
    assert code == 0
    data = json.loads(out)
    assert data["tangent_rank"] == 39 and data["orbit_dim"] == 38
    assert "dense_check" not in data
    assert "seed" not in data
    with pytest.raises(SystemExit) as exc:
        main(["orbit-dim", "--exact", write_matrix(tmp_path, "M7")])
    assert exc.value.code == 2


def test_project(tmp_path, capsys):
    tri = catalog.get("triangle3").matrix
    nine = tri.direct_sum(tri).direct_sum(tri)
    p = tmp_path / "nine.json"
    p.write_text(nine.dumps())
    code, out = run(capsys, ["project", str(p),
                             "--center", "1,0,0,0,1,0,0,0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert SkewPolyMatrix.from_json(data["result"]) == catalog.get("pi6").matrix

    A = catalog.get("pi2").matrix
    C = evaluate_at(A, (1, 0, 0))
    col = next([C[i][j] for i in range(8)] for j in range(8)
               if any(C[i][j] for i in range(8)))
    p2 = tmp_path / "pi2.json"
    p2.write_text(A.dumps())
    code, out = run(capsys, ["project", str(p2),
                             "--center", ",".join(str(x) for x in col)])
    assert code == 3
    assert json.loads(out)["valid"] is False


def test_a_negative_first_center_coordinate_may_follow_a_space(
        tmp_path, capsys, monkeypatch):
    # argparse takes a separate value that starts with '-' for an option
    pi6 = write_matrix(tmp_path, "pi6")
    center = "-1,0,0,0,0,0,0,1"
    joined = run(capsys, ["project", pi6, "--center=" + center])
    assert joined[0] == 3 and json.loads(joined[1])["center"][0] == "1"
    assert run(capsys, ["project", pi6, "--center", center]) == joined
    assert run(capsys, ["project", "--center", center, pi6]) == joined
    # ... under every abbreviation argparse accepts, in both spellings
    for option in ("--c", "--ce", "--cen", "--cent", "--cente"):
        assert run(capsys, ["project", pi6, option + "=" + center]) == joined
        assert run(capsys, ["project", pi6, option, center]) == joined
    monkeypatch.setattr(sys, "argv", ["skewrank", "project", pi6,
                                      "--center", center])
    assert run(capsys, None) == joined
    # the valid projection of test_project, from the same center negated
    tri = catalog.get("triangle3").matrix
    nine = tmp_path / "nine.json"
    nine.write_text(tri.direct_sum(tri).direct_sum(tri).dumps())
    code, out = run(capsys, ["project", str(nine),
                             "--center", "-1,0,0,0,-1,0,0,0,-1"])
    assert code == 0 and json.loads(out)["valid"] is True
    # a missing value is still argparse's usage error
    with pytest.raises(SystemExit) as exc:
        main(["project", pi6, "--center"])
    assert exc.value.code == 2


def test_gauss_and_fingerprint(tmp_path, capsys):
    code, out = run(capsys, ["gauss", write_matrix(tmp_path, "M8")])
    assert code == 0
    data = json.loads(out)
    assert data["span_dim"] == 4 and len(data["coordinates"]) == 28
    code, out = run(capsys, ["fingerprint", "--budget", "25",
                             write_matrix(tmp_path, "pi2")])
    assert code == 0
    data = json.loads(out)
    assert data["c2"] == 2 and data["generic_splitting"] == [2, 1]


EIGHT_PLANES = ("dk_steiner", "pi1", "pi2", "pi3", "pi4", "pi5", "pi6",
                "schwarzenberger")


def _pinned_answers(tmp_path, capsys, command, options=([],), lift=None):
    """(count, sha256) of the canonical JSON of [exit code, answer] of the
    command, once per options list, on each 8x8 rank-6 plane and on a
    seeded dense congruence U^T A U of it, U unit upper triangular, each
    first passed through lift(name, M) when a lift is given."""
    answers = []
    for name in EIGHT_PLANES:
        A = catalog.get(name).matrix
        r = random.Random(name)
        U = [[r.randint(-2, 2) if i < j else int(i == j) for j in range(8)]
             for i in range(8)]
        for M in (A, A.congruence_transform(U)):
            if lift is not None:
                M = lift(name, M)
            path = tmp_path / "plane.json"
            path.write_text(M.dumps())
            for opts in options:
                code, out = run(capsys, [command, str(path)] + opts)
                answers.append([code, json.loads(out)])
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return len(answers), hashlib.sha256(blob.encode()).hexdigest()


def test_gauss_outputs_are_pinned(tmp_path, capsys):
    assert _pinned_answers(tmp_path, capsys, "gauss") == (
        16, "e307af530d408676f5e8c4f4d5384dc75dfc44d2b37e7e03a4c1a80d919495ad")


def test_fingerprint_outputs_are_pinned(tmp_path, capsys):
    # recorded before pi1's and pi2's scans became proofs: the splitting,
    # jumping lines and scanned count of every plane stay as read
    assert _pinned_answers(tmp_path, capsys, "fingerprint") == (
        16, "ebfc197ecc42594933519969405bd88d7d0d3154a52c678a451c78c45343fff0")


def test_project_outputs_are_pinned(tmp_path, capsys):
    centers = ("1,0,0,0,0,0,0,0", "1,-1,2,-2,3,-3,4,-4", "-1/2,1,0,3,0,0,2/3,1")
    options = [["--center=" + c] for c in centers]
    assert _pinned_answers(tmp_path, capsys, "project", options) == (
        48, "120e049f6b1062268ced73c3c95a1460ce960af100c36ec0c367c295ed8fb4f2")


def _refutation_extension(name, M):
    """The plane M with a fourth variable whose coefficient matrix is a
    seeded integer skew matrix, read through a seeded parameter change:
    generic rank 8, and rank 6 on the moved hyperplane of the plane, so
    most witnesses are drawn points or lines of the search."""
    r = random.Random("extend:" + name)
    D = [[0] * 8 for _ in range(8)]
    for i, j in combinations(range(8), 2):
        D[i][j] = r.randint(-2, 2)
        D[j][i] = -D[i][j]
    ext = SkewPolyMatrix.from_coefficient_basis(
        M.vars + ("d",), M.coefficient_basis() + [D])
    return ext.parameter_change(random_invertible(r, 4, -9, 9))


def test_certify_refutations_are_pinned(tmp_path, capsys):
    # recorded with --seed 0 before the option went, its "seed" key
    # dropped: the fixed stream of the witness search is that seed's
    assert _pinned_answers(tmp_path, capsys, "certify",
                           lift=_refutation_extension) == (
        16, "81c6e80a49d208c4fde2224762a621ec25230a09a94cf2c0ee11f59c9dddec0d")


def test_an_unreached_splitting_bound_exits_unknown(tmp_path, capsys, monkeypatch):
    # with no line to read, the lower bound is not proven generic
    monkeypatch.setattr(geometry, "GENERIC_SAMPLES", 0)
    assert main(["fingerprint", write_matrix(tmp_path, "pi2")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("none of the first 0 secants attains the lower bound "
                            "[2, 1] with padding 0: the budget ran out or the "
                            "generic splitting is not that bound, so it is "
                            "unknown\n")


def test_fingerprint_of_a_non_constant_net_is_a_usage_error(tmp_path, capsys):
    # as for gauss: no covector is drawn on a space that is not certified
    net = tmp_path / "net.json"
    net.write_text(SkewPolyMatrix(4, ("a", "b", "c"),
                                  {(0, 1): "a", (2, 3): "b"}).dumps())
    for command in ("fingerprint", "gauss"):
        assert main([command, str(net)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: needs a constant-rank certificate\n"


def test_catalog_listing(capsys):
    code, out = run(capsys, ["catalog"])
    assert code == 0
    names = {e["name"] for e in json.loads(out)}
    assert {"M7", "pi6", "westwick"} <= names
    code, out = run(capsys, ["catalog", "westwick", "--matrix"])
    assert code == 0
    assert SkewPolyMatrix.from_json(json.loads(out)).order == 10
    code, out = run(capsys, ["catalog", "pi5"])
    data = json.loads(out)
    assert data["expected"]["c2"] == 4


def test_reproduce_subset(capsys):
    code, out = run(capsys, ["reproduce", "--name", "M7", "--name", "rank4_6x6",
                             "--table"])
    assert code == 0
    assert "0 failures" in out


@pytest.mark.parametrize("argv", [
    ["--name", "nosuch"],
    ["--name", "M7", "--name", "nosuch"],
    ["--section", "99", "--table"],
    ["--name", "M7", "--section", "99"],
])
def test_reproduce_rejects_empty_or_unknown_selections(capsys, argv):
    assert main(["reproduce"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_ideal_commands(tmp_path, capsys):
    ideal = {"vars": ["a", "b", "c"], "generators": ["a", "b", "c"]}
    p = tmp_path / "ideal.json"
    p.write_text(json.dumps(ideal))
    code, out = run(capsys, ["ideal-empty", str(p)])
    assert code == 0 and json.loads(out)["empty"] is True

    p2 = tmp_path / "pts.json"
    p2.write_text(json.dumps({"vars": ["a", "b", "c"],
                              "generators": ["a^2", "b"]}))
    code, out = run(capsys, ["ideal-degree", str(p2)])
    assert code == 0 and json.loads(out)["degree"] == 2

    p3 = tmp_path / "conic.json"
    p3.write_text(json.dumps({"vars": ["a", "b", "c"],
                              "generators": ["a*c - b^2"]}))
    code, out = run(capsys, ["ideal-degree", str(p3)])
    assert code == 4            # wrong dimension reported as unknown
    code, out = run(capsys, ["ideal-degree", "--proj-dim", "1", str(p3)])
    assert code == 0 and json.loads(out)["degree"] == 2


@pytest.mark.parametrize("command", ["certify", "ideal-empty", "project"])
def test_zero_denominators_are_usage_errors(tmp_path, capsys, command):
    if command == "certify":
        p = tmp_path / "matrix.json"
        p.write_text(json.dumps({"order": 2, "vars": ["a", "b"], "upper": [
            {"i": 0, "j": 1, "form": "1/0*a"}]}))
        argv = [command, str(p)]
    elif command == "ideal-empty":
        p = tmp_path / "ideal.json"
        p.write_text(json.dumps({"vars": ["a", "b"], "generators": ["1/0*a"]}))
        argv = [command, str(p)]
    else:
        argv = [command, write_matrix(tmp_path, "pi1"),
                "--center", "1,0,0,0,0,0,1/0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("center", ["1e5,0,0,0,0,0,0,1", "1,,0,0,0,0,0,1",
                                    "1.5,0,0,0,0,0,0,1", "1,0,0,0,0,0,0,1,",
                                    "1e1000000,0,0,0,0,0,0,1",
                                    "1+1,0,0,0,0,0,0,1", "1,1/2-1/2,0,0,0,0,0,1",
                                    "1,-1-1,0,0,0,0,0,1", "1,0,0,0,0,0,0,+1-0"])
def test_a_center_coordinate_is_an_integer_or_a_fraction(tmp_path, capsys, center):
    # 1e1000000 once built a 3.3-million-bit integer before any check,
    # and a sum such as 1+1 was read as its value
    path = write_matrix(tmp_path, "pi6")
    start = time.perf_counter()
    assert main(["project", path, "--center", center]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_usage_errors(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [
    '{"order": 4, "vars": ["a", "b"], "upper": 5}',
    '{"order": 4, "vars": 3, "upper": []}',
    '{"order": 4, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": 7}]}',
    '[1, 2]',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a"}, '
    '{"i": 0, "j": 1, "form": "b"}]}',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a+^2"}]}',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a^^2"}]}',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a^*2"}]}',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a^4/2"}]}',
    # once read as the linear a + b
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a^3/3 + b"}]}',
    # once read as a - b, -a and a: a sign with no term after it
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a - - b"}]}',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "- - a"}]}',
    '{"order": 2, "vars": ["a", "b"], "upper": [{"i": 0, "j": 1, "form": "a+"}]}',
])
def test_malformed_matrix_json_is_a_usage_error(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["certify", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_caret_after_a_sign_in_an_ideal_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "ideal.json"
    p.write_text(json.dumps({"vars": ["a", "b"], "generators": ["a-^2"]}))
    assert main(["ideal-empty", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: misplaced '^' in 'a-^2'\n"


def test_a_malformed_exponent_in_an_ideal_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "ideal.json"
    p.write_text(json.dumps({"vars": ["a", "b"], "generators": ["b^2", "a^^2"]}))
    assert main(["ideal-empty", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected exponent in 'a^^2'\n"


# Whole linear forms, so that some inputs get past the parse, and strings
# over the parser's alphabet; ring lists may be empty or repeat a name.
entry_texts = st.one_of(
    st.sampled_from(["a", "b", "c", "0", "a + b", "2*a - 3/2*c", "a*b", "b^2"]),
    st.lists(st.sampled_from(FORM_TOKENS), max_size=6).map("".join))
ring_names = st.one_of(st.sampled_from([["a", "b"], ["a", "b", "c"]]),
                       st.lists(st.sampled_from(["a", "b", "c"]), max_size=3))


@st.composite
def matrix_json(draw):
    """Matrix JSON of order 1-6 whose positions are mostly, not always, in
    range.  The order stays small: building a matrix allocates order^2
    cells per variable before any check can refuse it, and no work budget
    bounds the order yet, so an order like 10^6 would exhaust memory
    rather than exit."""
    order = draw(st.integers(1, 6))
    upper = []
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(-1, order - 1))
        upper.append({"i": i, "j": draw(st.integers(i, order)),
                      "form": draw(entry_texts)})
    return {"order": order, "vars": draw(ring_names), "upper": upper}


ideal_json = st.fixed_dictionaries({
    "vars": ring_names, "generators": st.lists(entry_texts, max_size=3)})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(["certify", "classify", "orbit-dim", "gauss"]),
              matrix_json()),
    st.tuples(st.sampled_from(["ideal-empty", "ideal-degree"]), ideal_json)))
def test_json_inputs_end_in_a_documented_exit_code(case):
    command, obj = case
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(obj))
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, "-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("argv", [
    ["fingerprint", "--budget", "0", "MATRIX"],
    ["fingerprint", "--budget=-1", "MATRIX"],
    ["fingerprint", "--budget", "-3", "MATRIX"],
])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    argv = [write_matrix(tmp_path, "pi1") if a == "MATRIX" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid positive_int value" in captured.err


def test_library_budgets_below_one_are_rejected_up_front():
    pi1, m8 = catalog.get("pi1").matrix, catalog.get("M8").matrix
    for call in (lambda: geometry.jumping_scan(pi1, budget=0),
                 lambda: geometry.bundle_fingerprint(m8, budget=0)):
        with pytest.raises(ValueError, match="at least 1"):
            call()
