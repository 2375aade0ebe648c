import json
import time

import pytest

from skewrank import catalog, geometry
from skewrank.certify import _certify_cached, sampled_probe
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

    code, out = run(capsys, ["certify", "--sampled", "25", str(p)])
    assert code == 3            # the probe finds a drop on this input
    code, out = run(capsys, ["certify", "--sampled", "25",
                             write_matrix(tmp_path, "M7")])
    assert code == 4            # sampling never certifies
    assert json.loads(out)["constant"] is None


def test_certify_reads_a_huge_linear_witness_at_once(tmp_path, capsys):
    p = tmp_path / "far.json"
    p.write_text(SkewPolyMatrix(2, ("a", "b"),
                                {(0, 1): "a - 1000000000000000000000007*b"}).dumps())
    _certify_cached.cache_clear()
    t0 = time.perf_counter()
    code, out = run(capsys, ["certify", str(p)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3
    assert json.loads(out)["witness"] == ["1000000000000000000000007", "1"]


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
    code, out = run(capsys, ["--seed", "3", "orbit-dim",
                             write_matrix(tmp_path, "M7")])
    assert code == 0
    assert json.loads(out)["seed"] == 3
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
    C = A.evaluate_at((1, 0, 0))
    col = next([C[i][j] for i in range(8)] for j in range(8)
               if any(C[i][j] for i in range(8)))
    p2 = tmp_path / "pi2.json"
    p2.write_text(A.dumps())
    code, out = run(capsys, ["project", str(p2),
                             "--center", ",".join(str(x) for x in col)])
    assert code == 3
    assert json.loads(out)["valid"] is False


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
])
def test_malformed_matrix_json_is_a_usage_error(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    assert main(["certify", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["reproduce", "--name", "pi1", "--budget", "0"],
    ["reproduce", "--section", "4", "--budget", "0"],
    ["fingerprint", "--budget", "-3", "MATRIX"],
    ["certify", "--sampled", "-5", "MATRIX"],
    ["certify", "--sampled", "0", "MATRIX"],
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
                 lambda: geometry.bundle_fingerprint(m8, budget=0),
                 lambda: catalog.reproduce_all(names_filter={"pi1"}, budget=-3),
                 lambda: sampled_probe(m8, n_points=0)):
        with pytest.raises(ValueError, match="at least 1"):
            call()
