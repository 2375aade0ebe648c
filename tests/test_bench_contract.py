"""What the benchmark harness in perfbench/ relies on in skewrank.

The traced run wraps the functions listed in perfbench/spans.py by name,
reads counts off their arguments and results, and a worker prints its
answers as strict JSON.  A change that renames or deletes a traced
function, changes the type a counted one returns, or puts a non-finite
float in an answer, fails here instead of breaking a benchmark run.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from skewrank import catalog
from skewrank.certify import certify_constant_rank
from skewrank.groebner import Ideal, buchberger
from skewrank.orbit import orbit_dimension
from skewrank.pencil import minimal_indices

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    targets = _load_spans().TARGETS
    assert targets
    for name, module, qualname, _ in targets:
        owner = importlib.import_module("skewrank." + module)
        for attr in qualname.split("."):
            assert hasattr(owner, attr), "%s: skewrank.%s has no %s" % (
                name, module, qualname)
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_worker_answers_are_strict_json():
    for name in ("M8", "pi1"):
        A = catalog.get(name).matrix
        answers = [orbit_dimension(A, seed=0).to_json(),
                   certify_constant_rank(A, seed=0).to_json()]
        if A.nvars == 2:
            answers.append(minimal_indices(A).to_json())
        for answer in answers:
            json.dumps(answer, allow_nan=False)


def test_count_hooks_read_real_results():
    spans = _load_spans()
    hooks = {name: count for name, _, _, count in spans.TARGETS}
    A = catalog.get("pi6").matrix
    pfs = A.sub_pfaffians(6)
    ideal = Ideal(A.vars, sorted({f for f in pfs if not f.is_zero()}, key=str))
    calls = [("skew.sub_pfaffians", (A, 6), pfs),
             ("groebner.buchberger", (ideal,), buchberger(ideal)),
             ("certify.certify_constant_rank", (A,), certify_constant_rank(A))]
    stats = {}
    for name, args, result in calls:
        stats[name] = spans._Stat()
        hooks[name](args, {}, result, stats[name])
    assert stats["skew.sub_pfaffians"]["terms_out"] > 0
    assert stats["groebner.buchberger"]["basis_out"] > 0
    assert stats["certify.certify_constant_rank"]["keys"] == {(A, 0)}
