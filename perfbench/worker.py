"""One cold repetition of a workload, in a fresh interpreter.

Reads a job from standard input, imports skewrank, parses every input
matrix, then runs the requests one at a time (closed loop, one client).
The reference loop that defines the benchmark's time unit is sampled
around and during every request (see ``refloop``).  Writes one JSON
object to standard output.

Job keys: ``requests`` (see ``inputs``), ``mode`` (``setup`` exits after
set-up, ``plain`` runs untraced, ``trace`` installs the wrappers from
``spans``) and ``src`` (the directory skewrank must be imported from).

Run by ``run.py``; by hand::

    python3 perfbench/run.py --workload orbit --seed 0 --seconds 40 --trace 0
"""

import gc
import json
import os
import resource
import sys
import time
import traceback

import refloop


def _load(job):
    """Import the program and parse the inputs: the measured set-up."""
    from skewrank import catalog, certify, geometry, orbit, pencil, skew

    src = os.path.realpath(job["src"])
    got = os.path.realpath(os.path.dirname(os.path.dirname(
        sys.modules["skewrank"].__file__)))
    if got != src:
        raise RuntimeError("skewrank imported from %s, not %s" % (got, src))
    calls = []
    for req in job["requests"]:
        seed = req["seed"]
        kind = req["kind"]
        if kind == "reproduce":
            calls.append(_reproduce(catalog, req["entry"], seed))
            continue
        A = skew.SkewPolyMatrix.from_json(req["matrix"])  # one per request
        if kind in ("certify", "refute"):
            calls.append(_certify(certify, A, seed))
        elif kind == "classify":
            calls.append(_classify(pencil, A))
        elif kind == "degree":
            calls.append(_degree(geometry, A, seed))
        elif kind == "orbit":
            calls.append(_orbit(orbit, A, seed))
        else:
            raise ValueError("unknown request kind %r" % kind)
    return calls


# Each request is a closure returning a JSON-able answer, as the CLI
# command of the same name would print it.  Functions are looked up on
# their module at call time, so a traced run sees its wrappers.

def _reproduce(catalog, name, seed):
    def call():
        rows = catalog.reproduce_all(names_filter={name}, seed=seed)
        return [{"check": r.check, "expected": _plain(r.expected),
                 "observed": _plain(r.observed), "ok": bool(r.ok)}
                for r in rows]
    return call


def _certify(certify, A, seed):
    return lambda: certify.certify_constant_rank(A, seed=seed).to_json()


def _classify(pencil, A):
    return lambda: pencil.minimal_indices(A).to_json()


def _degree(geometry, A, seed):
    return lambda: {"degree": geometry.section_zero_scheme_degree(A, seed=seed)}


def _orbit(orbit, A, seed):
    return lambda: orbit.orbit_dimension(A, seed=seed).to_json()


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, (bool, int, str)) or v is None:
        return v
    return str(v)


def _run(calls, tracer):
    """Closed loop over the requests while the reference loop is sampled."""
    sampler = refloop.Sampler(tracer.exclude if tracer is not None else None)
    timed = []
    sampler.start()
    for call in calls:
        t0 = time.perf_counter()
        try:
            answer, error = call(), None
        except Exception as exc:       # a failing request is a result
            answer = None
            error = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        timed.append((t0, t1, answer, error,
                      tracer.take() if tracer is not None else None))
    sampler.stop()
    out = []
    for t0, t1, answer, error, selfs in timed:
        unit = sampler.unit(t0, t1)
        wall = t1 - t0 - sampler.inside(t0, t1)
        if selfs is not None:
            tracer.add_ru(selfs, unit)
        out.append({"wall_s": wall, "ru": wall / unit, "ref_s": unit,
                    "answer": answer, "error": error})
    return out, sampler.durations


def main():
    job = json.load(sys.stdin)
    calls = _load(job)
    # A CLI process holds one parsed matrix, this one holds them all: keep
    # them out of the collector's way, so no request pays to scan them.
    gc.freeze()
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "ref_after_setup_s": refloop.measure()}
    if job["mode"] != "setup":
        tracer = None
        if job["mode"] == "trace":
            import spans
            tracer = spans.Tracer()
            tracer.install()
        result["requests"], result["refs"] = _run(calls, tracer)
        if tracer is not None:
            result["trace"] = tracer.report()
    import numpy
    kernels = sys.modules.get("skewrank._kernels")
    result["meta"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": getattr(kernels, "BACKEND", None),
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    try:
        main()
    except Exception:
        traceback.print_exc()
        sys.exit(1)
