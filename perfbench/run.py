"""Benchmark entry: seeded inputs, cold workers, checked answers, metrics.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout that has ``src/skewrank``.  It
builds the workload's inputs from the seed, then starts one fresh worker
process per repetition (one at a time, closed loop, one client), so the
per-instance Pfaffian memos and the certify and grid-line caches start
empty as they do for a CLI user.  It starts another repetition only while
the previous one predicts it still fits in ``--seconds``; at least one
always runs.  Extra set-up-only workers bring the set-up samples to seven.

Every answer is checked (see ``oracle``).  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Times are
in reference units (``ru``, see ``refloop``) except ``setup_s``.

Exit codes: 0 with a result (even an incorrect one), 2 when the program
is missing or a worker cannot run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

RUN_LIMIT_S = 170          # a run must end within 180 s
REF_NOMINAL_S = 0.0005     # seconds per reference loop on the nominal host
SETUP_SAMPLES = 7          # set-up is the median of at least this many starts
TAIL_BEYOND = 10           # the tail percentile keeps ten samples beyond it

sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import refloop  # noqa: E402


class WorkerFailed(RuntimeError):
    pass


def run_worker(requests, mode, deadline):
    """One cold worker; returns its report plus its set-up time, from just
    before the process starts to its first request.  ``setup_wall_s`` is
    in raw seconds; ``setup_s`` is rescaled to the nominal host speed by
    the reference loop measured just before and just after set-up."""
    job = json.dumps({"requests": requests, "mode": mode, "src": SRC}).encode()
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    ref_before = refloop.measure()
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=job, env=env,
                              cwd=ROOT, capture_output=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker passed the run deadline" % mode)
    if proc.returncode != 0:
        raise WorkerFailed("%s worker exited %d:\n%s" % (
            mode, proc.returncode, proc.stderr.decode(errors="replace")[-2000:]))
    report = json.loads(proc.stdout)
    wall = report["ready_monotonic"] - t0
    unit = (ref_before + report["ref_after_setup_s"]) / 2
    report["setup_wall_s"] = wall
    report["setup_s"] = wall / unit * REF_NOMINAL_S
    report["mode"] = mode
    return report


def repetitions(requests, modes, seconds, deadline):
    """Run groups of workers (one per mode) while the last group's
    duration predicts the next still fits in ``seconds``."""
    t0 = time.monotonic()
    out = []
    while True:
        start = time.monotonic()
        out.extend(run_worker(requests, mode, deadline) for mode in modes)
        now = time.monotonic()
        took = now - start
        if now - t0 + took > seconds or now + took > deadline:
            return out


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    n = len(values)
    k = n - TAIL_BEYOND
    if k < 1:
        raise ValueError("%d requests are too few for a tail percentile" % n)
    return sorted(values)[k - 1], 100.0 * k / n, n


def end_to_end(plain, setups):
    rus = [[q["ru"] for q in r["requests"]] for r in plain]
    tails = [tail(x) for x in rus]
    return {
        "setup_s": median([r["setup_s"] for r in setups]),
        "total_ru": median([sum(x) for x in rus]),
        "req_p50_ru": median([statistics.median(x) for x in rus]),
        "req_tail_ru": median([t[0] for t in tails]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }, tails[0]


def host_context(plain):
    return {
        "bench.ref_s": median([x for r in plain for x in r["refs"]]),
        "bench.wall_s": median([sum(q["wall_s"] for q in r["requests"])
                                for r in plain]),
    }


# Per-layer shares: metric -> (numerator, denominator), each a list of
# (traced function, count) pairs to sum.
SHARES = {
    "linalg.fraction_input_share": (
        [("linalg.nullspace", "fraction_inputs"),
         ("linalg.bareiss_rank", "fraction_inputs")],
        [("linalg.nullspace", "calls"), ("linalg.bareiss_rank", "calls")]),
    "certify.cache_hit_ratio": (
        [("certify.certify_constant_rank", "hits")],
        [("certify.certify_constant_rank", "calls")]),
    "certify.witness_found_share": (
        [("certify.certify_constant_rank", "witnessed")],
        [("certify.certify_constant_rank", "refutations")]),
    "orbit.modular_agree_share": (
        [("orbit.rank_exact", "modular_agree")],
        [("orbit.rank_exact", "calls")]),
}


def total_ru(reports):
    return median([sum(q["ru"] for q in r["requests"]) for r in reports])


def per_layer(requests, plain, traced, host, names, entries):
    """Per-layer metrics by name, and the names left out because a
    function they need is no longer there.  A share whose base is 0 (the
    workload never calls the function) reads 0."""
    funcs = {}
    for r in traced:
        for name, st in r["trace"]["functions"].items():
            funcs.setdefault(name, []).append(st)

    def stat(target, field):
        return median([st.get(field, 0) for st in funcs[target]])

    values = dict(host)
    values["trace.overhead"] = total_ru(traced) / total_ru(plain)
    entry_ru = {}
    for r in plain:
        for req, q in zip(requests, r["requests"]):
            if req["kind"] == "reproduce":
                entry_ru.setdefault(req["entry"], []).append(q["ru"])
    for name in entries:             # 0 on workloads that run no entries
        values["catalog.entry_ru." + name] = median(entry_ru.get(name, []))

    out, absent = {}, []
    for metric in names:
        if metric in values:
            out[metric] = values[metric]
        elif metric in SHARES:
            num, den = SHARES[metric]
            if all(t in funcs for t, _ in num + den):
                den = sum(stat(t, f) for t, f in den)
                out[metric] = sum(stat(t, f) for t, f in num) / den if den else 0.0
            else:
                absent.append(metric)
        elif metric.rsplit(".", 1)[0] in funcs:
            out[metric] = stat(*metric.rsplit(".", 1))
        else:
            absent.append(metric)
    return out, absent


def check_answers(requests, reports):
    attempted, failures, memo = 0, [], {}
    for r in reports:
        for req, q in zip(requests, r["requests"]):
            key = (req["id"], inputs.canonical(q["answer"]), q["error"])
            if key not in memo:            # repetitions repeat their answers
                memo[key] = oracle.check(req, q["answer"], q["error"])
            n, bad = memo[key]
            attempted += n
            failures.extend(bad)
    return attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "skewrank", "__init__.py")):
        print("perfbench: no skewrank sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    # Importing every module the workers use also writes their bytecode
    # before the first timed start.
    from skewrank import catalog, certify, geometry, orbit, pencil  # noqa: F401

    requests, digest = inputs.build(catalog, args.workload, args.seed)
    bad_digests = catalog.verify_digests()

    try:
        modes = ("plain", "trace") if args.trace else ("plain",)
        reports = repetitions(requests, modes, args.seconds, deadline)
        plain = [r for r in reports if r["mode"] == "plain"]
        traced = [r for r in reports if r["mode"] == "trace"]
        setups = list(plain)
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(requests, "setup", deadline))
    except WorkerFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    attempted, failures = check_answers(requests, reports)
    attempted += 1
    if bad_digests:
        failures.append("catalog digests changed: %s" % sorted(bad_digests))

    meta = plain[0]["meta"]
    e2e, (_, pct, n) = end_to_end(plain, setups)
    host = host_context(plain)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("workload %s  seed %d  inputs sha256:%s  requests %d" % (
        args.workload, args.seed, digest, len(requests)))
    print("python %s  numpy %s  nproc %d  backend %s  host %s" % (
        meta["python"], meta["numpy"], os.cpu_count(), meta["backend"],
        platform.machine()))
    print("repetitions %d plain, %d traced; set-up samples %d" % (
        len(plain), len(traced), len(setups)))
    for name, value in e2e.items():
        print("%-14s %12.4f %s" % (name, value, units[name]))
    print("req_tail_ru is p%.1f of %d requests per repetition (%d beyond)"
          % (pct, n, TAIL_BEYOND))
    print("failed_share   %12.4f  (%d failed of %d checks)" % (
        len(failures) / attempted, len(failures), attempted))
    for name, value in host.items():
        print("%-14s %12.6f s" % (name, value))
    print("setup wall     %12.4f s  (raw median; setup_s assumes %g s per "
          "reference loop)" % (median([r["setup_wall_s"] for r in setups]),
                               REF_NOMINAL_S))
    for line in failures[:20]:
        print("FAIL %s" % line)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, absent = per_layer(requests, plain, traced, host, names,
                                    catalog.names())
        for name in names:
            if name in metrics:
                print("%-44s %14.4f %s" % (name, metrics[name], units[name]))
        missing = sorted({m for r in traced for m in r["trace"]["missing"]})
        if missing:
            print("missing traced functions: %s" % ", ".join(missing))
            print("metrics left out: %s" % ", ".join(absent))
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
