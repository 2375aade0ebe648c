"""Per-layer spans for the traced run, installed from outside the program.

Each target in ``TARGETS`` is wrapped where callers find it: at its
module attribute, at every ``from ... import`` alias in the other loaded
skewrank modules, or on its class for a method.  A wrapper records one
span: calls, self time (duration minus the time of wrapped callees) and
the counts its ``count`` hook reads off the arguments and the result.
Self time is converted to ``ru`` request by request, with the same
reference-loop unit as the untraced figures.

A target that no longer exists is reported under ``missing`` instead of
failing the run.  No profiler hook is used: only these functions, each
called at most about 10^4 times per catalog run, pay for tracing.
``Form`` arithmetic shows up in its callers' self time.
"""

import importlib
import sys
import time
from fractions import Fraction


def _cells(args, kwargs, result, st):
    rows = args[0]
    ncols = kwargs.get("ncols") or (len(args) > 1 and args[1]) or \
        (len(rows[0]) if rows else 0)
    st["cells"] += len(rows) * ncols
    if any(isinstance(x, Fraction) for row in rows for x in row):
        st["fraction_inputs"] += 1


def _terms_out(args, kwargs, result, st):
    st["terms_out"] += sum(len(f.terms()) for f in result)


def _scanned(args, kwargs, result, st):
    st["lines"] += result.scanned


def _buchberger(args, kwargs, result, st):
    st["gens_in"] += len(args[0].generators)
    st["basis_out"] += len(result.basis)


def _certificate(args, kwargs, result, st):
    seed = kwargs.get("seed", args[1] if len(args) > 1 else 0)
    st.setdefault("keys", set()).add((args[0], seed))
    if result.constant is False:
        st["refutations"] += 1
        if result.witness is not None:
            st["witnessed"] += 1


def _nnz_out(args, kwargs, result, st):
    st["nnz_out"] += sum(len(row) for row in result)


def _rank_exact(args, kwargs, result, st):
    rows = args[0]
    st["cells"] += len(rows) * len({c for row in rows for c in row})
    st["modular_agree"] += result["modular_rank"] == result["rank"]


# (metric prefix, module, qualified name, count hook).  Keep to functions
# called at most about 10^4 times per run; a wrapper costs a few
# microseconds a call.
TARGETS = (
    ("geometry.splitting_on_line", "geometry", "splitting_on_line", None),
    ("geometry.grid_lines", "geometry", "grid_lines", None),
    ("geometry.jumping_scan", "geometry", "jumping_scan", _scanned),
    ("geometry.section_zero_scheme_degree", "geometry",
     "section_zero_scheme_degree", None),
    ("pencil.minimal_indices", "pencil", "minimal_indices", None),
    ("linalg.nullspace", "linalg", "nullspace", _cells),
    ("linalg.bareiss_rank", "linalg", "bareiss_rank", _cells),
    ("skew.sub_pfaffians", "skew", "SkewPolyMatrix.sub_pfaffians", _terms_out),
    ("skew.rank_at", "skew", "SkewPolyMatrix.rank_at", None),
    ("forms.binary_gcd", "forms", "binary_gcd", None),
    ("forms.Form.linear_substitute", "forms", "Form.linear_substitute", None),
    ("groebner.buchberger", "groebner", "buchberger", _buchberger),
    ("groebner.hilbert_profile", "groebner", "hilbert_profile", None),
    ("certify.certify_constant_rank", "certify", "certify_constant_rank",
     _certificate),
    ("certify.restrict_line", "certify", "restrict_line", None),
    ("certify.witness_candidates", "certify", "witness_candidates", None),
    ("orbit.tangent_rows", "orbit", "tangent_rows", _nnz_out),
    ("orbit.rank_exact", "orbit", "rank_exact", _rank_exact),
)


class _Stat(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.stats = {}            # metric prefix -> _Stat
        self.missing = []
        self._stack = []           # child seconds of each open span
        self._pending = {}         # self seconds in the current request

    def install(self):
        for name, module, qualname, count in TARGETS:
            try:
                mod = importlib.import_module("skewrank." + module)
                owner, attr = mod, qualname
                if "." in qualname:
                    cls, attr = qualname.split(".")
                    owner = getattr(mod, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError, ValueError):
                self.missing.append(name)
                continue
            self.stats[name] = _Stat()
            wrapper = self._wrap(name, original, count)
            if owner is mod:
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("skewrank"):
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapper)
            else:
                setattr(owner, attr, wrapper)

    def _wrap(self, name, original, count):
        st = self.stats[name]
        stack = self._stack
        pending = self._pending
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                pending[name] = pending.get(name, 0.0) + dur - child
                st["calls"] += 1
            if count is not None:
                t1 = clock()
                count(args, kwargs, result, st)
                if stack:                  # counting is nobody's self time
                    stack[-1] += clock() - t1
            return result

        return wrapper

    def exclude(self, secs):
        """Charge ``secs`` (a reference-loop sample) to no span."""
        if self._stack:
            self._stack[-1] += secs

    def take(self):
        """Self seconds per function since the last call."""
        out = dict(self._pending)
        self._pending.clear()
        return out

    def add_ru(self, selfs, unit):
        """Fold one request's self seconds into ru with its unit."""
        for name, secs in selfs.items():
            self.stats[name]["self_ru"] += secs / unit

    def report(self):
        out = {}
        for name, st in self.stats.items():
            st = dict(st)
            keys = st.pop("keys", None)
            if keys is not None:
                st["distinct"] = len(keys)
                st["hits"] = st["calls"] - len(keys)
            out[name] = st
        return {"functions": out, "missing": list(self.missing)}
