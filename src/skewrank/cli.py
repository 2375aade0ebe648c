"""Command-line interface.

Subcommands speak the JSON formats of the library types (matrices,
ideals, certificates, reports).  Exit codes: 0 success, 2 usage error,
3 a checked property was refuted, 4 a work budget was exhausted or the
answer is unknown (never from `certify`, whose certificates are proofs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, geometry, orbit, pencil
from .certify import certify_constant_rank
from .forms import _parse_number
from .groebner import Ideal, WrongDimension, is_projectively_empty, projective_degree
from .skew import SkewPolyMatrix


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUTED = 3
EXIT_UNKNOWN = 4


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_matrix(path):
    return SkewPolyMatrix.from_json(_read_json(path))


def _load_ideal(path):
    return Ideal.from_json(_read_json(path))


def _emit(obj):
    _print(json.dumps(obj, indent=2, sort_keys=True))


def _print(text):
    """Print; a reader that stops early is not an error.  The exit code
    stands, and stdout moves to the null device so the flush at exit passes."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _parse_center(text):
    """The comma-separated coordinates of a projection center, each one
    number [-]p or [-]p/q (`forms._parse_number`), never a sum such as
    1+1."""
    return tuple(_parse_number(part) for part in text.split(","))


def _join_center(argv):
    """argv with `--center VALUE` written as `--center=VALUE`: argparse
    takes a separate value that starts with '-', such as -1,0,1, for an
    option, but reads the joined form as the value it is.  Every prefix
    of --center that argparse accepts, from --c on, is joined alike."""
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--center".startswith(out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def positive_int(text):
    """argparse type: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


def cmd_certify(args):
    cert = certify_constant_rank(_load_matrix(args.matrix))
    _emit(cert.to_json())
    return EXIT_OK if cert.constant else EXIT_REFUTED


def cmd_classify(args):
    A = _load_matrix(args.matrix)
    inv = pencil.minimal_indices(A)
    _emit(inv.to_json())
    return EXIT_OK


def cmd_canonical(args):
    partition = tuple(int(x) for x in args.partition.split(","))
    cp = pencil.canonical_form(partition)
    _emit(cp.matrix.to_json())
    return EXIT_OK


def cmd_orbit_dim(args):
    A = _load_matrix(args.matrix)
    _emit(orbit.orbit_dimension(A).to_json())
    return EXIT_OK


def cmd_project(args):
    A = _load_matrix(args.matrix)
    center = _parse_center(args.center)
    step = geometry.project(A, center)
    _emit(step.to_json())
    return EXIT_OK if step.valid else EXIT_REFUTED


def cmd_fingerprint(args):
    A = _load_matrix(args.matrix)
    _emit(geometry.bundle_fingerprint(A, budget=args.budget).to_json())
    return EXIT_OK


def cmd_gauss(args):
    A = _load_matrix(args.matrix)
    kp = geometry.kernel_plucker(A)
    _emit({
        "span_dim": geometry.gauss_span_dim(A),
        "coordinates": [{"i": i, "j": j, "form": str(f)}
                        for (i, j), f in sorted(kp.items())],
    })
    return EXIT_OK


def cmd_catalog(args):
    if not args.name:
        _emit([{"name": n, "section": catalog.get(n).section,
                "description": catalog.get(n).description,
                "order": catalog.get(n).matrix.order,
                "vars": list(catalog.get(n).matrix.vars)}
               for n in catalog.names()])
        return EXIT_OK
    entry = catalog.get(args.name)
    if args.matrix_only:
        _emit(entry.matrix.to_json())
    else:
        _emit({"name": entry.name, "section": entry.section,
               "description": entry.description,
               "digest": entry.digest(),
               "expected": dict(entry.expected.items()),
               "matrix": entry.matrix.to_json()})
    return EXIT_OK


def cmd_reproduce(args):
    for name in args.name or ():
        catalog.get(name)                  # KeyError lists the known names
    rows = catalog.reproduce_all(
        names_filter=set(args.name) if args.name else None,
        sections=set(args.section) if args.section else None)
    if not rows:
        raise ValueError("no catalog entry matches the selection")
    _print(catalog.format_report(rows, as_table=args.table))
    return EXIT_OK if all(r.ok for r in rows) else EXIT_REFUTED


def cmd_ideal_empty(args):
    ideal = _load_ideal(args.ideal)
    _emit({"empty": is_projectively_empty(ideal)})
    return EXIT_OK


def cmd_ideal_degree(args):
    ideal = _load_ideal(args.ideal)
    degree = projective_degree(ideal, proj_dim=args.proj_dim)
    _emit({"degree": degree, "proj_dim": args.proj_dim})
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewrank",
        description="Certify, classify and fingerprint skew-symmetric "
                    "matrix spaces of constant rank.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="constant-rank certificate")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("classify", help="Kronecker invariants of a pencil")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("canonical", help="canonical pencil of a partition")
    p.add_argument("partition", help="comma-separated, e.g. 2,1")
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("orbit-dim", help="orbit dimension under congruence")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_orbit_dim)

    p = sub.add_parser("project", help="project from a center and re-certify")
    p.add_argument("matrix")
    p.add_argument("--center", required=True,
                   help="comma-separated coordinates, each one integer "
                        "or fraction p/q, e.g. -1,1/2,0")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("fingerprint", help="kernel-bundle fingerprint")
    p.add_argument("matrix")
    p.add_argument("--budget", type=positive_int, default=200,
                   help="jumping-line scan budget")
    p.set_defaults(fn=cmd_fingerprint)

    p = sub.add_parser("gauss", help="kernel 2-plane map coordinates")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_gauss)

    p = sub.add_parser("catalog", help="list or dump catalog entries")
    p.add_argument("name", nargs="?")
    p.add_argument("--matrix", dest="matrix_only", action="store_true",
                   help="dump only the matrix JSON")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("reproduce", help="recompute expected invariants")
    p.add_argument("--name", action="append", help="restrict to entries")
    p.add_argument("--section", action="append", type=int,
                   help="restrict to catalog sections")
    p.add_argument("--table", action="store_true", help="plain-text table")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("ideal-empty", help="projective emptiness of an ideal")
    p.add_argument("ideal")
    p.set_defaults(fn=cmd_ideal_empty)

    p = sub.add_parser("ideal-degree", help="degree of a low-dimensional scheme")
    p.add_argument("ideal")
    p.add_argument("--proj-dim", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_ideal_degree)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_center(sys.argv[1:] if argv is None
                                          else argv))
    try:
        return args.fn(args)
    except geometry.BudgetExhausted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN
    except WrongDimension as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNKNOWN
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
