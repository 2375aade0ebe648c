"""skewrank itself needs nothing beyond the standard library.

numpy is only in the `bench` extra, for the benchmark's metadata; this
guard fails if any module of the package, or the orbit code and CLI paths
that once used numpy, import it.
"""

import os
import subprocess
import sys
from pathlib import Path

from skewrank import catalog

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import importlib
import pkgutil
import sys

import skewrank
for info in pkgutil.iter_modules(skewrank.__path__):
    importlib.import_module("skewrank." + info.name)

from skewrank import catalog
from skewrank.cli import main
from skewrank.orbit import orbit_dimension, rank_exact, tangent_rows

A = catalog.get("M7").matrix
assert orbit_dimension(A).orbit_dim == 38
assert rank_exact(tangent_rows(A)) == 39
assert main(["orbit-dim", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_package_does_not_import_numpy(tmp_path):
    path = tmp_path / "m7.json"
    path.write_text(catalog.get("M7").matrix.dumps())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
