"""The benchmark's per-layer table (bench/tracing.py) wraps package
functions in every module that binds them and refuses to run when a binding
it expects is gone; a refactor that drops one must fail here, not only in a
traced benchmark run."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_bench_tracer_installs_on_src():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", "from tracing import Tracer; Tracer().install()"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stderr) == (0, "")
