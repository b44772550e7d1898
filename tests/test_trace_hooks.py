"""perfbench/trace_cli.py patches genqr functions and methods by name; a
renamed or deleted target must fail here, not only in the traced benchmark."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_trace_cli_install_finds_every_hook():
    # A subprocess, so that the patched genqr does not leak into other tests.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import trace_cli; "
            "trace_cli.install(trace_cli.Tracer())")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
