"""The scripts under perfbench/ use genqr's API: trace_cli.py patches its
functions and methods by name, and mock_server.py answers with StubBackend.
A renamed or changed target must fail here, not only in the benchmark."""

import os
import subprocess
import sys
from pathlib import Path

import genqr
from genqr.llm import GenRequest, HttpBackend, StubBackend

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_trace_cli_install_finds_every_hook():
    # A subprocess, so that the patched genqr does not leak into other tests.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import trace_cli; "
            "trace_cli.install(trace_cli.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_mock_server_replies_as_stub_backend():
    thesaurus = genqr.data_path("toy", "thesaurus.json")
    stub = StubBackend(thesaurus, seed=42, n_terms=4)  # mock_server.py's defaults
    requests = [GenRequest(prompt=p) for p in (
        "expand: do goldfish grow", "expand: goldfish tank size", "no known word")]
    with subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "mock_server.py"),
                           "--thesaurus", str(thesaurus), "--latency", "0"],
                          env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            port = proc.stdout.readline().strip()
            assert port.isdigit(), f"mock server did not start (got {port!r})"
            http = HttpBackend(f"http://127.0.0.1:{port}/v1/completions", model="mock",
                               completion_field="choices.0.text", timeout=10,
                               max_retries=1)
            replies = [http.generate(request) for request in requests]
        finally:
            proc.stdin.close()  # the server stops when its stdin closes
            proc.wait(timeout=10)
    assert replies == [stub.generate(request) for request in requests]
    assert replies[0] and not replies[2]
