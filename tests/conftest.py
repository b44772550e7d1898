import json
import resource
import signal
import threading
import time
import zlib
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import genqr
from genqr.cli import cmd_index
from genqr.config import config_from_dict

TOY = genqr.data_path("toy")

# Properties that set no max_examples of their own (the rank-safety and
# pipeline oracles) take it from the profile: hypothesis's default 100
# examples locally, four times as many under `pytest --hypothesis-profile=ci`.
settings.register_profile("ci", max_examples=400, deadline=None)
# scripts/mutants.py: repeatable examples, and a failure ends the test at
# once, as only whether it fails counts there, not its shrunk example.
settings.register_profile("mutants", derandomize=True, database=None, deadline=None,
                          phases=[Phase.explicit, Phase.generate])


def toy_config_dict(method="raw", tag="run", work=".", **extra):
    cfg = {
        "corpus": str(TOY / "corpus.jsonl"),
        "topics": str(TOY / "topics.tsv"),
        "qrels": str(TOY / "qrels.txt"),
        "index_dir": f"{work}/idx",
        "output_dir": f"{work}/runs",
        "cache_dir": f"{work}/cache",
        "method": method,
        "run_tag": tag,
        "backend": {"kind": "stub", "vocab": str(TOY / "thesaurus.json"),
                    "seed": 42, "n_terms": 4},
    }
    cfg.update(extra)
    return cfg


def assert_same_index(a, b):
    """`a` and `b` hold the same terms, df, cf, docs and tfs columns, docnos,
    doc lengths and token total."""
    for name in ("terms", "dfs", "cfs", "docs", "tfs", "docnos", "doc_lengths",
                 "total_tokens"):
        assert getattr(a, name) == getattr(b, name), name


def read_index_file(index_dir):
    """An index's postings.bin as (magic, header text, column bytes)."""
    raw = (Path(index_dir) / "postings.bin").read_bytes()
    end = raw.index(b"\n")
    return raw[:8], raw[8:end].decode("utf-8"), raw[end + 1:-4]


def write_index_file(index_dir, magic, header, columns):
    """Write postings.bin from its parts, `header` as text or a mapping,
    with the crc32 of what was written, so that a test of a later check
    gets past the crc."""
    if not isinstance(header, str):
        header = json.dumps(header)
    body = magic + header.encode("utf-8") + b"\n" + columns
    (Path(index_dir) / "postings.bin").write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


@contextmanager
def file_size_limit(n_bytes):
    """Within the block, a write that grows any file of this process past
    `n_bytes` fails with EFBIG, as a full disk fails it. pytest's captured
    output is such a file, so the block should print nothing."""
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # else SIGXFSZ ends the process
    resource.setrlimit(resource.RLIMIT_FSIZE, (n_bytes, limit[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limit)
        signal.signal(signal.SIGXFSZ, handler)


@pytest.fixture
def toy_cfg(tmp_path):
    """Factory for toy-benchmark experiment configs rooted in tmp_path."""

    def make(method="raw", tag=None, **extra):
        return config_from_dict(
            toy_config_dict(method, tag or method, work=str(tmp_path), **extra))

    return make


@pytest.fixture
def toy_index(toy_cfg):
    cfg = toy_cfg("raw")
    return cmd_index(cfg)


class CannedServer:
    """Loopback JSON completion endpoint for HttpBackend tests.

    Answers {"choices": [{"text": reply(prompt)}]} after `delay(prompt)`
    seconds, or sends `reply(prompt)` as the body when it is bytes. The
    first `fail_first` requests get `fail_status`, and a prompt in
    `fail_prompts` always gets its mapped status, each with `fail_headers`;
    a status of None closes the connection without a reply. Records every
    payload, the headers it came with, and the peak number of requests
    being handled at once; a request stops counting as in flight before
    its reply is sent, so the peak never exceeds the client's own.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                status, headers = server._enter(body, self.headers)
                try:
                    time.sleep(server.delay(body["prompt"]))
                    reply = server.reply(body["prompt"])
                    if not isinstance(reply, bytes):
                        reply = json.dumps({"choices": [{"text": reply}]}).encode()
                finally:
                    server._leave()
                if status is None:
                    self.close_connection = True
                    return
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._httpd.server_port}/v1/complete"

    def reset(self):
        with self._lock:
            self.fail_first = 0
            self.fail_status = 503
            self.fail_headers = {}
            self.fail_prompts = {}
            self.payloads = []
            self.headers = []
            self.in_flight = 0
            self.peak_in_flight = 0
        self.reply = lambda prompt: f"echo {prompt}"
        self.delay = lambda prompt: 0.0

    def _enter(self, body, headers):
        with self._lock:
            self.payloads.append(body)
            self.headers.append(headers)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            if body["prompt"] in self.fail_prompts:
                return self.fail_prompts[body["prompt"]], self.fail_headers
            if self.fail_first > 0:
                self.fail_first -= 1
                return self.fail_status, self.fail_headers
            return 200, {}

    def _leave(self):
        with self._lock:
            self.in_flight -= 1

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture
def canned():
    """A CannedServer that lives for one test."""
    server = CannedServer()
    yield server
    server.close()
