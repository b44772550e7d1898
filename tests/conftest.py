import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import genqr
from genqr.cli import cmd_index
from genqr.config import config_from_dict

TOY = genqr.data_path("toy")


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
    seconds. The first `fail_first` requests get `fail_status`, and a
    prompt in `fail_prompts` always gets its mapped status, each with
    `fail_headers`. Records every payload and the peak number of requests
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
                status, headers = server._enter(body)
                try:
                    time.sleep(server.delay(body["prompt"]))
                    reply = json.dumps(
                        {"choices": [{"text": server.reply(body["prompt"])}]}).encode()
                finally:
                    server._leave()
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
            self.in_flight = 0
            self.peak_in_flight = 0
        self.reply = lambda prompt: f"echo {prompt}"
        self.delay = lambda prompt: 0.0

    def _enter(self, body):
        with self._lock:
            self.payloads.append(body)
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
