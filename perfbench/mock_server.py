"""Loopback mock of a JSON completion endpoint, for the http-backend workload.

Serves POST /v1/completions on 127.0.0.1 at an ephemeral port. Each request
sleeps a fixed injected latency, then answers {"choices": [{"text": T}]},
where T is what genqr's StubBackend (same thesaurus, seed and term count)
generates for the prompt, so http runs must match stub runs byte for byte.

GET /stats returns the request count, status-code counts and the peak
number of requests in flight; POST /reset zeroes them.

Usage: python3 mock_server.py --thesaurus PATH [--latency 0.010] [--seed 42] [--n-terms 4]

The first line on stdout is the port. The server stops when its stdin
closes (the benchmark holds the other end) or on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from genqr.llm import GenRequest, StubBackend


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.statuses: dict = {}
            self.in_flight = 0
            self.peak_in_flight = 0

    def enter(self) -> None:
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def leave(self, status: int) -> None:
        with self._lock:
            self.in_flight -= 1
            key = str(status)
            self.statuses[key] = self.statuses.get(key, 0) + 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "statuses": dict(self.statuses),
                    "peak_in_flight": self.peak_in_flight}


def make_handler(stub: StubBackend, latency: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # keep stderr quiet
            pass

        def _reply(self, status: int, body: dict) -> None:
            blob = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length)
            if self.path == "/reset":
                stats.reset()
                self._reply(200, {})
                return
            if self.path != "/v1/completions":
                self._reply(404, {"error": "not found"})
                return
            stats.enter()
            status = 500
            try:
                payload = json.loads(raw)
                request = GenRequest(prompt=payload["prompt"],
                                     max_new_tokens=int(payload.get("max_tokens", 64)),
                                     seed=payload.get("seed"))
                text = stub.generate(request)
                time.sleep(latency)
                status = 200
                self._reply(200, {"choices": [{"text": text}]})
            except (ValueError, KeyError, TypeError) as e:
                status = 400
                self._reply(400, {"error": str(e)})
            finally:
                stats.leave(status)

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--thesaurus", required=True)
    parser.add_argument("--latency", type=float, default=0.010)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n-terms", type=int, default=4)
    args = parser.parse_args()

    stub = StubBackend(args.thesaurus, seed=args.seed, n_terms=args.n_terms,
                       max_in_flight=64)
    server = ThreadingHTTPServer(("127.0.0.1", 0),
                                 make_handler(stub, args.latency, Stats()))
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())

    def stop_on_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
