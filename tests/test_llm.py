import fcntl
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import genqr
from genqr import llm
from genqr.llm import (BackendError, GenRequest, HttpBackend, ReplayBackend,
                       ReplayMissError, ResponseCache, SamplingConfig,
                       StubBackend, cache_key, cached_generate)

THESAURUS = {"goldfish": ["carp", "fishbowl", "koi"],
             "grow": ["size", "length", "bigger"]}


# --- stub ---


def test_stub_deterministic():
    stub = StubBackend(THESAURUS, seed=7, n_terms=3)
    req = GenRequest(prompt="suggest terms: do goldfish grow")
    assert stub.generate(req) == stub.generate(req)


def test_identity_pinned():
    # identities feed every cache key: a change here orphans existing caches
    stub = StubBackend(genqr.data_path("toy", "thesaurus.json"), seed=42, n_terms=4)
    replay = ReplayBackend(genqr.data_path("replay", "goldfish.jsonl"))
    assert stub.identity() == "stub:ef65a59ae8a57ad3:42:4"
    assert replay.identity() == "replay:2caba3c2891f410c"


def test_stub_seed_changes_output():
    req = GenRequest(prompt="suggest terms: do goldfish grow")
    outs = {StubBackend(THESAURUS, seed=s, n_terms=3).generate(req) for s in range(8)}
    assert len(outs) > 1


def test_stub_unknown_prompt_empty():
    stub = StubBackend(THESAURUS, seed=1)
    assert stub.generate(GenRequest(prompt="nothing matches here")) == ""


def test_stub_pool_limited():
    stub = StubBackend({"one": ["only"]}, seed=1, n_terms=5)
    assert stub.generate(GenRequest(prompt="just one")) == "only"


def test_stub_counts_calls():
    stub = StubBackend(THESAURUS, seed=1)
    stub.generate(GenRequest(prompt="goldfish"))
    stub.generate(GenRequest(prompt="grow"))
    assert stub.calls == 2


# --- replay ---


def test_replay_returns_recorded_paper_expansion():
    backend = ReplayBackend(genqr.data_path("replay", "goldfish.jsonl"))
    prompt = ("Increase the search efficacy by offering beneficial expansion "
              "keywords for the query: do goldfish grow")
    assert backend.generate(GenRequest(prompt=prompt)) == \
        "age goldfish grow outsmart outlive ageing species"


def test_replay_miss_names_digest():
    backend = ReplayBackend(genqr.data_path("replay", "goldfish.jsonl"))
    from genqr.llm import prompt_digest
    missing = "never recorded"
    with pytest.raises(ReplayMissError, match=prompt_digest(missing)):
        backend.generate(GenRequest(prompt=missing))


def test_replay_rejects_tampered_digest(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({"prompt_digest": "0" * 16, "prompt": "p",
                                "response": "r"}) + "\n")
    with pytest.raises(BackendError, match="digest"):
        ReplayBackend(path)


def test_replay_loads_a_prompt_recorded_twice_alike(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"prompt": "p", "response": "r"}\n' * 2)
    assert ReplayBackend(path).generate(GenRequest(prompt="p")) == "r"


# --- http ---


def test_http_extracts_completion(canned):
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text")
    out = backend.generate(GenRequest(prompt="hi there"))
    assert out == "echo hi there"
    sent = canned.payloads[0]
    assert sent["model"] == "toy"
    assert sent["top_p"] == 0.92 and sent["top_k"] == 200
    assert sent["repetition_penalty"] == 1.2
    assert sent["max_tokens"] == 64


def test_http_retries_then_succeeds(canned):
    canned.fail_first = 2
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text",
                          max_retries=3, backoff=0.01)
    assert backend.generate(GenRequest(prompt="retry me")) == "echo retry me"
    assert (backend.calls, backend.retries) == (1, 2)


def test_http_sends_api_key_as_bearer_token(canned, monkeypatch):
    monkeypatch.setenv("GENQR_API_KEY", "s3cret")
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text")
    backend.generate(GenRequest(prompt="hi"))
    assert canned.headers[0]["Authorization"] == "Bearer s3cret"
    assert canned.headers[0]["Content-Type"] == "application/json"


def test_http_failure_reports_attempts(canned):
    canned.fail_first = 10
    backend = HttpBackend(canned.url, model="toy", max_retries=3, backoff=0.01)
    with pytest.raises(BackendError, match="3 attempts"):
        backend.generate(GenRequest(prompt="doomed"))


def test_http_missing_field(canned):
    backend = HttpBackend(canned.url, model="toy", completion_field="nope.text")
    with pytest.raises(BackendError, match="nope.text"):
        backend.generate(GenRequest(prompt="hi"))


def test_http_completion_not_a_string(canned):
    canned.reply = lambda prompt: b'{"choices": [{"text": 5}]}'
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text")
    with pytest.raises(BackendError, match="^completion field 'choices.0.text' is not a string$"):
        backend.generate(GenRequest(prompt="hi"))


@pytest.fixture
def sleeps(monkeypatch):
    """Delays HttpBackend waits between attempts, recorded instead of slept."""
    recorded = []
    monkeypatch.setattr(llm, "time", types.SimpleNamespace(sleep=recorded.append))
    return recorded


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_permanent_error_not_retried(canned, sleeps, status):
    canned.fail_first = 10
    canned.fail_status = status
    backend = HttpBackend(canned.url, model="toy", max_retries=3, backoff=0.01)
    with pytest.raises(BackendError, match=str(status)):
        backend.generate(GenRequest(prompt="doomed"))
    assert len(canned.payloads) == 1
    assert sleeps == []
    assert backend.retries == 0


@pytest.mark.parametrize("status", [429, 500])
def test_http_transient_status_retried(canned, sleeps, status):
    canned.fail_first = 2
    canned.fail_status = status
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text",
                          max_retries=3, backoff=0.01)
    assert backend.generate(GenRequest(prompt="retry me")) == "echo retry me"
    assert len(canned.payloads) == 3
    assert sleeps == [0.01, 0.02]


def test_http_connection_error_retried(sleeps):
    with socket.socket() as sock:  # a port that nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    backend = HttpBackend(f"http://127.0.0.1:{port}/v1/complete", model="toy",
                          max_retries=3, backoff=0.01, timeout=1.0)
    with pytest.raises(BackendError, match="3 attempts"):
        backend.generate(GenRequest(prompt="nobody listens"))
    assert sleeps == [0.01, 0.02]


def test_http_read_timeout_retried(canned, sleeps):
    canned.delay = lambda prompt: 0.5
    backend = HttpBackend(canned.url, model="toy", max_retries=3, backoff=0.01,
                          timeout=0.1)
    with pytest.raises(BackendError, match="3 attempts"):
        backend.generate(GenRequest(prompt="too slow"))
    assert len(canned.payloads) == 3
    assert sleeps == [0.01, 0.02]


def test_http_dropped_connection_retried(canned, sleeps):
    canned.fail_first = 2
    canned.fail_status = None  # the server closes the connection without a reply
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text",
                          max_retries=3, backoff=0.01)
    assert backend.generate(GenRequest(prompt="hang up")) == "echo hang up"
    assert len(canned.payloads) == 3
    assert sleeps == [0.01, 0.02]


def test_http_non_json_reply_fails_at_once(canned, sleeps):
    canned.reply = lambda prompt: b"<html>gateway</html>"
    backend = HttpBackend(canned.url, model="toy", max_retries=3, backoff=0.01)
    with pytest.raises(BackendError, match="response is not JSON"):
        backend.generate(GenRequest(prompt="hi"))
    assert len(canned.payloads) == 1
    assert sleeps == []


@pytest.mark.parametrize("header, waits", [
    ("2", [2.0, 2.0]),                              # numeric: honoured
    ("3600", [5.0, 5.0]),                           # capped at the request timeout
    ("Wed, 21 Oct 2015 07:28:00 GMT", [0.01, 0.02]),  # HTTP-date: backoff
])
def test_http_retry_after(canned, sleeps, header, waits):
    canned.fail_first = 10
    canned.fail_status = 429
    canned.fail_headers = {"Retry-After": header}
    backend = HttpBackend(canned.url, model="toy", max_retries=3, backoff=0.01,
                          timeout=5.0)
    with pytest.raises(BackendError, match="3 attempts"):
        backend.generate(GenRequest(prompt="slow down"))
    assert sleeps == waits


# --- batches ---


def test_batch_duplicates_share_one_call():
    stub = StubBackend(THESAURUS, seed=3)
    req = GenRequest(prompt="do goldfish grow")
    out = cached_generate(None, stub, [req, GenRequest(prompt="grow"), req])
    assert stub.calls == 2
    assert out == [stub.generate(req), stub.generate(GenRequest(prompt="grow")),
                   stub.generate(req)]


def test_warm_batch_makes_no_backend_call(tmp_path):
    stub = StubBackend(THESAURUS, seed=3)
    cache = ResponseCache(tmp_path / "cache")
    batch = [GenRequest(prompt=f"goldfish {i}") for i in range(10)]
    cold = cached_generate(cache, stub, batch)
    assert stub.calls == 10
    assert cached_generate(cache, stub, batch) == cold
    assert stub.calls == 10


def test_batch_failure_is_per_request_and_caches_the_rest(tmp_path):
    backend = ReplayBackend(genqr.data_path("replay", "goldfish.jsonl"))
    cache = ResponseCache(tmp_path / "cache")
    recorded = ("Increase the search efficacy by offering beneficial expansion "
                "keywords for the query: do goldfish grow")
    batch = [GenRequest(prompt=recorded), GenRequest(prompt="missing one"),
             GenRequest(prompt=recorded), GenRequest(prompt="missing two")]
    out = cached_generate(cache, backend, batch)
    assert out[0] == out[2] == "age goldfish grow outsmart outlive ageing species"
    for error, prompt in ((out[1], "missing one"), (out[3], "missing two")):
        assert isinstance(error, ReplayMissError)
        assert llm.prompt_digest(prompt) in str(error)
        assert not hasattr(error, "batch_index")
    assert backend.calls == 3  # the duplicate recorded prompt is asked once
    assert cache.get(cache_key(backend, batch[0])) == out[0]
    assert cache.get(cache_key(backend, batch[1])) is None


def test_batch_in_flight_bounded(canned):
    canned.delay = lambda prompt: 0.02
    backend = HttpBackend(canned.url, model="toy", completion_field="choices.0.text",
                          max_in_flight=2)
    batch = [GenRequest(prompt=f"p{i}") for i in range(10)]
    assert cached_generate(None, backend, batch) == [f"echo p{i}" for i in range(10)]
    assert canned.peak_in_flight == 2
    assert len(canned.payloads) == 10


def test_concurrent_batches_lose_no_call():
    stub = StubBackend(THESAURUS, seed=3, max_in_flight=3)
    batches = [[GenRequest(prompt=f"goldfish grow {t} {i}") for i in range(10)]
               for t in range(8)]
    want = [[stub.generate(request) for request in batch] for batch in batches]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda batch: cached_generate(None, stub, batch), batches))
    finally:
        sys.setswitchinterval(old)
    assert got == want
    assert stub.calls == 2 * 80


def test_batch_leaves_no_backend_thread():
    stub = StubBackend(THESAURUS, seed=3, max_in_flight=3)
    batch = [GenRequest(prompt=f"goldfish grow {i}") for i in range(10)]
    assert len(set(cached_generate(None, stub, batch))) > 1
    assert stub.calls == 10
    assert not [t.name for t in threading.enumerate() if t.name.startswith("genqr-backend")]


def test_max_in_flight_must_be_positive():
    with pytest.raises(ValueError, match="max_in_flight"):
        StubBackend(THESAURUS, max_in_flight=0)


# --- cache ---


def test_cache_hit_skips_backend(tmp_path):
    stub = StubBackend(THESAURUS, seed=3)
    cache = ResponseCache(tmp_path / "cache")
    req = GenRequest(prompt="do goldfish grow")
    first, = cached_generate(cache, stub, [req])
    assert stub.calls == 1
    second, = cached_generate(cache, stub, [req])
    assert stub.calls == 1  # zero extra backend calls
    assert first == second


def test_changed_sampling_changes_key(tmp_path):
    stub = StubBackend(THESAURUS, seed=3)
    cache = ResponseCache(tmp_path / "cache")
    cached_generate(cache, stub, [GenRequest(prompt="goldfish")])
    cached_generate(cache, stub, [GenRequest(prompt="goldfish",
                                             sampling=SamplingConfig(top_p=0.5))])
    assert stub.calls == 2


def test_cache_roundtrip_byte_exact(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    rng = random.Random(9)
    entries = {}
    for i in range(20):
        text = "".join(rng.choice("ab\n\r\t é中\u2028") for _ in range(rng.randint(0, 40)))
        key = f"{i:064x}"
        cache.put({key: text})
        assert cache.get(key) == text
        entries[key] = text
    reopened = ResponseCache(tmp_path / "cache")
    assert {key: reopened.get(key) for key in entries} == entries


def test_corrupt_entry_treated_as_miss(tmp_path, caplog):
    stub = StubBackend(THESAURUS, seed=3)
    req = GenRequest(prompt="goldfish grow")
    key, want = cache_key(stub, req), StubBackend(THESAURUS, seed=3).generate(req)
    corrupt = ["{broken json", json.dumps({"key": key}), json.dumps({"key": key, "response": 7}),
               json.dumps({"key": None, "response": "x"}), "[]"]
    for calls, line in enumerate(corrupt, start=1):
        log = tmp_path / str(calls) / "responses.jsonl"
        log.parent.mkdir()
        log.write_text(line + "\n", encoding="utf-8")
        caplog.clear()
        with caplog.at_level("WARNING"):
            out, = cached_generate(ResponseCache(log.parent), stub, [req])
        assert "skipped 1 unreadable lines" in caplog.text
        assert stub.calls == calls
        assert out == want
        assert ResponseCache(log.parent).get(key) == out


def test_mismatched_key_not_returned(tmp_path):
    key = "a" * 64
    path = tmp_path / "cache" / key[:2] / f"{key}.json"  # the one-file-per-entry layout
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"key": "b" * 64, "response": "stolen"}))
    cache = ResponseCache(tmp_path / "cache")
    assert cache.get(key) is None
    assert cache.get("b" * 64) is None


def test_torn_last_line_skipped_and_next_put_starts_a_new_line(tmp_path, caplog):
    ResponseCache(tmp_path).put({"a" * 64: "first", "b" * 64: "second"})
    with open(tmp_path / "responses.jsonl", "ab") as f:  # a writer stopped mid-append
        f.write(b'{"key": "' + b"c" * 64 + b'", "response": "caf\xc3')
    with caplog.at_level("WARNING"):
        cache = ResponseCache(tmp_path)
    assert "skipped 1 unreadable lines" in caplog.text
    assert [cache.get(k * 64) for k in "abc"] == ["first", "second", None]
    cache.put({"c" * 64: "third", "d" * 64: "fourth"})
    caplog.clear()
    with caplog.at_level("WARNING"):
        reopened = ResponseCache(tmp_path)
    assert "skipped 1 unreadable lines" in caplog.text
    assert [reopened.get(k * 64) for k in "abcd"] == ["first", "second", "third", "fourth"]


# Appends 25 entries to the cache in argv[1]. Before `put` takes the log's
# lock it creates argv[1]/waiting, so the test can see that it has begun.
_APPEND_ANNOUNCED = """
import fcntl, sys
from pathlib import Path
from genqr.llm import ResponseCache
directory = Path(sys.argv[1])
flock = fcntl.flock

def announced_flock(f, operation):
    (directory / "waiting").touch()
    flock(f, operation)

fcntl.flock = announced_flock
ResponseCache(directory).put({f"y-{i}": "y" * 4000 + str(i) for i in range(25)})
"""


def test_processes_appending_at_once_lose_no_entry(tmp_path, caplog):
    """This process holds the log's lock with half a line written; the other
    process's append, once it waits on the lock, lands after the whole line."""
    env = dict(os.environ, PYTHONPATH=str(Path(genqr.__file__).parents[1]))
    held = llm._log_line("x", "held").encode()
    with open(tmp_path / ResponseCache.LOG, "ab") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        f.write(held[:10])
        f.flush()
        writer = subprocess.Popen([sys.executable, "-c", _APPEND_ANNOUNCED, str(tmp_path)],
                                  env=env)
        # An append without the lock never announces itself: it just ends.
        deadline = time.monotonic() + 60
        while not (tmp_path / "waiting").exists() and writer.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        f.write(held[10:])
        f.flush()  # closing the file then releases the lock
    assert writer.wait(timeout=60) == 0
    with caplog.at_level("WARNING"):
        cache = ResponseCache(tmp_path)
    assert caplog.text == ""
    lines = (tmp_path / "responses.jsonl").read_bytes().splitlines(keepends=True)
    assert lines[0] == held and len(lines) == 1 + 25
    assert cache.get("x") == "held"
    for i in range(25):
        assert cache.get(f"y-{i}") == "y" * 4000 + str(i)


def test_interrupted_batch_caches_the_responses_that_arrived(tmp_path):
    answered = []

    class Interrupted(StubBackend):
        def _generate(self, request):
            if request.prompt == "goldfish stop":
                raise KeyboardInterrupt  # reaches the batch as a Ctrl-C would
            answered.append(request.prompt)
            return super()._generate(request)

    backend = Interrupted(THESAURUS, seed=3, max_in_flight=1)
    batch = [GenRequest(prompt=f"goldfish {word}") for word in ("1", "stop", "2", "3", "4")]
    with pytest.raises(KeyboardInterrupt):
        cached_generate(ResponseCache(tmp_path), backend, batch)
    cache = ResponseCache(tmp_path)
    assert answered[0] == "goldfish 1"
    for request in batch:
        cached = cache.get(cache_key(backend, request))
        assert (cached is not None) == (request.prompt in answered), request.prompt


def test_cache_key_depends_on_backend_identity():
    req = GenRequest(prompt="goldfish")
    k1 = cache_key(StubBackend(THESAURUS, seed=1), req)
    k2 = cache_key(StubBackend(THESAURUS, seed=2), req)
    assert k1 != k2


# --- config validation ---


def test_sampling_validation():
    with pytest.raises(ValueError):
        SamplingConfig(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(top_k=0)
    with pytest.raises(ValueError):
        SamplingConfig(repetition_penalty=0.5)
    with pytest.raises(ValueError):
        SamplingConfig(temperature=-1.0)


def test_empty_prompt_rejected():
    with pytest.raises(ValueError, match="prompt"):
        GenRequest(prompt="")
