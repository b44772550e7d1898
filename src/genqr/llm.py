"""Pluggable text-generation backends with a persistent response cache.

Three backend kinds:
- http: JSON completion endpoint (the real model lives behind it).
- stub: deterministic keyword generator driven by a thesaurus fixture;
  selection is keyed by hash(prompt, seed) so runs are reproducible.
- replay: returns recorded responses for exact prompts, for frozen
  transcripts used as goldens.

Stub and replay are pure functions of (config, request). The cache is one
append-only log per cache directory, read once when the cache opens; each
batch appends its new responses in one locked write, so processes may
share a cache directory.

A `Generator` bundles a backend with its cache and request settings. Its
`generate` sends a batch of prompts (a run sends every prompt of a chunk
of topics at once) through `cached_generate`: cache hits are served
inline, identical misses share one backend call, and the remaining misses
go out concurrently on a pool of the backend's `max_in_flight` threads
(default 4) that lives for that one batch. A backend owns no threads, so
one backend can serve every config of a sweep.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import random
import re
import threading
import time
import urllib.parse
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .corpus_io import read_text, write_jsonl
from .schema import ConfigError, check_fields, unique_keys

logger = logging.getLogger(__name__)

DEFAULT_MAX_NEW_TOKENS = 64


class BackendError(RuntimeError):
    pass


class ReplayMissError(BackendError):
    """Prompt absent from the replay transcript."""


@dataclass(frozen=True)
class SamplingConfig:
    top_p: float = field(default=0.92, metadata={"gt": 0, "max": 1})
    top_k: int = field(default=200, metadata={"min": 1})
    repetition_penalty: float = field(default=1.2, metadata={"min": 1})
    temperature: float = field(default=1.0, metadata={"min": 0})

    __post_init__ = check_fields


@dataclass(frozen=True)
class GenRequest:
    prompt: str
    sampling: SamplingConfig = SamplingConfig()
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    seed: Optional[int] = None

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("empty prompt")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be positive, got {self.max_new_tokens}")


@dataclass(eq=False)
class Backend:
    """Shared plumbing: call counting, and `max_in_flight`, the bound on a
    batch's concurrent requests. A subclass's fields are its config options."""

    max_in_flight: int = field(default=4, kw_only=True, metadata={"min": 1})

    def __post_init__(self):
        check_fields(self)
        self._lock = threading.Lock()
        self.calls = 0

    def identity(self) -> str:
        raise NotImplementedError

    def generate(self, request: GenRequest) -> str:
        with self._lock:
            self.calls += 1
        return self._generate(request)

    def _generate(self, request: GenRequest) -> str:
        raise NotImplementedError


_PROMPT_WORD = re.compile(r"[0-9a-z]+")


@dataclass(eq=False)
class StubBackend(Backend):
    """Deterministic keyword stub backed by a thesaurus fixture.

    The fixture maps words to candidate expansion terms. Generation scans
    the prompt for known words, pools their expansions in first-seen order,
    and draws up to `n_terms` of them with an RNG seeded from
    hash(prompt, seed); prompts with no known word yield "".
    """

    vocab: Union[str, Path, dict]
    seed: int = 0
    n_terms: int = field(default=4, metadata={"min": 0})

    def __post_init__(self):
        super().__post_init__()
        vocab, source = self.vocab, "vocab"
        try:
            if isinstance(vocab, (str, Path)):
                source = str(vocab)
                vocab = json.loads(read_text(vocab), object_pairs_hook=unique_keys)
            if not (isinstance(vocab, dict) and all(
                    isinstance(vs, list) and all(isinstance(v, str) for v in vs)
                    for vs in vocab.values())):
                raise BackendError(f"{source}: a vocab must map words to lists of strings")
            self.vocab = unique_keys((str(k).lower(), list(vs)) for k, vs in vocab.items())
        except json.JSONDecodeError as e:
            raise BackendError(f"{source}: invalid JSON ({e.msg})") from e
        except ConfigError as e:  # a key given twice, as written or in lower case
            raise BackendError(f"{source}: {e}") from None
        blob = json.dumps(self.vocab, sort_keys=True, separators=(",", ":"))
        self._fingerprint = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def identity(self) -> str:
        return f"stub:{self._fingerprint}:{self.seed}:{self.n_terms}"

    def _generate(self, request: GenRequest) -> str:
        pool: List[str] = []
        seen_keys = set()
        seen_terms = set()
        for word in _PROMPT_WORD.findall(request.prompt.lower()):
            if word in seen_keys or word not in self.vocab:
                continue
            seen_keys.add(word)
            for term in self.vocab[word]:
                if term not in seen_terms:
                    seen_terms.add(term)
                    pool.append(term)
        if not pool:
            return ""
        seed = request.seed if request.seed is not None else self.seed
        digest = hashlib.sha256(f"{seed}|{request.prompt}".encode("utf-8")).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        picked = rng.sample(pool, min(self.n_terms, len(pool)))
        return " ".join(picked)


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


@dataclass(eq=False)
class ReplayBackend(Backend):
    """Replays recorded responses from a JSONL transcript of
    {"prompt_digest", "prompt", "response"} rows."""

    transcript: Union[str, Path]

    def __post_init__(self):
        super().__post_init__()
        self._responses: Dict[str, str] = {}
        lines: Dict[str, int] = {}  # prompt -> the line that first records it
        raw = read_text(self.transcript)
        for lineno, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line, object_pairs_hook=unique_keys)
            except json.JSONDecodeError as e:
                raise BackendError(f"{self.transcript}:{lineno}: invalid JSON ({e.msg})") from e
            except ConfigError as e:
                raise BackendError(f"{self.transcript}:{lineno}: {e}") from None
            if not (isinstance(row, dict) and isinstance(row.get("prompt"), str)
                    and isinstance(row.get("response"), str)):
                raise BackendError(f"{self.transcript}:{lineno}: a row needs string "
                                   f"'prompt' and 'response' values")
            prompt, response = row["prompt"], row["response"]
            recorded = row.get("prompt_digest")
            if recorded and recorded != prompt_digest(prompt):
                raise BackendError(
                    f"{self.transcript}:{lineno}: prompt_digest does not match prompt")
            first = lines.setdefault(prompt, lineno)
            if self._responses.setdefault(prompt, response) != response:
                raise BackendError(f"{self.transcript}:{lineno}: prompt {prompt_digest(prompt)} "
                                   f"has another response at line {first}")
        self._fingerprint = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def identity(self) -> str:
        return f"replay:{self._fingerprint}"

    def _generate(self, request: GenRequest) -> str:
        try:
            return self._responses[request.prompt]
        except KeyError:
            raise ReplayMissError(
                f"no recorded response for prompt {prompt_digest(request.prompt)} "
                f"in {self.transcript}") from None


def write_transcript(rows: List[Dict[str, str]], path: str | Path) -> None:
    """Write a replay transcript; rows need "prompt" and "response" keys."""
    write_jsonl(({"prompt_digest": prompt_digest(row["prompt"]), "prompt": row["prompt"],
                  "response": row["response"]} for row in rows), path)


@dataclass(eq=False)
class HttpBackend(Backend):
    """JSON completion endpoint client with bounded retries, on the
    standard library's `urllib.request`: one connection per attempt, and
    the `http_proxy`, `https_proxy` and `no_proxy` variables are honoured.

    Sends {model, prompt, top_p, top_k, repetition_penalty, temperature,
    max_tokens, seed?}; reads the completion from `completion_field`, a
    dotted path into the response JSON (list indices allowed, e.g.
    "choices.0.text"). An API key, if present in $GENQR_API_KEY, is sent
    as a bearer token. `timeout` bounds the connect and each read.

    Retried: a 429 or 5xx status (`urllib.error.HTTPError`), and timeouts
    and connection errors (`URLError`, `OSError`, `http.client.HTTPException`,
    which covers a dropped connection and a short body). Between attempts
    it waits a numeric Retry-After (capped at `timeout`) or else
    exponential backoff. Any other status fails at once, as does a reply
    that is not JSON. `retries` counts the attempts after the first.
    """

    url: str
    model: str
    completion_field: str = "text"
    timeout: float = field(default=30.0, metadata={"gt": 0})
    max_retries: int = field(default=3, metadata={"min": 1})
    backoff: float = field(default=0.5, metadata={"min": 0})
    api_key_env: str = "GENQR_API_KEY"

    def __post_init__(self):
        super().__post_init__()
        self.retries = 0
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise BackendError(f"url must be an http:// or https:// URL, got {self.url!r}")

    def identity(self) -> str:
        return f"http:{self.url}:{self.model}"

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _post(self, data: bytes) -> bytes:
        """One attempt: POST `data` and return the body of a 2xx reply."""
        # Imported here, not at module top, so that commands which never
        # send a request do not pay for loading it.
        import urllib.request

        req = urllib.request.Request(self.url, data=data, headers=self._headers())
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read()

    def _generate(self, request: GenRequest) -> str:
        import http.client
        import urllib.error

        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            **asdict(request.sampling),
        }
        if request.seed is not None:
            payload["seed"] = request.seed
        data = json.dumps(payload).encode("utf-8")

        last_error = None
        for attempt in range(1, self.max_retries + 1):
            delay = self.backoff * (2 ** (attempt - 1))
            try:
                raw = self._post(data)
            except urllib.error.HTTPError as e:
                e.close()
                if e.code != 429 and e.code < 500:
                    raise BackendError(f"{self.url}: {e}") from e
                delay = self._retry_after(e.headers, delay)
                last_error = e
            except (OSError, http.client.HTTPException) as e:  # URLError is an OSError
                last_error = e
            else:
                try:
                    body = json.loads(raw)
                except ValueError as e:
                    raise BackendError(f"{self.url}: response is not JSON: {e}") from e
                return self._extract(body)
            logger.warning("backend call failed (attempt %d/%d) for prompt %s: %s",
                           attempt, self.max_retries, prompt_digest(request.prompt),
                           last_error)
            if attempt < self.max_retries:
                with self._lock:
                    self.retries += 1
                time.sleep(delay)
        raise BackendError(
            f"{self.url}: request failed after {self.max_retries} attempts: {last_error}")

    def _retry_after(self, headers, default: float) -> float:
        """Seconds from a numeric Retry-After header (RFC 9110), capped at the timeout."""
        value = headers.get("Retry-After", "").strip()
        if not (value.isascii() and value.isdigit()):
            return default
        return min(float(value), self.timeout)

    def _extract(self, body) -> str:
        node = body
        for part in self.completion_field.split("."):
            try:  # a list takes an index; a dict, a key; any other node, nothing
                node = node[int(part)] if isinstance(node, list) else node[part]
            except (ValueError, IndexError, KeyError, TypeError):
                raise BackendError(
                    f"completion field {self.completion_field!r} missing in response") from None
        if not isinstance(node, str):
            raise BackendError(
                f"completion field {self.completion_field!r} is not a string")
        return node


BACKENDS = {"stub": StubBackend, "replay": ReplayBackend, "http": HttpBackend}


# --- response cache ---------------------------------------------------------


def cache_key(backend: Backend, request: GenRequest) -> str:
    material = json.dumps({
        "backend": backend.identity(),
        "prompt": request.prompt,
        "sampling": asdict(request.sampling),
        "max_new_tokens": request.max_new_tokens,
        "seed": request.seed,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _log_line(key: str, response: str) -> str:
    return json.dumps({"key": key, "response": response}, sort_keys=True) + "\n"


def _parse_entry(line: bytes) -> Optional[Tuple[str, str]]:
    """The (key, response) of one {"key", "response"} record, or None if it
    is not one (a torn or corrupt line)."""
    try:
        record = json.loads(line)
    except ValueError:  # invalid JSON or UTF-8
        return None
    if not (isinstance(record, dict) and isinstance(record.get("key"), str)
            and isinstance(record.get("response"), str)):
        return None
    return record["key"], record["response"]


class ResponseCache:
    """Responses by cache key, in one append-only log per cache directory,
    `responses.jsonl`, of {"key", "response"} lines.

    The log is read once, when the cache opens. `put` appends a batch of
    entries in one write under an exclusive `flock`, so processes that
    share the directory interleave whole lines. A line that does not parse
    (say, torn by a crash in the middle of an append) is skipped, and when
    a key appears twice the first line wins.
    """

    LOG = "responses.jsonl"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.LOG
        try:
            lines = self.path.read_bytes().split(b"\n")
        except FileNotFoundError:
            lines = []
        entries = [_parse_entry(line) for line in lines if line.strip()]
        self._responses: Dict[str, str] = {}
        for entry in filter(None, entries):
            self._responses.setdefault(*entry)
        if None in entries:
            logger.warning("%s: skipped %d unreadable lines", self.path, entries.count(None))

    def get(self, key: str) -> Optional[str]:
        return self._responses.get(key)

    def put(self, entries: Mapping[str, str]) -> None:
        """Append the entries whose keys the cache lacks to the log."""
        new = {key: response for key, response in entries.items()
               if key not in self._responses}
        if not new:
            return
        data = "".join(_log_line(key, response) for key, response in new.items())
        with open(self.path, "a+b") as f:
            fcntl.flock(f, fcntl.LOCK_EX)
            end = os.fstat(f.fileno()).st_size
            if end and os.pread(f.fileno(), 1, end - 1) != b"\n":
                data = "\n" + data  # an earlier writer stopped in the middle of a line
            f.write(data.encode("utf-8"))
            f.flush()  # closing the file then releases the lock
        self._responses.update(new)


def cached_generate(cache: Optional[ResponseCache], backend: Backend,
                    batch: Sequence[GenRequest]) -> List[Union[str, Exception]]:
    """Responses to `batch`, in order: from the cache when possible, else
    from the backend, on up to `backend.max_in_flight` threads. The threads
    end before this returns.

    Identical requests in a batch make one backend call. A request that
    fails gets the exception its call raised in place of a response. The
    responses that did arrive are cached in one `put`, also when the batch
    is interrupted: then no further request is sent.
    """
    results: Dict[str, Union[str, Exception]] = {}
    misses: Dict[str, GenRequest] = {}
    keys = [cache_key(backend, request) for request in batch]
    for key, request in zip(keys, batch):
        if key in results or key in misses:
            continue
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            misses[key] = request
        else:
            results[key] = hit

    from concurrent.futures import Future, ThreadPoolExecutor  # here: see HttpBackend._post

    futures: Dict[str, Future] = {}
    pool = ThreadPoolExecutor(backend.max_in_flight, thread_name_prefix="genqr-backend")
    try:
        for key, request in misses.items():
            futures[key] = pool.submit(backend.generate, request)
        for key, future in futures.items():
            try:
                results[key] = future.result()
            except Exception as e:  # the failure of the requests with this key only
                results[key] = e
    finally:
        pool.shutdown(cancel_futures=True)  # waits for the requests already sent
        if cache is not None:
            cache.put({key: future.result() for key, future in futures.items()
                       if not future.cancelled() and future.exception() is None})
    return [results[key] for key in keys]


@dataclass(frozen=True)
class Generator:
    """A backend, its response cache and the settings of every request."""

    backend: Backend
    cache: Optional[ResponseCache] = None
    sampling: SamplingConfig = SamplingConfig()
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS

    def generate(self, prompts: Sequence[str]) -> List[Union[str, Exception]]:
        """The response to each of `prompts`, in order, or the exception its
        request failed with."""
        batch = [GenRequest(prompt=prompt, sampling=self.sampling,
                            max_new_tokens=self.max_new_tokens) for prompt in prompts]
        return cached_generate(self.cache, self.backend, batch)
