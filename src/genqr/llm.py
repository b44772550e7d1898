"""Pluggable text-generation backends with a persistent response cache.

Three backend kinds:
- http: JSON completion endpoint (the real model lives behind it).
- stub: deterministic keyword generator driven by a thesaurus fixture;
  selection is keyed by hash(prompt, seed) so runs are reproducible.
- replay: returns recorded responses for exact prompts, for frozen
  transcripts used as goldens.

Stub and replay are pure functions of (config, request). The cache is a
directory of content-addressed JSON files; writes go through a temp file
and os.replace, so concurrent misses on one key are safe.

`cached_generate` takes a batch of requests (a query's N instruction
prompts): cache hits are served inline, identical misses share one
backend call, and the remaining misses go out concurrently on the
backend's own pool of `max_in_flight` threads (default 4). A semaphore of
the same size bounds every call into the backend, so `max_in_flight` also
caps the total across a run's query `workers`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .corpus_io import atomic_writer

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_TOP_P = 0.92
DEFAULT_TOP_K = 200
DEFAULT_REPETITION_PENALTY = 1.2
DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_NEW_TOKENS = 64
DEFAULT_MAX_IN_FLIGHT = 4

API_KEY_ENV = "GENQR_API_KEY"


class BackendError(RuntimeError):
    pass


class ReplayMissError(BackendError):
    """Prompt absent from the replay transcript."""


@dataclass(frozen=True)
class SamplingConfig:
    top_p: float = DEFAULT_TOP_P
    top_k: int = DEFAULT_TOP_K
    repetition_penalty: float = DEFAULT_REPETITION_PENALTY
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be positive, got {self.top_k}")
        if self.repetition_penalty < 1.0:
            raise ValueError(f"repetition_penalty must be >= 1, got {self.repetition_penalty}")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")

    def as_dict(self) -> dict:
        return {
            "top_p": self.top_p,
            "top_k": self.top_k,
            "repetition_penalty": self.repetition_penalty,
            "temperature": self.temperature,
        }


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


class Backend:
    """Shared plumbing: call counting, a bounded in-flight limit and a
    pool of `max_in_flight` threads for concurrent requests."""

    def __init__(self, max_in_flight: int = DEFAULT_MAX_IN_FLIGHT):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self._sem = threading.Semaphore(max_in_flight)
        self._lock = threading.Lock()
        # Threads start on first submit, so backends that never batch misses
        # start none.
        self._pool = ThreadPoolExecutor(max_workers=max_in_flight,
                                        thread_name_prefix="genqr-backend")
        self.calls = 0

    def identity(self) -> str:
        raise NotImplementedError

    def generate(self, request: GenRequest) -> str:
        with self._sem:
            with self._lock:
                self.calls += 1
            return self._generate(request)

    def submit(self, request: GenRequest) -> Future:
        """Run `generate` on the backend's thread pool."""
        return self._pool.submit(self.generate, request)

    def close(self) -> None:
        self._pool.shutdown()

    def _generate(self, request: GenRequest) -> str:
        raise NotImplementedError


_PROMPT_WORD = re.compile(r"[0-9a-z]+")


class StubBackend(Backend):
    """Deterministic keyword stub backed by a thesaurus fixture.

    The fixture maps words to candidate expansion terms. Generation scans
    the prompt for known words, pools their expansions in first-seen order,
    and draws up to `n_terms` of them with an RNG seeded from
    hash(prompt, seed); prompts with no known word yield "".
    """

    def __init__(self, vocab: Dict[str, List[str]] | str | Path, seed: int = 0,
                 n_terms: int = 4, max_in_flight: int = DEFAULT_MAX_IN_FLIGHT):
        super().__init__(max_in_flight)
        if isinstance(vocab, (str, Path)):
            vocab = json.loads(Path(vocab).read_text(encoding="utf-8"))
        self.vocab = {str(k).lower(): [str(v) for v in vs] for k, vs in vocab.items()}
        self.seed = seed
        self.n_terms = n_terms
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


class ReplayBackend(Backend):
    """Replays recorded responses from a JSONL transcript of
    {"prompt_digest", "prompt", "response"} rows."""

    def __init__(self, transcript: str | Path, max_in_flight: int = DEFAULT_MAX_IN_FLIGHT):
        super().__init__(max_in_flight)
        self.transcript_path = Path(transcript)
        self._responses: Dict[str, str] = {}
        raw = self.transcript_path.read_text(encoding="utf-8")
        for lineno, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            row = json.loads(line)
            prompt, response = row["prompt"], row["response"]
            recorded = row.get("prompt_digest")
            if recorded and recorded != prompt_digest(prompt):
                raise BackendError(
                    f"{self.transcript_path}:{lineno}: prompt_digest does not match prompt")
            self._responses[prompt] = response
        self._fingerprint = hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def identity(self) -> str:
        return f"replay:{self._fingerprint}"

    def _generate(self, request: GenRequest) -> str:
        try:
            return self._responses[request.prompt]
        except KeyError:
            raise ReplayMissError(
                f"no recorded response for prompt {prompt_digest(request.prompt)} "
                f"in {self.transcript_path}") from None


def write_transcript(rows: List[Dict[str, str]], path: str | Path) -> None:
    """Write a replay transcript; rows need "prompt" and "response" keys."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            record = {
                "prompt_digest": prompt_digest(row["prompt"]),
                "prompt": row["prompt"],
                "response": row["response"],
            }
            f.write(json.dumps(record, sort_keys=True) + "\n")


class HttpBackend(Backend):
    """JSON completion endpoint client with bounded retries.

    Sends {model, prompt, top_p, top_k, repetition_penalty, temperature,
    max_tokens, seed?}; reads the completion from `completion_field`, a
    dotted path into the response JSON (list indices allowed, e.g.
    "choices.0.text"). An API key, if present in $GENQR_API_KEY, is sent
    as a bearer token.

    Timeouts, connection errors, 429 and 5xx are retried, waiting a numeric
    Retry-After (capped at `timeout`) or else exponential backoff; any
    other error status fails at once.
    """

    def __init__(self, url: str, model: str, completion_field: str = "text",
                 timeout: float = 30.0, max_retries: int = 3, backoff: float = 0.5,
                 api_key_env: str = API_KEY_ENV,
                 max_in_flight: int = DEFAULT_MAX_IN_FLIGHT):
        super().__init__(max_in_flight)
        self.url = url
        self.model = model
        self.completion_field = completion_field
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.api_key_env = api_key_env

    def identity(self) -> str:
        return f"http:{self.url}:{self.model}"

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def _generate(self, request: GenRequest) -> str:
        # Imported here, not at module top, so that commands which never
        # send a request do not pay for loading it. `requests.post` is looked
        # up on the module at call time, so hooks that replace it see every call.
        import requests

        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_new_tokens,
            **request.sampling.as_dict(),
        }
        if request.seed is not None:
            payload["seed"] = request.seed

        last_error = None
        for attempt in range(1, self.max_retries + 1):
            delay = self.backoff * (2 ** (attempt - 1))
            try:
                resp = requests.post(self.url, json=payload, headers=self._headers(),
                                     timeout=self.timeout)
                resp.raise_for_status()
            except requests.HTTPError as e:
                status = e.response.status_code
                if status != 429 and status < 500:
                    raise BackendError(f"{self.url}: {e}") from e
                delay = self._retry_after(e.response, delay)
                last_error = e
            except (requests.Timeout, requests.ConnectionError) as e:
                last_error = e
            except requests.RequestException as e:
                raise BackendError(f"{self.url}: {e}") from e
            else:
                try:
                    body = resp.json()
                except ValueError as e:
                    raise BackendError(f"{self.url}: response is not JSON: {e}") from e
                return self._extract(body)
            logger.warning("backend call failed (attempt %d/%d): %s",
                           attempt, self.max_retries, last_error)
            if attempt < self.max_retries:
                time.sleep(delay)
        raise BackendError(
            f"{self.url}: request failed after {self.max_retries} attempts: {last_error}")

    def _retry_after(self, resp: requests.Response, default: float) -> float:
        """Seconds from a numeric Retry-After header (RFC 9110), capped at the timeout."""
        value = resp.headers.get("Retry-After", "").strip()
        if not (value.isascii() and value.isdigit()):
            return default
        return min(float(value), self.timeout)

    def _extract(self, body) -> str:
        node = body
        for part in self.completion_field.split("."):
            if isinstance(node, list):
                try:
                    node = node[int(part)]
                except (ValueError, IndexError):
                    raise BackendError(
                        f"completion field {self.completion_field!r} missing in response") from None
            elif isinstance(node, dict) and part in node:
                node = node[part]
            else:
                raise BackendError(
                    f"completion field {self.completion_field!r} missing in response")
        if not isinstance(node, str):
            raise BackendError(
                f"completion field {self.completion_field!r} is not a string")
        return node


# --- response cache ---------------------------------------------------------


def cache_key(backend: Backend, request: GenRequest) -> str:
    material = json.dumps({
        "backend": backend.identity(),
        "prompt": request.prompt,
        "sampling": request.sampling.as_dict(),
        "max_new_tokens": request.max_new_tokens,
        "seed": request.seed,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed response store under a cache directory."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[str]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            if record.get("key") != key or not isinstance(record.get("response"), str):
                raise ValueError("key mismatch")
            return record["response"]
        except (ValueError, OSError) as e:
            logger.warning("discarding corrupt cache entry %s: %s", path, e)
            return None

    def put(self, key: str, response: str) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_writer(path) as f:
            f.write(json.dumps({"key": key, "response": response}, sort_keys=True))


def cached_generate(cache: Optional[ResponseCache], backend: Backend,
                    batch: Sequence[GenRequest],
                    keys: Optional[Sequence[str]] = None) -> List[str]:
    """Responses to `batch`, in order: from the cache when possible, else
    from the backend, concurrently, and then stored.

    `keys` are the requests' cache keys, if the caller already has them.
    Identical keys in a batch make one backend call. If a request fails,
    the error of the lowest failing index is raised once every request
    has finished, with that index as its `batch_index` attribute; the
    responses that did arrive are cached.
    """
    if keys is None:
        keys = [cache_key(backend, request) for request in batch]
    elif len(keys) != len(batch):
        raise ValueError(f"{len(keys)} cache keys for {len(batch)} requests")
    responses: Dict[str, str] = {}
    misses: Dict[str, GenRequest] = {}
    for key, request in zip(keys, batch):
        if key in responses or key in misses:
            continue
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            misses[key] = request
        else:
            responses[key] = hit

    futures = {key: backend.submit(request) for key, request in misses.items()}
    errors: Dict[str, Exception] = {}
    for key, future in futures.items():
        try:
            responses[key] = future.result()
        except Exception as e:  # re-raised below, once every request has finished
            errors[key] = e
            continue
        if cache is not None:
            cache.put(key, responses[key])

    for index, key in enumerate(keys):
        if key in errors:
            error = errors[key]
            error.batch_index = index
            raise error
    return [responses[key] for key in keys]
