"""Run one genqr CLI command with spans around each layer's public functions.

Usage: python3 trace_cli.py SPANS_JSON -- <genqr arguments>

Times `import genqr.cli`, then replaces module and class attributes with
timing wrappers: every genqr module that imported a function by name gets
the wrapper too, so calls through `genqr.cli`'s own names are seen. It then
calls `genqr.cli.main(argv)` and, at exit, writes the spans as JSON:

    {"import_s": float, "exit_code": int,
     "spans": [[name, start_s, end_s, parent_index, qid, error, extra], ...]}

Spans stay in memory until exit. The qid comes from the first argument
with a `qid` attribute (Topic, WeightedQuery, RunList, FeedbackSet), else
from the parent span. `extra` carries per-call counts: characters
analysed, postings scanned, fused terms, cache hit, postings bytes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, args) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        qid = None
        for arg in args:
            qid = getattr(arg, "qid", None)
            if isinstance(qid, str):
                break
            qid = None
        if qid is None and parent >= 0:
            qid = self.spans[parent][4]
        span = [name, _clock(), 0.0, parent, qid, None, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = _clock()
        self._stack().pop()

    def wrap(self, name: str, fn, extra=None):
        """Wrap `fn` in a span; `extra(args, result)` runs after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                self._close(span)
                raise
            self._close(span)
            if extra is not None:
                span[6] = extra(args, result)
            return result

        return traced

    def wrap_iterator(self, name: str, fn):
        """Wrap a generator function: each `next` is a span, tagged with the call number."""
        calls = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[0] += 1
            call = calls[0]
            inner = fn(*args, **kwargs)

            def pull():
                while True:
                    span = self._open(name, ())
                    span[6] = call
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException as e:
                        span[5] = type(e).__name__
                        self._close(span)
                        raise
                    self._close(span)
                    yield item

            return pull()

        return traced


def _replace_everywhere(original, replacement) -> None:
    """Point every genqr module attribute bound to `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname != "genqr" and not modname.startswith("genqr."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(tracer: Tracer, module, attr: str, name: str, extra=None) -> None:
    original = getattr(module, attr)
    if inspect.isgeneratorfunction(original):
        wrapped = tracer.wrap_iterator(name, original)
    else:
        wrapped = tracer.wrap(name, original, extra)
    _replace_everywhere(original, wrapped)


def _patch_method(tracer: Tracer, cls, attr: str, name: str, extra=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, extra)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, extra))


def install(tracer: Tracer) -> None:
    import requests

    import genqr.cli as cli
    from genqr import (analysis, corpus_io, evaluation, index, llm, prf,
                       reformulate)

    def chars(args, result):
        return len(args[1])

    def postings_scanned(args, result):
        idx, query = args[0], args[1]
        return sum(idx.df(term) for term in query.aggregated())

    def fused_terms(args, result):
        return len(result.terms)

    def cache_hit(args, result):
        return result is not None

    def postings_bytes(args, result):
        return os.path.getsize(os.path.join(args[1], "postings.bin"))

    _patch_method(tracer, analysis.Analyzer, "analyze", "analysis.analyze", chars)

    _patch_function(tracer, index, "build_index", "index.build")
    _patch_method(tracer, index.PostingsIndex, "save", "index.save", postings_bytes)
    _patch_method(tracer, index.PostingsIndex, "load", "index.load")
    _patch_method(tracer, index.PostingsIndex, "retrieve", "index.retrieve",
                  postings_scanned)
    _patch_method(tracer, index.PostingsIndex, "collection_freq", "index.collection_freq")

    _patch_function(tracer, prf, "select_feedback", "prf.select_feedback")
    _patch_function(tracer, prf, "select_oracle_feedback", "prf.select_feedback")
    _patch_function(tracer, prf, "rm3_expand", "prf.rm3_expand")

    _patch_method(tracer, llm.Backend, "generate", "llm.generate")
    for cls in (llm.StubBackend, llm.ReplayBackend, llm.HttpBackend):
        _patch_method(tracer, cls, "identity", "llm.identity")
    _patch_function(tracer, llm, "cache_key", "llm.cache_key")
    _patch_function(tracer, llm, "cached_generate", "llm.cached_generate")
    _patch_method(tracer, llm.ResponseCache, "get", "llm.cache.get", cache_hit)
    _patch_method(tracer, llm.ResponseCache, "put", "llm.cache.put")
    requests.post = tracer.wrap("llm.http.post", requests.post)

    for fn in ("flanqr", "genqr_ensemble", "genqr_ensemble_rf"):
        _patch_function(tracer, reformulate, fn, "reformulate.ensemble")
    _patch_function(tracer, reformulate, "fuse", "reformulate.fuse", fused_terms)
    _patch_function(tracer, reformulate, "build_context", "reformulate.build_context")

    for fn in ("load_corpus", "load_topics", "load_qrels", "read_run", "write_run"):
        _patch_function(tracer, corpus_io, fn, f"corpus_io.{fn}")

    for fn in ("evaluate_run", "paired_ttest", "holm_bonferroni"):
        _patch_function(tracer, evaluation, fn, f"evaluation.{fn}")

    for fn in ("cmd_index", "cmd_run", "cmd_eval"):
        _patch_function(tracer, cli, fn, f"cli.{fn}")
    _patch_method(tracer, cli._QueryRunner, "__call__", "cli.query")


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]

    start = _clock()
    import genqr.cli
    import_s = _clock() - start

    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = genqr.cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "exit_code": code, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
