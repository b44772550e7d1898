#!/usr/bin/env python3
"""CLI-level benchmark for genqr: the paper's six-method grid, run the way
users run it, one fresh `python -m genqr.cli` process per command.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-5k --seed 1 --seconds 30 --trace 0

Each run generates its inputs from --seed, then:
- set-up: `genqr index --force`, at least SETUP_REPS times and for at least
  SETUP_MIN_S seconds (`setup_s` is the median);
- passes, repeated until --seconds have elapsed (at least MIN_PASSES):
  six cold-cache `genqr run` commands (raw, rm3, flanqr, genqrensemble,
  flanprf, genqrensemble_rf), `genqr eval` of the six runs against the
  qrels with `raw` as the baseline; the first pass then reruns both
  ensemble methods on the warm response cache.

End-to-end metrics: `grid_s` (the six cold runs plus eval, median over
passes), `setup_s` and `peak_rss_mb` (largest peak RSS of any untraced
command, from its rusage). Smaller sums of commands spread too much between
runs on a shared 2-vCPU machine to carry a bound, so each command's median,
`ensemble_s` (cold genqrensemble + genqrensemble_rf) and `rerun_s` (both
warm reruns) are printed as unbounded diagnostics instead.

With --trace 1 it instead runs one untraced set-up and pass, then the same
commands through trace_cli.py, and reports the per-layer metrics of
layers.py plus the tracing overhead (traced minus untraced wall time).

Every command's outputs are checked, so a faster wrong answer fails:
exit code 0 and no `*.failures.jsonl`; run and comparison files identical
in every pass; warm reruns identical to the cold runs; for the http
workload, LLM runs identical to the same methods run with the stub
backend, and exactly topics x N backend calls per cold LLM run and none
on a warm rerun; for the default seed, input, run and comparison sha256
values equal those recorded in expected.json (rewrite it with --record).

The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}, where attempted/failed count queries over every
`genqr run` command (a command that exits non-zero without a failures
file fails all its topics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
THESAURUS = SRC / "genqr" / "data" / "toy" / "thesaurus.json"
EXPECTED = BENCH / "expected.json"

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import layers  # noqa: E402

METHODS = ("raw", "rm3", "flanqr", "genqrensemble", "flanprf", "genqrensemble_rf")
LLM_METHODS = {"flanqr": 1, "genqrensemble": 10, "flanprf": 1, "genqrensemble_rf": 10}
ENSEMBLES = ("genqrensemble", "genqrensemble_rf")
SETUP_REPS = 3
SETUP_MIN_S = 8.0
MIN_PASSES = 2
DEFAULT_SEED = 0
CMD_TIMEOUT_S = 150.0
MOCK_LATENCY_S = 0.050
HTTP_MAX_IN_FLIGHT = 2
STUB = {"kind": "stub", "vocab": str(THESAURUS), "seed": 42, "n_terms": 4}

E2E_UNITS = {"setup_s": "s", "grid_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Workload:
    docs: int
    topics: int
    backend: str  # "stub" or "http": the backend of the four LLM methods


WORKLOADS = {
    "grid-5k": Workload(docs=5_000, topics=30, backend="stub"),
    "http-2k": Workload(docs=2_000, topics=10, backend="http"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> Dict[str, str]:
    """The CLI's environment: the checkout's source, no proxies, no API key."""
    env = {k: v for k, v in os.environ.items()
           if not k.lower().endswith("_proxy") and not k.startswith("GENQR_")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    return env


class MockServer:
    """The loopback completion server, in its own process."""

    def __init__(self, env: Dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mock_server.py"), "--thesaurus", str(THESAURUS),
             "--latency", str(MOCK_LATENCY_S), "--seed", str(STUB["seed"]),
             "--n-terms", str(STUB["n_terms"])],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.stop()
            raise RuntimeError(f"mock server did not start (got {line!r})")
        self.url = f"http://127.0.0.1:{line}"

    def _call(self, path: str, data: Optional[bytes] = None) -> dict:
        with urllib.request.urlopen(urllib.request.Request(self.url + path, data=data),
                                    timeout=10) as resp:
            return json.loads(resp.read())

    def take_stats(self) -> dict:
        """Counters since the last call, which resets them."""
        stats = self._call("/stats")
        self._call("/reset", data=b"")
        return stats

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.dir = WORK / name
        self.env = child_env()
        self.problems: List[str] = []
        self.queries_attempted = 0
        self.queries_failed = 0
        self.peak_rss_mb = 0.0
        self.mock: Optional[MockServer] = None
        self.stub_hashes: Dict[str, str] = {}
        self.hashes: Dict[str, str] = {}
        self.n_logs = 0
        self.last_exit = 0
        self.mock_peak = 0
        self.spans: List[layers.Command] = []

    # --- processes -----------------------------------------------------------

    def cmd(self, label: str, argv: List[str], traced: bool = False) -> float:
        """Run one CLI command in a fresh process; return its wall time."""
        self.n_logs += 1
        log = self.dir / "logs" / f"{self.n_logs:03d}-{label}.log"
        spans_path = self.dir / "spans" / f"{self.n_logs:03d}-{label}.json"
        if traced:
            full = [sys.executable, str(BENCH / "trace_cli.py"), str(spans_path), "--", *argv]
        else:
            full = [sys.executable, "-m", "genqr.cli", *argv]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(full, cwd=self.dir, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        self.last_exit = os.waitstatus_to_exitcode(status)
        proc.returncode = self.last_exit
        if not traced:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if self.last_exit != 0:
            self.problems.append(f"{label} exited {self.last_exit} (see {log})")
        if traced and spans_path.exists():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            self.spans.append(layers.Command(label, doc, wall))
        return wall

    # --- inputs and configs ----------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        for sub in ("logs", "spans", "configs"):
            (self.dir / sub).mkdir(parents=True)
        self.inputs = gen.write_inputs(self.dir / "inputs", self.seed, self.wl.docs,
                                       self.wl.topics, THESAURUS)
        for key, path in self.inputs.items():
            self.hashes[f"inputs.{key}"] = sha256(path)
        if self.wl.backend == "http":
            self.mock = MockServer(self.env)
        self.configs = {m: self._config(m, self._backend()) for m in METHODS}
        if self.mock is not None:
            self.stub_configs = {m: self._config(m, STUB, prefix="stubref")
                                 for m in LLM_METHODS}

    def _backend(self) -> dict:
        if self.mock is None:
            return STUB
        return {"kind": "http", "url": f"{self.mock.url}/v1/completions", "model": "mock",
                "completion_field": "choices.0.text", "max_in_flight": HTTP_MAX_IN_FLIGHT}

    def _config(self, method: str, backend: dict, prefix: str = "") -> str:
        out = f"{prefix}runs" if prefix else "runs"
        cfg = {"corpus": str(self.inputs["corpus"]), "topics": str(self.inputs["topics"]),
               "qrels": str(self.inputs["qrels"]), "index_dir": "index",
               "output_dir": out, "cache_dir": f"{prefix}cache/{method}",
               "method": method, "run_tag": method, "backend": backend}
        path = self.dir / "configs" / f"{prefix}{method}.yaml"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        return str(path)

    # --- checks ------------------------------------------------------------------

    def _check_run(self, method: str, label: str, cold: bool) -> None:
        self.queries_attempted += self.wl.topics
        run_path = self.dir / "runs" / f"{method}.run"
        fail_path = self.dir / "runs" / f"{method}.failures.jsonl"
        if fail_path.exists():
            rows = sum(1 for line in fail_path.read_text().splitlines() if line.strip())
            self.queries_failed += rows
            self.problems.append(f"{label}: {rows} failed queries")
            fail_path.unlink()
        elif self.last_exit != 0:
            self.queries_failed += self.wl.topics
        if not run_path.exists():
            self.problems.append(f"{label}: no run file")
            return
        digest = sha256(run_path)
        self._same(f"runs.{method}", digest, label)
        if not cold:
            return
        if self.stub_hashes and method in self.stub_hashes \
                and digest != self.stub_hashes[method]:
            self.problems.append(f"{label}: http run differs from the stub run")

    def _same(self, key: str, digest: str, label: str) -> None:
        """Outputs must be identical in every pass and on the warm rerun."""
        if self.hashes.setdefault(key, digest) != digest:
            self.problems.append(f"{label}: {key} differs from the first pass")

    def _check_calls(self, label: str, expected: int) -> int:
        if self.mock is None:
            return 0
        stats = self.mock.take_stats()
        if stats["requests"] != expected:
            self.problems.append(
                f"{label}: {stats['requests']} backend calls, expected {expected}")
        bad = {k: v for k, v in stats["statuses"].items() if k != "200"}
        if bad:
            self.problems.append(f"{label}: mock answered {bad}")
        return stats["peak_in_flight"]

    # --- phases --------------------------------------------------------------------

    def reference(self) -> None:
        """Untimed stub runs of the LLM methods, which the http runs must equal."""
        for method, config in self.stub_configs.items():
            self.cmd(f"stubref.{method}", ["run", "--config", config, "--lenient"])
            path = self.dir / "stubrefruns" / f"{method}.run"
            if path.exists():
                self.stub_hashes[method] = sha256(path)
            else:
                self.problems.append(f"stub reference run for {method} is missing")

    def index(self, traced: bool = False) -> float:
        return self.cmd("index", ["index", "--config", self.configs["raw"], "--force"], traced)

    def run_pass(self, traced: bool = False, rerun: bool = True) -> Dict[str, float]:
        for sub in ("cache", "runs", "eval"):
            shutil.rmtree(self.dir / sub, ignore_errors=True)
        if self.mock is not None:
            self.mock.take_stats()
        self.mock_peak = 0
        t: Dict[str, float] = {}
        for method in METHODS:
            label = f"run.{method}"
            t[label] = self.cmd(label, ["run", "--config", self.configs[method], "--lenient"],
                                traced)
            self._check_run(method, label, cold=True)
            self.mock_peak = max(self.mock_peak, self._check_calls(
                label, self.wl.topics * LLM_METHODS.get(method, 0)))
        runs = [str(self.dir / "runs" / f"{m}.run") for m in METHODS]
        t["eval"] = self.cmd("eval", ["eval", *runs, "--qrels", str(self.inputs["qrels"]),
                                      "--baseline", "raw", "--out", "eval"], traced)
        self._check_eval()
        for method in ENSEMBLES if rerun else ():
            label = f"rerun.{method}"
            t[label] = self.cmd(label, ["run", "--config", self.configs[method], "--lenient"],
                                traced)
            self._check_run(method, label, cold=False)
            self.mock_peak = max(self.mock_peak, self._check_calls(label, 0))
        return t

    def _check_eval(self) -> None:
        table = self.dir / "eval" / "comparison.tsv"
        if not table.exists():
            self.problems.append("eval wrote no comparison.tsv")
            return
        rows = table.read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != 4 * len(METHODS):
            self.problems.append(f"comparison.tsv has {len(rows)} rows, expected "
                                 f"{4 * len(METHODS)}")
        self._same("eval.comparison", sha256(table), "eval")

    def check_expected(self, record: bool) -> None:
        if self.seed != DEFAULT_SEED:
            return
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        if record:
            expected[self.name] = dict(sorted(self.hashes.items()))
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
            return
        want = expected.get(self.name)
        if want is None:
            self.problems.append(f"no recorded sha256 values for {self.name}")
            return
        for key in sorted(set(want) | set(self.hashes)):
            if want.get(key) != self.hashes.get(key):
                self.problems.append(f"sha256 of {key} differs from expected.json")

    # --- the two modes ---------------------------------------------------------------

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Dict[str, float]]:
        """End-to-end metrics, and per-command medians printed as diagnostics."""
        setup: List[float] = []
        while len(setup) < SETUP_REPS or sum(setup) < SETUP_MIN_S:
            setup.append(self.index())
        if self.mock is not None:
            self.reference()
        passes: List[Dict[str, float]] = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(self.run_pass(rerun=not passes))
            print(f"pass {len(passes)}: " + " ".join(
                f"{label}={wall:.3f}" for label, wall in passes[-1].items()), flush=True)

        def med(labels):
            return statistics.median(sum(p[label] for label in labels) for p in passes)

        metrics = {
            "setup_s": statistics.median(setup),
            "grid_s": med([f"run.{m}" for m in METHODS] + ["eval"]),
            "peak_rss_mb": self.peak_rss_mb,
        }
        diagnostics = {f"{label}_s": med([label]) for label in passes[1]}
        diagnostics.update({f"{label}_s": passes[0][label] for label in passes[0]
                            if label.startswith("rerun.")})
        diagnostics["ensemble_s"] = med([f"run.{m}" for m in ENSEMBLES])
        diagnostics["rerun_s"] = sum(passes[0][f"rerun.{m}"] for m in ENSEMBLES)
        return metrics, diagnostics

    def traced(self) -> Dict[str, float]:
        untraced = self.index()
        if self.mock is not None:
            self.reference()
        untraced += sum(self.run_pass().values())
        self.spans = []
        self.index(traced=True)
        self.run_pass(traced=True)
        cold = [f"run.{m}" for m in LLM_METHODS]
        return layers.aggregate(self.spans, cold, self.mock_peak, untraced)

    def close(self) -> None:
        if self.mock is not None:
            self.mock.stop()


def check_source(env: Dict[str, str]) -> None:
    """Exit non-zero unless the checkout's own genqr source is importable."""
    if not (SRC / "genqr" / "cli.py").is_file():
        sys.exit(f"perfbench: no genqr source at {SRC}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "genqr")],
                   check=True, stdout=subprocess.DEVNULL)
    probe = subprocess.run(
        [sys.executable, "-c", "import genqr.cli; print(genqr.cli.__file__)"],
        env=env, capture_output=True, text=True, timeout=120)
    found = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or SRC.resolve() not in found.parents:
        sys.exit(f"perfbench: genqr.cli does not import from {SRC}: {probe.stderr[-500:]}")


def main() -> int:
    parser = argparse.ArgumentParser(description="genqr CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="with the default seed, rewrite expected.json's sha256 values")
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    check_source(child_env())
    bench = Bench(args.workload, args.seed)
    try:
        bench.prepare()
        if args.trace:
            values = bench.traced()
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
            note = ""
        else:
            values, diagnostics = bench.measure(args.seconds)
            units = E2E_UNITS
            note = "\n".join(f"  diagnostic {name:25s} {value:14.6f} s (no bound)"
                              for name, value in diagnostics.items())
        bench.check_expected(args.record)
    finally:
        bench.close()

    print(f"workload {args.workload} seed {args.seed}")
    if note:
        print(note)
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    ratio = bench.queries_failed / bench.queries_attempted if bench.queries_attempted else 1.0
    print(f"  query_fail_ratio {ratio:.6f} ({bench.queries_failed} of "
          f"{bench.queries_attempted} queries)")
    for problem in bench.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.queries_attempted,
        "failed": bench.queries_failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
