#!/usr/bin/env python3
"""Print one sha256 over the toy grid's outputs: the run and reformulation
files of the six methods, plus every file `eval` writes for the six runs
with `raw` as the baseline.

A change that must leave the toy grid byte-identical prints the same digest
before and after it:

    python3 scripts/toy_grid_digest.py

The grid runs in a temporary directory with the stub-backend toy configs of
tests/conftest.py and the genqr source of the checkout holding this script.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import TOY, toy_config_dict  # noqa: E402
from genqr.cli import cmd_eval, cmd_index, cmd_run  # noqa: E402
from genqr.config import METHODS, config_from_dict  # noqa: E402
from genqr.corpus_io import load_qrels  # noqa: E402


def grid_digest(work: Path) -> str:
    """Run the grid under `work`; sha256 over (relative path, bytes) of each output."""
    configs = [config_from_dict(toy_config_dict(method, tag=method, work=str(work)))
               for method in METHODS]
    cmd_index(configs[0])
    run_paths = []
    for cfg in configs:
        run_path, _, failed = cmd_run(cfg)
        if failed:
            raise SystemExit(f"{cfg.method}: {failed} queries failed")
        run_paths.append(run_path)
    cmd_eval(run_paths, load_qrels(TOY / "qrels.txt"), configs[0].metrics, work / "eval",
             baseline="raw")

    digest = hashlib.sha256()
    outputs = sorted(p for d in ("runs", "eval") for p in (work / d).rglob("*") if p.is_file())
    for path in outputs:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(work).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        print(grid_digest(Path(tmp)))


if __name__ == "__main__":
    main()
