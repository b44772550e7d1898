"""scripts/run_diff.py: RBO_ext against a brute-force sum of the RBO
series, and the per-topic rows of two run files."""

import importlib.util
import random
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_diff.py"


def _run_diff():
    spec = importlib.util.spec_from_file_location("run_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_diff = _run_diff()


def rbo_brute_force(a, b, p, depth=3000):
    """RBO = (1-p) sum_d p^(d-1) A_d, summed term by term to `depth`, with
    the agreements A_d that RBO_ext assumes (Webber et al. 2010, sec. 4.3):
    with S the shorter ranking (length s) and L the longer (length l),
    A_d = (|S[:d] & L[:d]| + X_s (d - s) / s) / d for d <= l, where
    X_s = |S & L[:s]| and the second term counts only for d > s, and
    A_d = A_l below l."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    s, l = len(short), len(long_)
    x_s = len(set(short) & set(long_[:s]))

    def agreement(d):
        d = min(d, l)
        overlap = len(set(short[:d]) & set(long_[:d]))
        return (overlap + (x_s * (d - s) / s if d > s else 0.0)) / d

    return (1 - p) * sum(p ** (d - 1) * agreement(d) for d in range(1, depth + 1))


def test_rbo_ext_matches_the_brute_force_series():
    rng = random.Random(2010)
    pool = [f"d{i}" for i in range(12)]
    for _ in range(300):
        a = rng.sample(pool, rng.randint(1, 8))
        b = rng.sample(pool, rng.randint(1, 8))
        p = rng.choice([0.5, 0.8, 0.9, 0.95])
        assert run_diff.rbo_ext(a, b, p) == pytest.approx(rbo_brute_force(a, b, p), abs=1e-12)
        assert run_diff.rbo_ext(a, b, p) == pytest.approx(run_diff.rbo_ext(b, a, p), abs=1e-15)


def _write(path, run):
    path.write_text("".join(f"{qid} Q0 {docno} {rank} {10 - rank}.000000 t\n"
                            for qid, docnos in run.items()
                            for rank, docno in enumerate(docnos, start=1)))
    return path


def test_identical_runs_give_one_and_no_differing_rank(tmp_path, capsys):
    run = {"1": ["d1", "d2", "d3"], "2": ["d4"]}
    a, b = _write(tmp_path / "a.run", run), _write(tmp_path / "b.run", run)
    assert run_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "qid\trbo\tfirst_diff", "1\t1.000000\t-", "2\t1.000000\t-",
        "mean\t1.000000\t-", "differ\t0\t2"]


def test_disjoint_runs_give_zero(tmp_path, capsys):
    a = _write(tmp_path / "a.run", {"1": ["d1", "d2"], "2": ["d3"]})
    b = _write(tmp_path / "b.run", {"1": ["d5", "d6", "d7"], "3": ["d3"]})
    assert run_diff.main([str(a), str(b)]) == 0
    # topic 2 is missing from B and topic 3 from A: each is an empty ranking there
    assert capsys.readouterr().out.splitlines() == [
        "qid\trbo\tfirst_diff", "1\t0.000000\t1", "2\t0.000000\t1", "3\t0.000000\t1",
        "mean\t0.000000\t1.00", "differ\t3\t3"]


def test_a_prefix_differs_after_its_last_rank():
    assert run_diff.first_difference(["d1", "d2"], ["d1", "d2", "d3"]) == 3
    assert run_diff.first_difference(["d1", "d2"], ["d1", "d3"]) == 2
    assert run_diff.first_difference([], []) is None
