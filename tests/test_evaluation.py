import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ap_oracle, ndcg_oracle, prec_oracle, rr_oracle

from genqr.corpus_io import Qrels, RunList
from genqr.evaluation import (EvalReport, MetricSpec, average_precision,
                              evaluate_run, holm_bonferroni, mrr, ndcg_at_k,
                              paired_ttest, parse_metric, precision_at_k,
                              student_t_two_sided)


def run_of(qid, docnos, tag="t"):
    return RunList.from_scores(qid, [(d, float(len(docnos) - i))
                                     for i, d in enumerate(docnos)], tag=tag)


def qrels_of(qid, grades):
    return Qrels({(qid, d): g for d, g in grades.items()})


# --- nDCG ---


def test_ideal_ranking_scores_one():
    qrels = qrels_of("1", {"a": 3, "b": 2, "c": 1})
    assert ndcg_at_k(run_of("1", ["a", "b", "c"]), qrels, k=3) == pytest.approx(1.0)


def test_hand_derived_ndcg_case():
    # grades at ranks 1..3 = [0,1,2]; judged grades {2,1,0}
    qrels = qrels_of("1", {"x": 0, "y": 1, "z": 2})
    value = ndcg_at_k(run_of("1", ["x", "y", "z"]), qrels, k=3)
    assert value == pytest.approx(0.6199, abs=1e-4)


def test_no_relevant_docs_skipped():
    qrels = qrels_of("1", {"a": 0})
    assert ndcg_at_k(run_of("1", ["a", "b"]), qrels, k=3) is None


def test_exponential_gain_option():
    qrels = qrels_of("1", {"a": 2, "b": 1})
    linear = ndcg_at_k(run_of("1", ["b", "a"]), qrels, k=2, gain="linear")
    exp = ndcg_at_k(run_of("1", ["b", "a"]), qrels, k=2, gain="exp")
    # dcg_lin = 1 + 2/log2(3), idcg_lin = 2 + 1/log2(3)
    # dcg_exp = 1 + 3/log2(3), idcg_exp = 3 + 1/log2(3)
    assert linear == pytest.approx((1 + 2 / 1.584962500721156) / (2 + 1 / 1.584962500721156))
    assert exp == pytest.approx((1 + 3 / 1.584962500721156) / (3 + 1 / 1.584962500721156))


# --- AP / MRR / P@k ---


def test_ap_single_relevant_at_rank_one():
    qrels = qrels_of("1", {"a": 1})
    assert average_precision(run_of("1", ["a", "b"]), qrels) == pytest.approx(1.0)


def test_ap_two_relevant():
    qrels = qrels_of("1", {"a": 1, "c": 2})
    value = average_precision(run_of("1", ["a", "b", "c"]), qrels)
    assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_ap_zero_when_none_retrieved():
    qrels = qrels_of("1", {"z": 1})
    assert average_precision(run_of("1", ["a", "b"]), qrels) == 0.0


def test_mrr_cases():
    qrels = qrels_of("1", {"a": 1, "d": 2})
    assert mrr(run_of("1", ["a", "b"]), qrels) == 1.0
    assert mrr(run_of("1", ["x", "y", "z", "d"]), qrels) == 0.25
    assert mrr(run_of("1", ["x", "y"]), qrels) == 0.0


def test_precision_cases():
    qrels = qrels_of("1", {f"r{i}": 1 for i in range(10)})
    assert precision_at_k(run_of("1", [f"r{i}" for i in range(10)]), qrels, k=10) == 1.0
    qrels3 = qrels_of("1", {"a": 1, "b": 2, "c": 1})
    ranked = ["a", "x1", "b", "x2", "c"] + [f"x{i}" for i in range(3, 8)]
    assert precision_at_k(run_of("1", ranked), qrels3, k=10) == pytest.approx(0.3)
    assert precision_at_k(RunList(qid="1", entries=[], tag="t"), qrels3, k=10) == 0.0


def test_min_rel_threshold():
    qrels = qrels_of("1", {"a": 1, "b": 2})
    assert mrr(run_of("1", ["a", "b"]), qrels, min_rel=2) == 0.5
    assert average_precision(run_of("1", ["a", "b"]), qrels, min_rel=2) == \
        pytest.approx(0.5)


# --- randomized oracle equivalence ---


def random_instance(rng):
    docs = [f"d{i}" for i in range(rng.randint(1, 10))]
    grades = {d: rng.randint(0, 3) for d in docs if rng.random() < 0.8}
    ranked = rng.sample(docs, rng.randint(0, len(docs)))
    return ranked, grades


def test_metrics_match_oracles_randomized():
    rng = random.Random(31337)
    for _ in range(200):
        ranked, grades = random_instance(rng)
        run = run_of("1", ranked)
        qrels = qrels_of("1", grades)
        k = rng.randint(1, 10)
        pairs = [
            (ndcg_at_k(run, qrels, k), ndcg_oracle(ranked, grades, k)),
            (average_precision(run, qrels), ap_oracle(ranked, grades)),
            (mrr(run, qrels), rr_oracle(ranked, grades)),
            (precision_at_k(run, qrels, k), prec_oracle(ranked, grades, k)),
        ]
        for mine, ref in pairs:
            if ref is None:
                assert mine is None
            else:
                assert mine == pytest.approx(ref, abs=1e-9)
                assert 0.0 <= mine <= 1.0


def test_rank_only_dependence():
    # positive monotone rescaling of scores changes nothing
    qrels = qrels_of("1", {"a": 2, "b": 1})
    base = run_of("1", ["b", "a", "c"])
    rescaled = RunList.from_scores(
        "1", [(e.docno, e.score * 1000 + 7) for e in base.entries], tag="t")
    for spec in [MetricSpec("ndcg", 3), MetricSpec("map"), MetricSpec("mrr"),
                 MetricSpec("precision", 3)]:
        a = evaluate_run([base], qrels, spec).per_query["1"]
        b = evaluate_run([rescaled], qrels, spec).per_query["1"]
        assert a == pytest.approx(b)


# --- reports ---


def test_evaluate_run_aggregates_and_skips():
    qrels = Qrels({("1", "a"): 1, ("2", "b"): 2})  # qid 3 unjudged
    runs = [run_of("1", ["a"]), run_of("2", ["x", "b"]), run_of("3", ["z"])]
    report = evaluate_run(runs, qrels, MetricSpec("ndcg", 10))
    assert report.evaluated == 2
    assert report.skipped == ["3"]
    assert report.mean == pytest.approx(
        sum(report.per_query.values()) / 2)


def test_report_tsv_and_json():
    report = EvalReport(metric="map", per_query={"2": 0.5, "1": 1.0}, skipped=["9"])
    tsv = report.to_tsv()
    assert tsv.splitlines() == ["map\t1\t1.000000", "map\t2\t0.500000",
                                "map\tall\t0.750000"]
    import json
    blob = json.loads(report.to_json())
    assert blob["mean"] == 0.75 and blob["skipped"] == ["9"]


def test_parse_metric():
    assert parse_metric("ndcg@10").label == "ndcg@10"
    assert parse_metric("P@10").label == "p@10"
    assert parse_metric("map").kind == "map"
    assert parse_metric("mrr").kind == "mrr"
    with pytest.raises(ValueError):
        parse_metric("bogus@3")
    with pytest.raises(ValueError):
        parse_metric("ndcg")  # needs a cutoff


# --- significance ---


def test_ttest_identical_values():
    a = {"1": 0.5, "2": 0.7, "3": 0.1}
    assert paired_ttest(a, dict(a)) == 1.0


def test_ttest_reference_value():
    a = {str(i): float(v) for i, v in enumerate([1, 2, 3, 4, 5])}
    b = {str(i): 0.0 for i in range(5)}
    # reference two-sided p for t = 4.2426 with 4 dof
    assert paired_ttest(a, b) == pytest.approx(0.0132, abs=5e-4)


def test_ttest_symmetric_under_swap():
    rng = random.Random(4)
    a = {str(i): rng.random() for i in range(10)}
    b = {str(i): rng.random() for i in range(10)}
    assert paired_ttest(a, b) == pytest.approx(paired_ttest(b, a), abs=1e-12)


# (dof, t, two-sided p) from scipy.special.betainc(dof/2, 1/2, dof/(dof+t^2)),
# computed once with scipy 1.17, so these run without scipy installed.
T_DIST_REFERENCE = [
    (1, 0.5, 0.7048327646991335),
    (1, 1.0, 0.5000000000000001),
    (1, 12.706204736174707, 0.04999999999999999),
    (2, 0.8, 0.5076340360826691),
    (2, 4.302652729749464, 0.05),
    (3, 2.0, 0.13932596855884305),
    (4, 4.242640687119285, 0.01323559956368269),
    (5, 0.25, 0.812534130744123),
    (7, 1.5, 0.17729848698997),
    (9, 2.2621571627982053, 0.05),
    (9, 0.01, 0.9922394455363172),
    (14, 3.0, 0.00955151275353937),
    (19, 2.093024054408309, 0.05000000000000009),
    (29, 1.0, 0.3255819880161937),
    (29, 6.0, 1.5927908426174689e-06),
    (49, 2.5, 0.015815788847180063),
    (99, 0.7, 0.4855689918310564),
    (99, 8.0, 2.4003038210568853e-12),
    (249, 1.9695, 0.05000425570445283),
    (499, 3.3, 0.001035996729031578),
    (999, 1.0, 0.3175526601764121),
    (999, 15.0, 5.059245761506002e-46),
    (2499, 2.0, 0.04560830954265488),
    (4999, 1.7, 0.08919313214523472),
    (4999, 4.5, 6.949541759731152e-06),
    (5000, 0.05, 0.9601243854758775),
]


@pytest.mark.parametrize("dof,t,expected", T_DIST_REFERENCE)
def test_t_p_value_reference_table(dof, t, expected):
    for signed in (t, -t):
        p = student_t_two_sided(signed, dof)
        assert abs(p - expected) <= 1e-11
        assert abs(p - expected) <= 1e-9 * expected


def test_t_p_value_matches_scipy_betainc():
    betainc = pytest.importorskip("scipy.special").betainc

    @settings(max_examples=300, deadline=None)
    @given(dof=st.integers(1, 5000),
           t=st.floats(allow_nan=False, allow_infinity=False))
    def check(dof, t):
        expected = float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
        assert abs(student_t_two_sided(t, dof) - expected) <= 1e-11

    check()


@pytest.mark.parametrize("dof", [1, 2, 3, 30, 5000])
def test_t_p_value_edges(dof):
    assert student_t_two_sided(0.0, dof) == 1.0
    assert student_t_two_sided(-0.0, dof) == 1.0
    for t in (1e6, 1e150, 1e155, 1e300, -1e300, math.inf):
        assert 0.0 <= student_t_two_sided(t, dof) <= 1.0
    assert math.isnan(student_t_two_sided(math.nan, dof))


def test_t_p_value_raises_when_fraction_does_not_converge(monkeypatch):
    from genqr import evaluation
    monkeypatch.setattr(evaluation, "_CF_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        student_t_two_sided(2.0, 30)


@pytest.mark.parametrize("t", [1e-3, 0.1, 0.5, 1.0, 2.5, 10.0, 1e3, 1e8])
def test_t_p_value_closed_forms(t):
    for signed in (t, -t):
        assert student_t_two_sided(signed, 1) == \
            pytest.approx(1.0 - (2.0 / math.pi) * math.atan(t), abs=1e-13)
        assert student_t_two_sided(signed, 2) == \
            pytest.approx(1.0 - t / math.sqrt(2.0 + t * t), abs=1e-13)


def test_ttest_n2_zero_t():
    assert paired_ttest({"1": 1.0, "2": -1.0}, {"1": 0.0, "2": 0.0}) == \
        pytest.approx(1.0)


def test_ttest_mismatched_qids_listed():
    with pytest.raises(ValueError, match="q9"):
        paired_ttest({"q1": 1.0, "q9": 2.0}, {"q1": 1.0, "q2": 2.0})


def test_ttest_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        paired_ttest({"1": 1.0}, {"1": 0.5})


def test_holm_worked_example():
    # thresholds 0.05/3, 0.05/2, 0.05: only 0.01 passes the step-down
    assert holm_bonferroni([0.01, 0.04, 0.03], 0.05) == [True, False, False]


def test_holm_single_comparison():
    assert holm_bonferroni([0.04], 0.05) == [True]


def test_holm_all_ones():
    assert holm_bonferroni([1.0, 1.0, 1.0], 0.05) == [False, False, False]


def test_holm_monotone_in_alpha():
    rng = random.Random(8)
    for _ in range(50):
        ps = [rng.random() for _ in range(rng.randint(1, 8))]
        small = holm_bonferroni(ps, 0.01)
        large = holm_bonferroni(ps, 0.1)
        for s, l in zip(small, large):
            assert not s or l  # rejections only grow with alpha


def test_holm_rejections_monotone_in_p():
    rng = random.Random(9)
    for _ in range(50):
        ps = [rng.random() for _ in range(6)]
        flags = holm_bonferroni(ps, 0.05)
        rejected = [p for p, f in zip(ps, flags) if f]
        kept = [p for p, f in zip(ps, flags) if not f]
        if rejected and kept:
            assert max(rejected) <= min(kept)
