import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import roc_auc_pairwise
from coldgraph.evaluate import (
    BenchmarkResult,
    UndefinedAucError,
    bench_config_for_edges,
    geometric_mean_auc,
    per_class_report,
    roc_auc,
    scaling_benchmark,
    write_benchmark_csv,
    write_report_csv,
    write_report_json,
)
from coldgraph.evaluate import _ols
from coldgraph.simulate import generate_synthetic_graph


# ---------------------------------------------------------------------------
# roc_auc


def test_perfect_ranking():
    assert roc_auc([0.9, 0.1], [1, 0]) == 1.0
    assert roc_auc([0.1, 0.9], [1, 0]) == 0.0


def test_all_ties_give_half():
    assert roc_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5


def test_three_point_hand_case():
    # pairs: (0.8 vs 0.6) concordant, (0.4 vs 0.6) discordant -> 1/2
    assert roc_auc([0.8, 0.6, 0.4], [1, 0, 1]) == 0.5


def test_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # low-cardinality scores force plenty of ties
        scores = rng.integers(0, 5, size=n).astype(np.float64)
        assert roc_auc(scores, labels) == roc_auc_pairwise(scores, labels)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_equality_property(data):
    n = data.draw(st.integers(2, 200))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    if data.draw(st.booleans()):
        scores = rng.integers(0, 7, size=n).astype(np.float64)
    else:
        scores = rng.normal(size=n)
    assert roc_auc(scores, labels) == roc_auc_pairwise(scores, labels)


def test_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.integers(0, 6, size=80).astype(np.float64)
    labels = rng.integers(0, 2, size=80)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(3.0 * scores + 2.0, labels) == base
    assert roc_auc(np.tanh(scores / 10.0), labels) == base


def test_negation_flips_auc_without_ties():
    rng = np.random.default_rng(2)
    scores = rng.permutation(50).astype(np.float64)  # all distinct
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    assert roc_auc(-scores, labels) == pytest.approx(
        1.0 - roc_auc(scores, labels), rel=1e-12
    )


def test_single_class_is_undefined():
    with pytest.raises(UndefinedAucError):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedAucError):
        roc_auc([0.1, 0.2], [0, 0])


def test_input_validation():
    with pytest.raises(ValueError, match="binary"):
        roc_auc([0.1, 0.2], [1, 2])
    with pytest.raises(ValueError, match="finite"):
        roc_auc([np.nan, 0.2], [1, 0])
    with pytest.raises(ValueError, match="length"):
        roc_auc([0.1], [1, 0])


# ---------------------------------------------------------------------------
# geometric mean


def test_geometric_mean_examples():
    assert geometric_mean_auc([0.5] * 9) == pytest.approx(0.5)
    assert geometric_mean_auc([0.25, 1.0]) == pytest.approx(0.5)
    assert geometric_mean_auc([0.8, None, 0.9]) is None
    assert geometric_mean_auc([0.8, 0.0, 0.9]) is None
    assert geometric_mean_auc([]) is None


def test_geometric_mean_bounded_by_arithmetic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        vals = rng.uniform(0.05, 1.0, size=9).tolist()
        gm = geometric_mean_auc(vals)
        assert gm <= np.mean(vals) + 1e-12
        assert gm <= max(vals) + 1e-12


# ---------------------------------------------------------------------------
# per-class reports


def balanced_case(n=400, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.zeros((n, 9), dtype=np.uint8)
    labels[np.arange(n), rng.integers(0, 9, size=n)] = 1
    scores = rng.random((n, 9))
    return scores, labels


def test_report_marks_absent_class_undefined():
    scores, labels = balanced_case()
    labels[:, 4] = 0  # class 4 has no positives
    report = per_class_report(scores, labels, scenario="full")
    assert report.auc[4] is None
    assert report.geo_mean is None
    assert all(report.auc[k] is not None for k in range(9) if k != 4)
    assert report.n_listings == 400


def test_report_deltas_against_itself_are_zero():
    scores, labels = balanced_case(seed=1)
    base = per_class_report(scores, labels)
    again = per_class_report(scores, labels, baseline=base)
    assert all(d == 0.0 for d in again.delta_pcp)


def test_report_delta_rounding():
    scores, labels = balanced_case(seed=2)
    base = per_class_report(scores, labels)
    shifted = per_class_report(scores, labels, baseline=base)
    for d in shifted.delta_pcp:
        assert d == round(d, 1)


def test_random_scores_near_half_on_large_sample():
    rng = np.random.default_rng(4)
    n = 10_000
    labels = np.zeros((n, 9), dtype=np.uint8)
    labels[np.arange(n), rng.integers(0, 9, size=n)] = 1
    scores = rng.random((n, 9))
    report = per_class_report(scores, labels)
    for auc in report.auc:
        assert 0.47 <= auc <= 0.53


def test_report_shape_validation():
    with pytest.raises(ValueError, match="matrices"):
        per_class_report(np.zeros((4, 3)), np.zeros((4, 3)))


def test_report_emitters(tmp_path):
    scores, labels = balanced_case(seed=5)
    labels[:, 7] = 0
    base = per_class_report(scores, labels)
    report = per_class_report(scores, labels, baseline=base, scenario="new_offer", seed=9)
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_report_csv(csv_path, report)
    write_report_json(json_path, report)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "class,auc,delta_pcp"
    assert len(lines) == 11  # header + 9 classes + geometric mean row
    assert lines[8].startswith("type8,undefined,")
    assert lines[10].startswith("geometric_mean,undefined")
    import json

    blob = json.loads(json_path.read_text())
    assert blob["scenario"] == "new_offer"
    assert blob["auc"][7] is None
    assert blob["geometric_mean_auc"] is None
    assert blob["seed"] == 9


# ---------------------------------------------------------------------------
# scaling benchmark


def test_ols_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, r2 = _ols(x, 2.0 * x + 1.0)
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_benchmark_size_validation():
    with pytest.raises(ValueError, match="4 sizes"):
        scaling_benchmark([100, 800, 1600], "inference")
    with pytest.raises(ValueError, match="duplicate"):
        scaling_benchmark([100, 100, 800, 1600], "inference")
    with pytest.raises(ValueError, match="8x"):
        scaling_benchmark([100, 200, 400, 700], "inference")
    with pytest.raises(ValueError, match="task"):
        scaling_benchmark([100, 200, 400, 800], "training")


def test_bench_config_hits_target_edge_count():
    for target in (1000, 4000):
        g = generate_synthetic_graph(bench_config_for_edges(target, seed=1))
        assert abs(g.n_edges - target) < 0.3 * target


def test_noop_control_has_flat_slope():
    def constant_work(g):
        payload = np.arange(20_000, dtype=np.float64)
        return lambda: float((payload * payload).sum())

    result = scaling_benchmark([400, 800, 1600, 3200], constant_work)
    spread = max(result.measured_edges) - min(result.measured_edges)
    mean_t = float(np.mean(result.seconds))
    assert abs(result.slope) * spread < 0.5 * mean_t
    assert result.task == "constant_work"


def test_benchmark_csv(tmp_path):
    result = BenchmarkResult(
        task="inference",
        target_edges=(10, 20, 40, 80),
        measured_edges=(11, 21, 41, 81),
        seconds=(0.01, 0.02, 0.04, 0.08),
        slope=1e-3,
        intercept=0.0,
        r_squared=0.99,
    )
    path = tmp_path / "bench.csv"
    write_benchmark_csv(path, result)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "edges,seconds"
    assert lines[1] == "11,0.010000"
    assert len(lines) == 5
