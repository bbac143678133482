import dataclasses

import numpy as np
import pytest

from tst import analysis
from tst.analysis import (REFERENCE_SWEEP, accuracy_from_confusion, collapse_to_4class,
                          confusion, cost_report, sweep_results, tsne_embed,
                          _joint_affinities)
from tst.data import default_synthetic_spec, generate_synthetic
from tst.errors import ConfigError, DataError
from tst.model import TSTConfig, TSTModel


def random_valid_configs(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        ns = int(rng.choice([1, 2, 4, 8, 16]))
        sub = int(rng.choice([2, 4, 8]))
        yield TSTConfig(
            L=ns * sub, ns=ns,
            dim=int(rng.integers(2, 24)),
            dim_mlp=int(rng.integers(2, 48)),
            d_k=int(rng.integers(1, 16)),
            heads=int(rng.integers(1, 5)),
            depth=int(rng.integers(1, 4)),
            n_class=int(rng.integers(2, 12)),
            pos_encoding=str(rng.choice(["1d", "none"])),
        )


def test_closed_form_matches_model_enumeration_on_random_configs():
    for cfg in random_valid_configs(50):
        report = cost_report(cfg)
        model = TSTModel(cfg, seed=0)
        assert report.params_full == sum(p.size for _, p in model.parameters()), cfg


def test_comparable_count_excludes_standalone_tensors():
    cfg = TSTConfig()
    report = cost_report(cfg)
    standalone = cfg.dim + (cfg.ns + 1) * cfg.dim
    assert report.params_full - report.params_comparable == standalone
    none_cfg = TSTConfig(pos_encoding="none")
    report_none = cost_report(none_cfg)
    assert report_none.params_full - report_none.params_comparable == none_cfg.dim


def test_reference_sweep_reconciles():
    assert len(REFERENCE_SWEEP) == 23
    for row, report in sweep_results():
        flops_delta = abs(report.flops_m - row.flops_target_m) / row.flops_target_m
        params_delta = abs(report.params_m - row.params_target_m) / row.params_target_m
        assert flops_delta < 0.02, (row.label, row.overrides, report.flops_m)
        assert params_delta < 0.05, (row.label, row.overrides, report.params_m)


def test_macs_are_linear_in_token_count():
    # hold everything but ns fixed (L included): the block term must be an
    # affine function of ns + 1, checked by vanishing second differences
    base = TSTConfig(L=64, ns=2, dim=16, dim_mlp=32, d_k=8, heads=2, depth=3)
    values = {}
    for ns in (2, 4, 8, 16):
        cfg = dataclasses.replace(base, ns=ns)
        values[ns] = cost_report(cfg).macs_linear
    slope1 = (values[4] - values[2]) / 2
    slope2 = (values[8] - values[4]) / 4
    slope3 = (values[16] - values[8]) / 8
    assert slope1 == slope2 == slope3


def test_attention_macs_reported_separately():
    cfg = TSTConfig()
    report = cost_report(cfg)
    n = cfg.ns + 1
    assert report.macs_attention == cfg.depth * cfg.heads * n * n * 2 * cfg.d_k
    # including them would roughly double the baseline figure
    assert 680e6 < report.macs_linear + report.macs_attention < 740e6


# ---------------------------------------------------------------------------
# confusion and collapse


def test_confusion_perfect_is_diagonal():
    y = np.repeat(np.arange(4), 3)
    m = confusion(y, y, n_class=4)
    np.testing.assert_array_equal(m, np.diag([3, 3, 3, 3]))
    assert accuracy_from_confusion(m) == 1.0


def test_confusion_single_column():
    y = np.array([0, 1, 2, 3])
    m = confusion(y, np.zeros(4, dtype=int), n_class=4)
    assert m[:, 0].sum() == 4 and m[:, 1:].sum() == 0


def test_confusion_row_sums_and_accuracy(rng):
    true = rng.integers(0, 10, size=500)
    pred = rng.integers(0, 10, size=500)
    m = confusion(true, pred, n_class=10)
    np.testing.assert_array_equal(m.sum(axis=1), np.bincount(true, minlength=10))
    assert accuracy_from_confusion(m) == np.mean(true == pred)


def test_confusion_length_mismatch():
    with pytest.raises(DataError):
        confusion(np.zeros(3, dtype=int), np.zeros(4, dtype=int), n_class=2)


def test_collapse_diagonal_stays_diagonal():
    m = np.diag(np.arange(1, 11))
    c = collapse_to_4class(m)
    assert c.shape == (4, 4)
    np.testing.assert_array_equal(c, np.diag([1, 2 + 3 + 4, 5 + 6 + 7, 8 + 9 + 10]))


def test_collapse_within_mode_confusion_becomes_correct():
    m = np.zeros((10, 10), dtype=int)
    m[1, 2] = 5   # severity confusion inside the inner-race mode
    c = collapse_to_4class(m)
    assert c[1, 1] == 5
    assert accuracy_from_confusion(c) == 1.0


def test_collapse_never_decreases_accuracy(rng):
    for _ in range(25):
        true = rng.integers(0, 10, size=200)
        pred = rng.integers(0, 10, size=200)
        m = confusion(true, pred, n_class=10)
        assert accuracy_from_confusion(collapse_to_4class(m)) >= accuracy_from_confusion(m)


def test_collapse_labels_and_validation():
    with pytest.raises(DataError):   # a label vector is not a confusion matrix
        collapse_to_4class(np.array([0, 1, 5, 9]))
    with pytest.raises(DataError):
        collapse_to_4class(np.zeros((5, 5), dtype=int))


# ---------------------------------------------------------------------------
# t-SNE


def two_clusters(n_each=20, gap=100.0, seed=0):
    rng = np.random.default_rng(seed)
    feats = np.vstack([rng.normal(size=(n_each, 10)),
                       rng.normal(size=(n_each, 10)) + gap])
    labels = np.array([0] * n_each + [1] * n_each)
    return feats, labels


def perceptron_accuracy(coords, labels, passes=1000):
    x = np.hstack([coords, np.ones((len(coords), 1))])
    target = np.where(labels == 1, 1.0, -1.0)
    w = np.zeros(x.shape[1])
    for _ in range(passes):
        mistakes = 0
        for i in range(len(x)):
            if target[i] * (x[i] @ w) <= 0:
                w += target[i] * x[i]
                mistakes += 1
        if mistakes == 0:
            break
    return float(np.mean((x @ w > 0).astype(int) == labels))


def test_tsne_separates_far_clusters():
    feats, labels = two_clusters()
    res = tsne_embed(feats, perplexity=10, iterations=1000, seed=1, learning_rate=50.0)
    assert perceptron_accuracy(res.coords, labels) == 1.0


def test_tsne_kl_decreases_after_exaggeration():
    feats, _ = two_clusters(seed=3)
    res = tsne_embed(feats, perplexity=10, iterations=600, seed=2, learning_rate=50.0)
    assert res.kl_final < res.kl_after_exaggeration
    assert np.all(np.isfinite(res.coords))


def test_tsne_deterministic_under_seed():
    feats, _ = two_clusters(seed=5)
    a = tsne_embed(feats, perplexity=10, iterations=300, seed=7)
    b = tsne_embed(feats, perplexity=10, iterations=300, seed=7)
    np.testing.assert_array_equal(a.coords, b.coords)
    c = tsne_embed(feats, perplexity=10, iterations=300, seed=8)
    assert np.any(a.coords != c.coords)


def test_tsne_preconditions():
    feats, _ = two_clusters(n_each=10)
    with pytest.raises(ConfigError, match="3\\*perplexity"):
        tsne_embed(feats, perplexity=30)
    with pytest.raises(ConfigError, match="cap"):
        tsne_embed(np.zeros((5001, 2)), perplexity=10)


@pytest.mark.parametrize("kwargs,match", [
    ({"perplexity": float("nan")}, "perplexity"),
    ({"perplexity": float("inf")}, "perplexity"),
    ({"perplexity": 1e-300}, "perplexity"),
    ({"perplexity": 0.999}, "perplexity"),
    ({"perplexity": 5.0, "iterations": -5}, "iterations"),
    ({"perplexity": 5.0, "iterations": 0}, "iterations"),
], ids=["nan", "inf", "tiny", "below-1", "negative-iterations", "zero-iterations"])
def test_tsne_rejects_bad_perplexity_and_iterations(kwargs, match):
    feats, _ = two_clusters(n_each=10)
    with pytest.raises(ConfigError, match=match):
        tsne_embed(feats, **kwargs)


def test_affinity_matrix_properties():
    feats, _ = two_clusters(seed=9)
    p = _joint_affinities(feats, perplexity=10)
    np.testing.assert_allclose(p, p.T, atol=1e-15)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) < 1e-6


def test_perplexity_binary_search_hits_target_entropy():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(60, 8))
    for perplexity in (5.0, 15.0):
        p = _joint_affinities(feats, perplexity)
        # conditional rows were tuned before symmetrization; entropy of the
        # joint rows still sits near log(perplexity) for homogeneous data
        row = p[0] / p[0].sum()
        entropy = -np.sum(row[row > 0] * np.log(row[row > 0]))
        assert abs(entropy - np.log(perplexity)) < 0.35


# ---------------------------------------------------------------------------
# per-block embedding export


def test_export_embeddings_rows_and_labels(tmp_path):
    cfg = TSTConfig(L=64, ns=8, dim=12, dim_mlp=16, d_k=4, heads=2, depth=2,
                    n_class=10, batch_size=32)
    model = TSTModel(cfg, seed=0)
    windows = generate_synthetic(default_synthetic_spec(), 6, seed=4, length=64)
    out = tmp_path / "embedding.csv"
    points = analysis.export_embeddings(model, windows, out, perplexity=10,
                                        iterations=260, seed=0)
    n = len(windows)
    assert len(points) == (cfg.depth + 1) * n
    assert sorted({p.block_index for p in points}) == [0, 1, 2]
    per_stage_labels = [p.label for p in points if p.block_index == 1]
    assert per_stage_labels == [w.label for w in windows]

    lines = out.read_text().splitlines()
    assert lines[0] == "block_index,label,x,y"
    assert len(lines) == 1 + (cfg.depth + 1) * n
