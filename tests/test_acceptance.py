"""End-to-end acceptance gate.

One test per shipped criterion, each printing a PASS line with its
headline numbers (run with ``pytest tests/test_acceptance.py -v -s``).
The two training-based criteria run a scaled-down stock architecture on
the bundled synthetic dataset; the full-scale CWRU protocol (9000 windows,
100 trials, reference accuracies TopAcc 99.30 / MinAcc 97.25 / AvgAcc
98.63 percent) needs the real recordings and is out of desk scope.
"""

import math
import time

import numpy as np
import pytest

from conftest import op_grad_check
from oracles import tsne_kl
from tst import analysis, cli, data, tensor as T
from tst.gradcheck import max_rel_error, numerical_grads
from tst.model import TSTConfig, TSTModel, cross_entropy_from_logits, load_checkpoint, save_checkpoint
from tst.tensor import Tensor, backward
from tst.training import AdamState, adam_step, lr_at_epoch, repeat_trials, train

DESK_CFG = TSTConfig(L=512, ns=64, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                     n_class=10, epochs=30, batch_size=64, lr=1e-3)


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


@pytest.fixture(scope="module")
def desk_run():
    """Criterion 5's training run, shared with criterion 10."""
    windows = data.generate_synthetic(data.default_synthetic_spec(), 200,
                                      seed=42, length=512)
    split = data.split_train_test(windows, 1556, 444, seed=1)   # 7:2 proportions
    model = TSTModel(DESK_CFG, seed=0)
    start = time.monotonic()
    trial = train(model, split, DESK_CFG, seed=0)
    elapsed = time.monotonic() - start
    return model, split, trial, elapsed


def test_criterion_1_flops_reconciliation(capsys):
    start = time.monotonic()
    assert cli.main(["cost", "--sweep", "table4"]) == 0
    rows = analysis.sweep_results()
    elapsed = time.monotonic() - start
    worst = 0.0
    for row, rep in rows:
        delta = abs(rep.flops_m - row.flops_target_m) / row.flops_target_m
        assert delta < 0.02, (row.label, row.overrides, rep.flops_m, row.flops_target_m)
        worst = max(worst, delta)
    assert elapsed < 1.0
    capsys.readouterr()
    report(1, f"all {len(rows)} sweep FLOPs within 2% (worst {worst:.2%}) in {elapsed:.2f}s")


def test_criterion_2_parameter_reconciliation():
    start = time.monotonic()
    worst = 0.0
    for row, rep in analysis.sweep_results():
        delta = abs(rep.params_m - row.params_target_m) / row.params_target_m
        assert delta < 0.05, (row.label, row.overrides, rep.params_m, row.params_target_m)
        worst = max(worst, delta)

    rng = np.random.default_rng(17)
    checked = 0
    while checked < 50:
        ns = int(rng.choice([1, 2, 4, 8, 16]))
        cfg = TSTConfig(L=ns * int(rng.choice([2, 4, 8])), ns=ns,
                        dim=int(rng.integers(2, 24)), dim_mlp=int(rng.integers(2, 48)),
                        d_k=int(rng.integers(1, 16)), heads=int(rng.integers(1, 5)),
                        depth=int(rng.integers(1, 4)), n_class=int(rng.integers(2, 12)),
                        pos_encoding=str(rng.choice(["1d", "none"])))
        assert analysis.cost_report(cfg).params_full == sum(
            p.size for _, p in TSTModel(cfg, seed=0).parameters())
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"sweep params within 5% (worst {worst:.2%}); closed form exact on "
              f"{checked} random configs in {elapsed:.1f}s")


def test_criterion_3_gradient_correctness(rng):
    start = time.monotonic()

    primitive_checks = {
        "matmul": op_grad_check(lambda t: T.matmul(t[0], t[1]),
                                [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]),
        "softmax": op_grad_check(lambda t: T.softmax(t[0], axis=-1),
                                 [rng.normal(size=(3, 5))]),
        "log_softmax": op_grad_check(lambda t: T.log_softmax(t[0], axis=-1),
                                     [rng.normal(size=(3, 5))]),
        "layer_norm": op_grad_check(
            lambda t: T.layer_norm(t[0], t[1], t[2]),
            [rng.normal(size=(3, 6)), rng.normal(size=6), rng.normal(size=6)]),
        "gelu": op_grad_check(lambda t: T.gelu(t[0]), [rng.normal(size=9)]),
        "self_attention": op_grad_check(
            lambda t: T.self_attention(*t, 2),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=4), rng.normal(size=4),
             rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), rng.normal(size=(4, 6)),
             rng.normal(size=(6, 4))]),
        "feed_forward": op_grad_check(
            lambda t: T.feed_forward(*t),
            [rng.normal(size=(2, 3, 4)), rng.normal(size=4), rng.normal(size=4),
             rng.normal(size=(4, 5)), rng.normal(size=5), rng.normal(size=(5, 4)),
             rng.normal(size=4)]),
        "add": op_grad_check(lambda t: T.add(t[0], t[1]),
                             [rng.normal(size=(3, 4)), rng.normal(size=(4,))]),
        "mul": op_grad_check(lambda t: T.mul(t[0], t[1]),
                             [rng.normal(size=(3, 4)), rng.normal(size=(4,))]),
        "concat": op_grad_check(lambda t: T.concat([t[0], t[1]], axis=1),
                                [rng.normal(size=(2, 3)), rng.normal(size=(2, 2))]),
        "slice": op_grad_check(lambda t: t[0][:, 0, :], [rng.normal(size=(2, 3, 4))]),
        "reshape": op_grad_check(lambda t: T.reshape(t[0], (8,)), [rng.normal(size=(2, 4))]),
        "transpose": op_grad_check(lambda t: T.transpose(t[0], (1, 0, 2)),
                                   [rng.normal(size=(2, 3, 4))]),
        "mean": op_grad_check(lambda t: T.mean(t[0], axis=-1), [rng.normal(size=(3, 4))]),
        "sum": op_grad_check(lambda t: T.tsum(t[0], axis=0), [rng.normal(size=(3, 4))]),
        "log": op_grad_check(lambda t: T.log(t[0]), [rng.uniform(0.5, 2.0, size=6)]),
        "gather_rows": op_grad_check(lambda t: T.gather_rows(t[0], np.array([0, 2, 1])),
                                     [rng.normal(size=(3, 4))]),
        "broadcast_to": op_grad_check(lambda t: T.broadcast_to(t[0], (5, 2, 3)),
                                      [rng.normal(size=(2, 3))]),
    }
    worst_primitive = max(primitive_checks.values())
    assert worst_primitive < 1e-4, primitive_checks

    # end-to-end loss gradient on the tiny configuration, dropout off, float64
    cfg = TSTConfig(L=32, ns=4, dim=8, dim_mlp=16, d_k=4, heads=2, depth=1,
                    n_class=10, p_drop=0.0)
    model = TSTModel(cfg, seed=3, dtype=np.float64)
    # the head is zero-initialized; give it signal so gradients reach the body
    head_rng = np.random.default_rng(23)
    model.w_head.data = head_rng.normal(0.0, 0.3, size=model.w_head.shape)
    model.b_head.data = head_rng.normal(0.0, 0.3, size=model.b_head.shape)
    x = np.random.default_rng(7).normal(size=(2, 32))
    labels = np.array([2, 9])

    loss = cross_entropy_from_logits(model.forward(x).logits, labels)
    params = [p for _, p in model.parameters()]
    worst_e2e = 0.0
    for p, grad in zip(params, backward(loss, params)):
        def f(arrays, p=p):
            saved = p.data
            p.data = arrays[0]
            try:
                return cross_entropy_from_logits(model.forward(x).logits, labels).item()
            finally:
                p.data = saved
        numeric = numerical_grads(f, [p.data], h=1e-4)[0]
        worst_e2e = max(worst_e2e, max_rel_error(grad, numeric))
    assert worst_e2e < 1e-3

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(3, f"{len(primitive_checks)} primitives worst {worst_primitive:.1e} (< 1e-4); "
              f"end-to-end worst {worst_e2e:.1e} (< 1e-3) in {elapsed:.1f}s")


def test_criterion_4_structural_invariants(rng):
    start = time.monotonic()

    # softmax row-stochasticity at large magnitude
    s = T.softmax(Tensor(rng.normal(size=(8, 11)) * 1e3), axis=-1).data
    assert np.all(s >= 0) and np.allclose(s.sum(axis=1), 1.0, atol=1e-6)

    # layer_norm moments
    out = T.layer_norm(Tensor(rng.normal(size=(6, 16))), Tensor(np.ones(16)),
                       Tensor(np.zeros(16))).data
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-5
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-3

    # residual degeneracy: zeroed output projections make every block the identity
    from tst.transformer import TransformerStack, stack_forward
    stack = TransformerStack.init(3, 6, 12, 2, 3, np.random.default_rng(0), np.float64)
    for blk in stack.blocks:
        blk.w_o = Tensor(np.zeros(blk.w_o.shape))
        blk.w2 = Tensor(np.zeros(blk.w2.shape))
        blk.b2 = Tensor(np.zeros(blk.b2.shape))
    tokens = rng.normal(size=(2, 5, 6))
    feature, _ = stack_forward(Tensor(tokens), stack)
    expected = T.layer_norm(Tensor(tokens[:, 0, :]), stack.final_gain, stack.final_bias).data
    np.testing.assert_allclose(feature.data, expected, atol=1e-12)

    # logit-shift invariance
    logits = rng.normal(size=(5, 10))
    p1 = T.softmax(Tensor(logits), axis=-1).data
    p2 = T.softmax(Tensor(logits + 123.0), axis=-1).data
    assert np.max(np.abs(p1 - p2)) < 1e-6

    # class-token permutation invariance without positions, sensitivity with them
    def feature_for(pos, permute):
        cfg = TSTConfig(L=24, ns=6, dim=8, dim_mlp=16, d_k=4, heads=2, depth=2,
                        n_class=4, p_drop=0.0, pos_encoding=pos)
        model = TSTModel(cfg, seed=5, dtype=np.float64)
        x = np.random.default_rng(31).normal(size=(3, 24))
        if permute:
            x = x.reshape(3, 6, 4)[:, [4, 2, 0, 5, 3, 1], :].reshape(3, 24)
        return model.forward(x).class_tokens[-1].data

    base_off = feature_for("none", False)
    perm_off = feature_for("none", True)
    assert np.max(np.abs(base_off - perm_off)) < 1e-5
    base_on = feature_for("1d", False)
    perm_on = feature_for("1d", True)
    assert np.max(np.abs(base_on - perm_on)) > 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(4, f"row-stochastic softmax, LayerNorm moments, residual degeneracy, "
              f"logit shift, permutation (in)variance all hold in {elapsed:.1f}s")


def test_criterion_5_training_sanity(desk_run):
    model, split, trial, elapsed = desk_run
    best = max(trial.test_acc)
    best_epoch = int(np.argmax(trial.test_acc))
    assert best >= 0.95, trial.test_acc
    assert len(trial.test_acc) <= 30
    assert elapsed < 15 * 60
    report(5, f"scaled-down stock model reached {best:.1%} test accuracy "
              f"(epoch {best_epoch}, final {trial.test_acc[-1]:.1%}) on the 10-class "
              f"synthetic set in {elapsed / 60:.1f} min")


def test_criterion_6_subsequence_length_trend():
    start = time.monotonic()
    windows = data.generate_synthetic(data.default_synthetic_spec(), 200,
                                      seed=42, length=512)
    split = data.split_train_test(windows, 1556, 444, seed=1)
    means = {}
    for ns in (64, 1):     # subsequence lengths 8 and 512
        cfg = TSTConfig(L=512, ns=ns, dim=32, dim_mlp=64, d_k=16, heads=2, depth=2,
                        n_class=10, epochs=10, batch_size=64, lr=1e-3)
        study = repeat_trials(split, cfg, seeds=[101, 102, 103, 104, 105])
        means[512 // ns] = study.avg_acc
    elapsed = time.monotonic() - start
    assert means[512] < means[8], means
    assert elapsed < 45 * 60
    report(6, f"5-seed mean accuracy: subsequence length 8 -> {means[8]:.1%}, "
              f"512 -> {means[512]:.1%} (strictly lower) in {elapsed / 60:.1f} min")


def test_criterion_7_optimizer_and_schedule():
    for e in range(50):
        assert lr_at_epoch(e, TSTConfig()) == 3e-5 * 0.8 ** (e // 10)
    assert lr_at_epoch(0, TSTConfig()) == 3e-5
    assert abs(lr_at_epoch(10, TSTConfig()) - 2.4e-5) < 1e-18
    assert abs(lr_at_epoch(49, TSTConfig()) - 1.2288e-5) < 1e-12

    rng = np.random.default_rng(4)
    grads = rng.normal(size=40)
    p = Tensor(np.array([0.1]), requires_grad=True)
    state = AdamState.init([p])
    x, m, v = 0.1, 0.0, 0.0
    worst = 0.0
    for t, g in enumerate(grads, start=1):
        adam_step([p], [np.array([g])], state, lr=2e-3)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 2e-3 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        worst = max(worst, abs(float(p.data[0]) - x))
    assert worst < 1e-12
    report(7, f"lr schedule exact over 50 epochs; 40-step Adam trace within "
              f"{worst:.1e} of the scalar recurrence")


def test_criterion_8_tsne():
    start = time.monotonic()
    gen = np.random.default_rng(0)
    feats = np.vstack([gen.normal(size=(20, 10)), gen.normal(size=(20, 10)) + 100.0])
    labels = np.array([0] * 20 + [1] * 20)
    embedded = analysis.tsne_embed(feats, perplexity=10, iterations=1000, seed=1,
                                   learning_rate=50.0)

    coords = np.hstack([embedded, np.ones((40, 1))])
    target = np.where(labels == 1, 1.0, -1.0)
    w = np.zeros(3)
    for _ in range(1000):
        mistakes = 0
        for i in range(40):
            if target[i] * (coords[i] @ w) <= 0:
                w += target[i] * coords[i]
                mistakes += 1
        if mistakes == 0:
            break
    accuracy = float(np.mean((coords @ w > 0).astype(int) == labels))
    assert accuracy == 1.0
    # the same seed's first 250 iterations end where exaggeration stops
    kl_final = tsne_kl(feats, embedded, 10)
    kl_after_exaggeration = tsne_kl(feats, analysis.tsne_embed(
        feats, perplexity=10, iterations=250, seed=1, learning_rate=50.0), 10)
    assert kl_final < kl_after_exaggeration
    rerun = analysis.tsne_embed(feats, perplexity=10, iterations=1000, seed=1,
                                learning_rate=50.0)
    assert np.array_equal(embedded, rerun)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(8, f"two-cluster perceptron accuracy 100%; KL {kl_final:.3f} < "
              f"post-exaggeration {kl_after_exaggeration:.3f}; seeded reruns "
              f"identical, in {elapsed:.1f}s")


def test_criterion_9_determinism_and_persistence(tmp_path, desk_run):
    model, split, trial, _ = desk_run

    # bit-identical re-training on a quick configuration
    classes = (
        data.ClassSpec(rep_hz=600.0, res_hz=1200.0, decay=800.0, amplitude=2.5, noise_std=0.2),
        data.ClassSpec(rep_hz=1500.0, res_hz=3600.0, decay=2500.0, amplitude=2.5, noise_std=0.2),
    )
    windows = data.generate_synthetic(classes, 20, seed=5, length=64)
    quick_split = data.split_train_test(windows, 30, 10, seed=2)
    cfg = TSTConfig(L=64, ns=16, dim=16, dim_mlp=32, d_k=8, heads=2, depth=2,
                    n_class=2, epochs=3, batch_size=8, lr=1e-3)
    reports, digests = [], []
    for _ in range(2):
        m = TSTModel(cfg, seed=13)
        reports.append(train(m, quick_split, cfg, seed=13))
        digests.append(np.concatenate([p.data.ravel() for _, p in m.parameters()]).tobytes())
    assert reports[0] == reports[1]
    assert digests[0] == digests[1]

    # checkpoint round-trip preserves forward outputs exactly
    path = tmp_path / "desk.tst"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    x, _ = data.windows_to_arrays(split.test[:64])
    np.testing.assert_array_equal(model.forward(x).logits.data,
                                  loaded.forward(x).logits.data)
    report(9, "same-seed retraining bit-identical; checkpoint round-trip "
              "forward outputs exact")


def test_criterion_10_four_class_collapse(desk_run, rng):
    for _ in range(30):
        true = rng.integers(0, 10, size=300)
        pred = rng.integers(0, 10, size=300)
        m = analysis.confusion(true, pred, n_class=10)
        assert (analysis.accuracy_from_confusion(analysis.collapse_to_4class(m))
                >= analysis.accuracy_from_confusion(m))

    model, split, trial, _ = desk_run
    x, y = data.windows_to_arrays(split.test)
    m10 = analysis.confusion(y, model.predict(x), n_class=10)
    acc10 = analysis.accuracy_from_confusion(m10)
    acc4 = analysis.accuracy_from_confusion(analysis.collapse_to_4class(m10))
    assert acc4 >= acc10
    report(10, f"collapse never lowers accuracy (30 random matrices); desk run "
               f"10-class {acc10:.1%} -> 4-class {acc4:.1%}")
