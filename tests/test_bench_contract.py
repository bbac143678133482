"""The benchmark's view of the package.

``bench/tracer.py`` patches package names from outside ``src/`` and reads
graph internals (``Tape.nodes``, ``_Node.is_leaf``, ``Tensor._vjp``). A name
it relies on that disappears would only show when the benchmark runs, so
this drives the tracer over one tiny training epoch, whose Adam steps use
the gradients ``Tape.run_backward`` returns through the tracer's wrapper;
over two epochs whose steps run as two row shards on two threads; and over
one evaluation, whose forwards run as two half-batches on two threads
(where numpy bundles OpenBLAS). It reads
``bench/`` and changes nothing there.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from tst import data, training
from tst import model as tstmodel
from tst.model import TSTConfig, TSTModel

BENCH = Path(__file__).resolve().parent.parent / "bench"


CFG = TSTConfig(L=16, ns=4, dim=8, dim_mlp=8, d_k=4, heads=2, depth=2, n_class=2,
                epochs=1, batch_size=4, lr=1e-3)


def tiny_split():
    windows = data.generate_synthetic(data.default_synthetic_spec()[:2], 6, seed=0, length=CFG.L)
    return data.split_train_test(windows, 8, 4, seed=0)


def test_bench_tracer_sees_training_attention_and_backward(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import macs
    import tracer

    cfg, split = CFG, tiny_split()
    model = TSTModel(cfg, seed=0)
    initial = {name: p.data.copy() for name, p in model.parameters()}
    trace = tracer.Tracer()
    with trace.installed():
        training.train(model, split, cfg, seed=0)

    names = {span[0] for span in trace.spans}
    assert {"training.train", "transformer.multi_head", "tensor.Tape.run_backward"} <= names
    assert any(name.endswith(".vjp") for name in names)
    metrics = trace.layer_metrics(macs.layer_macs(cfg))
    assert metrics["tensor.tape_nodes"] > 0 and metrics["training.step_s"] > 0
    # the wrapped run_backward passed every parameter's gradient on to Adam
    for name, p in model.parameters():
        assert np.all(np.isfinite(p.data)), name
        assert not np.array_equal(p.data, initial[name]), name


def test_bench_tracer_counts_each_evaluated_window_once(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import macs
    import tracer

    monkeypatch.setattr(TSTModel, "_HALF_MIN", 1)   # split even these tiny batches
    monkeypatch.setattr(tstmodel, "_CORES", 2)   # on two threads, as on a host of two cores
    x, y = data.windows_to_arrays(tiny_split().train)   # 8 windows: batches of 4 and 3
    x, y = x[:7], y[:7]
    trace = tracer.Tracer()
    with trace.installed():
        training.evaluate(TSTModel(CFG, seed=0), x, y, CFG.batch_size)

    trace.layer_metrics(macs.layer_macs(CFG))
    evaluated = [span[4] for span in trace.spans if span[0] == "model.forward[eval]"]
    assert sum(evaluated) == len(x) and evaluated == [4, 3]


def test_bench_tracer_sees_one_graph_count_per_step_with_shards_on_two_threads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import macs
    import tracer

    monkeypatch.setattr(TSTModel, "_HALF_MIN", 1)   # two shards, however small the model
    monkeypatch.setattr(tstmodel, "_CORES", 2)   # the second shard runs on a worker
    cfg, split = replace(CFG, epochs=2), tiny_split()   # 8 windows: batches of 4 per epoch
    trace = tracer.Tracer()
    with trace.installed():
        training.train(TSTModel(cfg, seed=0), split, cfg, seed=0)

    metrics = trace.layer_metrics(macs.layer_macs(cfg))
    counts = [span[4] for span in trace.spans if span[0] == "tensor.Tape.__init__"]
    assert len(counts) == cfg.epochs * 2 * 2 and len(set(counts)) == 1   # 2 steps of 2 shards
    assert (metrics["tensor.ops_recorded"], metrics["tensor.tape_nodes"]) == counts[0]
    trained = [span[4] for span in trace.spans if span[0] == "model.forward[train]"]
    assert trained == [4, 4] * cfg.epochs
