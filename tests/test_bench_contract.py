"""The benchmark's view of the package.

``bench/tracer.py`` patches package names from outside ``src/`` and reads
graph internals (``Tape.nodes``, ``_Node.is_leaf``, ``Tensor._vjp``). A name
it relies on that disappears would only show when the benchmark runs, so
this drives the tracer over one tiny training epoch. It reads ``bench/``
and changes nothing there.
"""

from pathlib import Path

from tst import data, training
from tst.model import TSTConfig, TSTModel

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_tracer_sees_training_attention_and_backward(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import macs
    import tracer

    cfg = TSTConfig(L=16, ns=4, dim=8, dim_mlp=8, d_k=4, heads=2, depth=2, n_class=2,
                    epochs=1, batch_size=4, lr=1e-3)
    spec = data.SyntheticSpec(classes=data.default_synthetic_spec().classes[:2])
    windows = data.generate_synthetic(spec, 6, seed=0, length=cfg.L)
    split = data.split_train_test(windows, 8, 4, seed=0)
    trace = tracer.Tracer()
    with trace.installed():
        training.train(TSTModel(cfg, seed=0), split, cfg, seed=0)

    names = {span[0] for span in trace.spans}
    assert {"training.train", "transformer.multi_head", "tensor.Tape.run_backward"} <= names
    assert any(name.endswith(".vjp") for name in names)
    metrics = trace.layer_metrics(macs.layer_macs(cfg))
    assert metrics["tensor.tape_nodes"] > 0 and metrics["training.step_s"] > 0
