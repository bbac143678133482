"""Span tracing of the tst layers, installed from outside the package.

``Tracer`` replaces each layer's public functions with timing wrappers,
patching every name where it is looked up: ``model.py`` imports ``tokenize``
and ``stack_forward`` by name, ``training.py`` imports
``cross_entropy_from_logits`` and ``windows_to_arrays``, while the tensor
primitives are always called as ``T.<op>`` (the operator sugar included),
so patching the ``tst.tensor`` attributes catches every call. Each node a
primitive records gets its pullback wrapped as well, and the pullback's time
is charged both to the primitive and to the module whose function created
the node. The wrappers only time and count; the arithmetic is unchanged.

A span is ``[name, start, end, parent, info]``: spans are kept in memory in
the order they open, so a parent always precedes its children. ``info`` is
the batch size for ``model.forward[...]``, the creating module for a
pullback, and ``(ops_recorded, tape_nodes)`` for ``tensor.Tape.__init__``.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from macs import BACKWARD_FACTOR
from tst import data, tensor, training, transformer
from tst import model as tstmodel

PRIMITIVES = ("add", "neg", "sub", "mul", "matmul", "softmax", "log_softmax", "layer_norm",
              "gelu", "dropout", "concat", "reshape", "transpose", "tslice", "broadcast_to",
              "mean", "tsum", "log", "gather_rows")
# reported one by one; every other primitive is summed into "other"
OP_GROUPS = ("matmul", "softmax", "gelu", "layer_norm", "dropout", "transpose", "add", "mul",
             "reshape", "other")

# (object the name is looked up on, attribute, span name)
BOUNDARIES = (
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (training, "adam_step", "training.adam_step"),
    (training, "cross_entropy_from_logits", "model.cross_entropy_from_logits"),
    (training, "windows_to_arrays", "data.windows_to_arrays"),
    (data, "windows_to_arrays", "data.windows_to_arrays"),
    (data, "load_csv", "data.load_csv"),
    (tstmodel, "tokenize", "tokenizer.tokenize"),
    (tstmodel, "stack_forward", "transformer.stack_forward"),
    (tstmodel, "load_checkpoint", "model.load_checkpoint"),
    (tstmodel.TSTModel, "__init__", "model.TSTModel.__init__"),
    (transformer, "block_forward", "transformer.block_forward"),
    (transformer, "multi_head", "transformer.multi_head"),
    (tensor.Tape, "run_backward", "tensor.Tape.run_backward"),
)

# module span -> the layer its own (non-module) work is charged to
LAYER_OF = {
    "tokenizer.tokenize": "tokenizer",
    "transformer.multi_head": "transformer.attention",
    "transformer.block_forward": "transformer.mlp_norm",
    "transformer.stack_forward": "transformer.final_norm",
    "model.forward[train]": "model.head",
    "model.forward[eval]": "model.head",
    "model.cross_entropy_from_logits": "model.loss",
}
# layer -> the cost_report part (bench/macs.py) its GFLOP/s is computed from
GFLOPS_LAYERS = {
    "tokenizer": "embedding",
    "transformer.attention": "attention",
    "transformer.mlp_norm": "mlp",
}
SET_UP_LAYERS = {
    "data.load_csv_s": "data.load_csv",
    "data.windows_to_arrays_s": "data.windows_to_arrays",
    "model.init_s": "model.TSTModel.__init__",
    "model.load_checkpoint_s": "model.load_checkpoint",
}


@contextmanager
def patched(targets):
    """Install ``wrap(original)`` at each ``(obj, attr, wrap)``; restore on exit."""
    saved = []
    try:
        for obj, attr, wrap in targets:
            original = getattr(obj, attr)
            saved.append((obj, attr, original))
            setattr(obj, attr, wrap(original))
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def _group(op: str) -> str:
    return op if op in OP_GROUPS else "other"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._recorded = 0    # nodes recorded since the last training forward began

    # -- recording -------------------------------------------------------

    def _enter(self, name: str, info=None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, info])
        self._open.append(index)
        return index

    def _exit(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def phase(self, name: str):
        """A span opened by the benchmark itself, e.g. around one set-up."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _function(self, name):
        def wrap(fn):
            def traced(*args, **kwargs):
                index = self._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(index)
            return traced
        return wrap

    def _forward(self, fn):
        def traced(model, x, training=False, rng=None):
            if training:
                self._recorded = 0
            index = self._enter("model.forward[train]" if training else "model.forward[eval]",
                                len(x))
            try:
                return fn(model, x, training=training, rng=rng)
            finally:
                self._exit(index)
        return traced

    def _tape_init(self, fn):
        def traced(tape, root):
            index = self._enter("tensor.Tape.__init__")
            try:
                fn(tape, root)
            finally:
                self._exit(index)
            interior = sum(1 for node in tape.nodes() if not node.is_leaf())
            self.spans[index][4] = (self._recorded, interior)
        return traced

    def _primitive(self, op):
        name = "tensor." + op
        pullback_name = name + ".vjp"

        def wrap(fn):
            def traced(*args, **kwargs):
                owner = self.spans[self._open[-1]][0] if self._open else None
                index = self._enter(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(index)
                if out._vjp is not None and all(out is not a for a in args):
                    self._recorded += 1
                    out._vjp = self._pullback(out._vjp, pullback_name, owner)
                return out
            return traced
        return wrap

    def _pullback(self, vjp, name, owner):
        def traced(g):
            index = self._enter(name, owner)
            try:
                return vjp(g)
            finally:
                self._exit(index)
        return traced

    @contextmanager
    def installed(self):
        targets = [(obj, attr, self._function(name)) for obj, attr, name in BOUNDARIES]
        targets.append((tstmodel.TSTModel, "forward", self._forward))
        targets.append((tensor.Tape, "__init__", self._tape_init))
        targets += [(tensor, op, self._primitive(op)) for op in PRIMITIVES]
        with patched(targets):
            yield self

    # -- analysis ----------------------------------------------------------

    def main_call(self) -> int:
        """Index of the one root span of ``train()`` or ``evaluate()``."""
        roots = [i for i, s in enumerate(self.spans)
                 if s[3] == -1 and s[0] in ("training.train", "training.evaluate")]
        if len(roots) != 1:
            raise ValueError(f"expected one traced train()/evaluate() call, found {len(roots)}")
        return roots[0]

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, and self seconds (minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(table)

    def layer_metrics(self, macs: dict[str, int]) -> dict[str, float]:
        """Per-layer figures for the traced main call, plus set-up layers.

        Set-up layers and ``training.step_s``/``adam_step_s`` are medians per
        call; every other ``*_s`` is a total over the main call.
        """
        spans = self.spans
        main = self.main_call()
        root = [0] * len(spans)
        module_child = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0 and not name.startswith("tensor."):
                module_child[parent] += end - start

        fwd, bwd = defaultdict(float), defaultdict(float)
        op_fwd, op_bwd, op_calls = defaultdict(float), defaultdict(float), defaultdict(int)
        total = defaultdict(float)
        pullbacks = 0.0
        windows = {"train": 0, "eval": 0}
        per_call = defaultdict(list)
        steps, step_counts = [], []
        step_start = None
        for i, (name, start, end, parent, info) in enumerate(spans):
            seconds = end - start
            if root[i] != main:
                if name in SET_UP_LAYERS.values():
                    per_call[name].append(seconds)
                continue
            total[name] += seconds
            if name in LAYER_OF:
                fwd[LAYER_OF[name]] += seconds - module_child[i]
            if name.startswith("model.forward["):
                mode = "train" if name.endswith("[train]") else "eval"
                windows[mode] += info
                if mode == "train":
                    step_start = start
            elif name.endswith(".vjp"):
                op = name[len("tensor."):-len(".vjp")]
                op_bwd[_group(op)] += seconds
                bwd[LAYER_OF.get(info, "other")] += seconds
                pullbacks += seconds
            elif name.startswith("tensor.") and name[len("tensor."):] in PRIMITIVES:
                op = _group(name[len("tensor."):])
                op_fwd[op] += seconds
                op_calls[op] += 1
            elif name == "tensor.Tape.__init__":
                step_counts.append(info)
            elif name == "training.adam_step":
                per_call[name].append(seconds)
                steps.append(end - step_start)

        def median(values):
            return statistics.median(values) if values else 0.0

        out = {key: median(per_call[name]) for key, name in SET_UP_LAYERS.items()}
        out["model.forward_train_s"] = total["model.forward[train]"]
        out["model.forward_eval_s"] = total["model.forward[eval]"]
        out["model.head.fwd_s"] = fwd["model.head"]
        out["model.head.bwd_s"] = bwd["model.head"]
        out["model.loss.fwd_s"] = fwd["model.loss"]
        # windows through a forward, and the 2x-forward MACs of each backward
        work = windows["train"] + windows["eval"] + BACKWARD_FACTOR * windows["train"]
        for layer in ("tokenizer", "transformer.attention", "transformer.mlp_norm"):
            out[f"{layer}.fwd_s"] = fwd[layer]
            out[f"{layer}.bwd_s"] = bwd[layer]
            busy = fwd[layer] + bwd[layer]
            flops = 2.0 * macs[GFLOPS_LAYERS[layer]] * work
            out[f"{layer}.gflops"] = flops / busy / 1e9 if busy else 0.0
        out["transformer.final_norm.fwd_s"] = fwd["transformer.final_norm"]
        for op in OP_GROUPS:
            out[f"tensor.{op}.fwd_s"] = op_fwd[op]
            out[f"tensor.{op}.bwd_s"] = op_bwd[op]
            out[f"tensor.{op}.calls"] = op_calls[op]
        out["tensor.tape_build_s"] = total["tensor.Tape.__init__"]
        out["tensor.run_backward_s"] = total["tensor.Tape.run_backward"]
        out["tensor.backward_overhead_s"] = total["tensor.Tape.run_backward"] - pullbacks
        recorded, reachable = step_counts[0] if step_counts else (0, 0)
        if any(c != (recorded, reachable) for c in step_counts):
            raise ValueError(f"graph counts differ between training steps: {set(step_counts)}")
        out["tensor.ops_recorded"] = recorded
        out["tensor.tape_nodes"] = reachable
        out["tensor.useful_op_ratio"] = reachable / recorded if recorded else 1.0
        out["training.step_s"] = median(steps)
        out["training.adam_step_s"] = median(per_call["training.adam_step"])
        out["training.evaluate_s"] = total["training.evaluate"]
        main_seconds = spans[main][2] - spans[main][1]
        covered = sum(end - start for _, start, end, parent, _ in spans if parent == main)
        out["trace.unattributed_share"] = 1.0 - covered / main_seconds
        return out


def retained_bytes(forward) -> dict[str, int]:
    """``tracemalloc`` deltas across one forward: the whole forward, and the
    attention and rest-of-block calls summed over blocks. Run untraced, as
    tracemalloc slows every allocation."""
    deltas = defaultdict(int)

    def measure(key):
        def wrap(fn):
            def measured(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                out = fn(*args, **kwargs)
                deltas[key] += tracemalloc.get_traced_memory()[0] - before
                return out
            return measured
        return wrap

    with patched([(transformer, "multi_head", measure("attention")),
                  (transformer, "block_forward", measure("block"))]):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = forward()   # kept alive, so the delta is what it retains
            whole = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    return {
        "tensor.retained_bytes": whole,
        "transformer.attention.retained_bytes": deltas["attention"],
        "transformer.mlp_norm.retained_bytes": deltas["block"] - deltas["attention"],
    }
