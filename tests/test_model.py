import dataclasses
import hashlib
import json
import math
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FUZZ, call_bounded
from oracles import cross_entropy
from tst import model as tstmodel
from tst.errors import ConfigError, DataError
from tst.model import (TSTConfig, TSTModel, cross_entropy_from_logits, load_checkpoint,
                       save_checkpoint)
from tst.tensor import Tape, Tensor, backward, log_softmax
from tst.training import AdamState, adam_step

TINY = dict(L=32, ns=4, dim=8, dim_mlp=16, d_k=4, heads=2, depth=1, n_class=10,
            p_drop=0.0, batch_size=4, epochs=1)


def tiny_model(seed=0, **overrides):
    return TSTModel(TSTConfig(**{**TINY, **overrides}), seed=seed)


def test_default_config_is_stock():
    cfg = TSTConfig()
    assert (cfg.L, cfg.ns, cfg.sub_len, cfg.dim, cfg.dim_mlp) == (2048, 256, 8, 128, 256)
    assert (cfg.d_k, cfg.heads, cfg.depth, cfg.p_drop) == (64, 6, 6, 0.1)
    assert (cfg.pos_encoding, cfg.n_class) == ("1d", 10)
    assert (cfg.lr, cfg.lr_step, cfg.lr_gamma) == (3e-5, 10, 0.8)
    assert (cfg.batch_size, cfg.epochs) == (128, 50)


def test_config_validation_rejects_bad_combos():
    with pytest.raises(ConfigError):
        TSTConfig(ns=3).validate()          # 2048 % 3 != 0
    with pytest.raises(ConfigError):
        TSTConfig(p_drop=1.0).validate()
    with pytest.raises(ConfigError):
        TSTConfig(pos_encoding="2d").validate()
    with pytest.raises(ConfigError):
        TSTConfig.from_dict({"dim": 32, "bogus": 1})
    with pytest.raises(ConfigError):
        TSTConfig(L=0, ns=1).validate()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            TSTConfig(lr=bad).validate()
        with pytest.raises(ConfigError, match="finite"):
            TSTConfig(lr_gamma=bad).validate()


def test_config_int_fields_must_fit_u32():
    assert tstmodel._INT_FIELDS == ("L", "ns", "dim", "dim_mlp", "d_k", "heads", "depth",
                                    "n_class", "lr_step", "batch_size", "epochs")
    assert tstmodel._FLOAT_FIELDS == ("p_drop", "lr", "lr_gamma")
    TSTConfig(epochs=2**32 - 1).validate()
    for name in tstmodel._INT_FIELDS:
        with pytest.raises(ConfigError, match=name):
            TSTConfig(**{name: 2**32}).validate()


@pytest.mark.parametrize("field, value", [
    ("dim", "32"), ("dim", 32.5), ("epochs", True), ("batch_size", None),
    ("p_drop", None), ("lr", "1e-3"), ("lr_gamma", False), ("pos_encoding", 1),
    pytest.param("lr", 10**400, id="lr-int_beyond_f64"),
])
def test_config_fields_must_have_their_types(field, value):
    with pytest.raises(ConfigError, match=field):
        TSTConfig(**{field: value}).validate()


def test_config_accepts_ints_for_floats_and_numpy_scalars():
    """An int where a float is declared is a number; numpy scalars are too."""
    TSTConfig(p_drop=0, lr=1, lr_gamma=np.float32(0.5), dim=np.int64(64)).validate()


def test_config_is_frozen():
    cfg = TSTConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.batch_size = 7
    assert cfg.batch_size == 128 and dataclasses.replace(cfg, batch_size=7).batch_size == 7


def test_save_checkpoint_rejects_field_beyond_u32(tmp_path):
    model = tiny_model()
    model.config = dataclasses.replace(model.config, epochs=2**32)
    with pytest.raises(ConfigError, match="epochs"):
        save_checkpoint(model, tmp_path / "model.tst")
    assert not (tmp_path / "model.tst").exists()


def test_probs_rows_sum_to_one(rng):
    model = tiny_model()
    res = model.forward(rng.normal(size=(5, 32)))
    probs = np.exp(log_softmax(res.logits, axis=-1).data)   # what the loss reads
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_zero_head_gives_uniform_probs(rng):
    model = tiny_model()
    model.w_head = Tensor(np.zeros((8, 10), dtype=np.float32), requires_grad=True)
    model.b_head = Tensor(np.zeros(10, dtype=np.float32), requires_grad=True)
    res = model.forward(rng.normal(size=(3, 32)))
    np.testing.assert_array_equal(res.logits.data, 0.0)    # equal logits: uniform probs
    assert abs(cross_entropy_from_logits(res.logits, [1, 5, 9]).item() - math.log(10)) < 1e-6
    # uniform probs tie-break to class 0
    np.testing.assert_array_equal(model.predict(rng.normal(size=(3, 32))), 0)


def _bound_values(fn):
    """Everything a function's closure binds, through nested helpers and
    tuples or lists."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        yield value
        if isinstance(value, (tuple, list)):
            yield from value
        elif hasattr(value, "__closure__"):
            yield from _bound_values(value)


def test_training_forward_pullbacks_hold_no_tensor(rng):
    model = tiny_model(p_drop=0.1, depth=2)
    x = rng.normal(size=(3, model.config.L))
    result = model.forward(x, training=True, rng=np.random.default_rng(0))
    loss = cross_entropy_from_logits(result.logits, [1, 2, 3])
    nodes = Tape(loss).nodes()
    pullbacks = [node._vjp for node in nodes if not node.is_leaf()]
    assert len(pullbacks) > 30
    assert not any(isinstance(v, Tensor) for fn in pullbacks for v in _bound_values(fn))
    # the leaves are exactly the parameters, each once
    leaves = [node for node in nodes if node.is_leaf()]
    assert sorted(map(id, leaves)) == sorted(id(p._node) for _, p in model.parameters())


def test_concurrent_backward_matches_serial_and_mutates_no_parameter():
    model = TSTModel(TSTConfig(**{**TINY, "depth": 2}), seed=8, dtype=np.float64)
    # the zero head would stop every gradient at the head
    model.w_head.data = np.random.default_rng(9).normal(0.0, 0.3, size=model.w_head.shape)
    params = [p for _, p in model.parameters()]
    # one loss per thread, more threads than this host's two cores
    rngs = [np.random.default_rng(s) for s in range(10, 14)]
    batches = [(r.normal(size=(6, 32)), r.integers(0, 10, 6)) for r in rngs]
    before = [(p.data, p.data.copy(), p._node) for p in params]

    def gradients(x, labels):
        loss = cross_entropy_from_logits(model.forward(x).logits, labels)
        assert loss.dtype == np.float64
        return backward(loss, params)

    serial = [gradients(*batch) for batch in batches]
    start = threading.Barrier(len(batches))

    def run(batch):
        start.wait(timeout=60)
        return gradients(*batch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, so backward passes interleave
    try:
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=len(batches)) as pool:
                concurrent = list(pool.map(run, batches, timeout=120))
            for got, want in zip(concurrent, serial):
                assert all(g is not None for g in got)
                for g, w in zip(got, want):
                    np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    finally:
        sys.setswitchinterval(interval)
    for p, (data, copy, node) in zip(params, before):
        assert p.data is data and np.array_equal(p.data, copy)
        assert p._node is node and node.is_leaf() and node._parents == ()


def test_predict_matches_forward(rng):
    model = tiny_model(seed=4)
    x = rng.normal(size=(5, 32))
    np.testing.assert_array_equal(model.predict(x),
                                  np.argmax(model.forward(x).logits.data, axis=1))


def test_logit_shift_invariance(rng):
    logits = rng.normal(size=(4, 10))
    from tst.tensor import softmax
    p1 = softmax(Tensor(logits), axis=-1).data
    p2 = softmax(Tensor(logits + 37.5), axis=-1).data
    np.testing.assert_allclose(p1, p2, atol=1e-6)


def test_cross_entropy_perfect_and_uniform():
    one_hot = np.zeros((2, 10))
    one_hot[0, 3] = one_hot[1, 7] = 1.0
    assert cross_entropy(Tensor(one_hot), np.array([3, 7])).item() == 0.0
    uniform = np.full((4, 10), 0.1)
    assert abs(cross_entropy(Tensor(uniform), np.zeros(4, dtype=int)).item()
               - math.log(10)) < 1e-6


def test_cross_entropy_hand_case():
    probs = np.zeros((2, 10))
    probs[0, :2] = 0.5          # true class 0 -> -log 0.5
    probs[1, 4] = 0.25          # true class 4 -> -log 0.25
    probs[1, 5] = 0.75
    expected = -(math.log(0.5) + math.log(0.25)) / 2.0
    got = cross_entropy(Tensor(probs), np.array([0, 4])).item()
    assert abs(got - expected) < 1e-7


def test_cross_entropy_from_logits_agrees_and_is_stable(rng):
    logits = rng.normal(size=(5, 10)) * 3
    labels = rng.integers(0, 10, size=5)
    from tst.tensor import softmax
    a = cross_entropy(softmax(Tensor(logits), axis=-1), labels).item()
    b = cross_entropy_from_logits(Tensor(logits), labels).item()
    assert abs(a - b) < 1e-6
    huge = cross_entropy_from_logits(Tensor(logits * 1000), labels)
    assert math.isfinite(huge.item()) and huge.item() >= 0.0


def test_cross_entropy_nonnegative(rng):
    for _ in range(20):
        logits = rng.normal(size=(3, 10)) * rng.uniform(0.1, 10)
        labels = rng.integers(0, 10, size=3)
        assert cross_entropy_from_logits(Tensor(logits), labels).item() >= 0.0


def test_label_range_checked():
    with pytest.raises(DataError):
        cross_entropy_from_logits(Tensor(np.zeros((2, 10))), np.array([0, 10]))


def test_input_validation(rng):
    model = tiny_model()
    with pytest.raises(ConfigError):
        model.forward(rng.normal(size=(2, 31)))
    bad = rng.normal(size=(2, 32))
    bad[0, 0] = np.nan
    with pytest.raises(DataError):
        model.forward(bad)


def test_parameter_enumeration_is_deterministic():
    names_a = [n for n, _ in tiny_model(seed=1).parameters()]
    names_b = [n for n, _ in tiny_model(seed=9).parameters()]
    assert names_a == names_b
    assert names_a[0] == "tokenizer.w_embed" and names_a[-1] == "head.b"


def test_same_seed_same_init():
    pa = tiny_model(seed=5).parameters()
    pb = tiny_model(seed=5).parameters()
    for (_, a), (_, b) in zip(pa, pb):
        np.testing.assert_array_equal(a.data, b.data)


def test_single_adam_step_decreases_batch_loss(rng):
    model = tiny_model(seed=2)
    x = rng.normal(size=(4, 32)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    params = [p for _, p in model.parameters()]
    before = cross_entropy_from_logits(model.forward(x).logits, labels)
    adam_step(params, backward(before, params), AdamState.init(params), lr=1e-6)
    after = cross_entropy_from_logits(model.forward(x).logits, labels)
    assert after.item() < before.item()


def test_checkpoint_roundtrip(tmp_path, rng):
    model = tiny_model(seed=7)
    path = tmp_path / "model.tst"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        np.testing.assert_array_equal(a.data, b.data)  # bit-exact
    x = rng.normal(size=(3, 32)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x).logits.data,
                                  loaded.forward(x).logits.data)


# SHA-256 of the TST1 files two tiny seeded models save. Any change to the
# config field lists, their order, or the parameter enumeration moves these.
TST1_SHA256 = {
    "1d": "91a193a7d171a577ce4888745a6f65af66a33ac564d4f4bf52a1e8bb5c20056c",
    "none": "8ba78a429965190563cf1e6bdd9229ce680a08e920ca9b775d1e36e33189afb8",
}


@pytest.mark.parametrize("pos", ["1d", "none"])
def test_checkpoint_byte_layout_is_pinned(tmp_path, pos):
    path = tmp_path / "model.tst"
    save_checkpoint(tiny_model(seed=3, pos_encoding=pos), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TST1_SHA256[pos]


def test_checkpoint_mismatched_config(tmp_path):
    model = tiny_model(seed=1)
    path = tmp_path / "model.tst"
    save_checkpoint(model, path)
    wrong = TSTConfig(**{**TINY, "dim": 16})
    with pytest.raises(ConfigError):
        load_checkpoint(path, expected_config=wrong)


def test_checkpoint_truncated_and_bad_magic(tmp_path):
    model = tiny_model(seed=1)
    path = tmp_path / "model.tst"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    (tmp_path / "cut.tst").write_bytes(blob[:len(blob) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(tmp_path / "cut.tst")
    (tmp_path / "junk.tst").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "junk.tst")


def test_checkpoint_position_flag_must_be_0_or_1(tmp_path):
    path = tmp_path / "model.tst"
    save_checkpoint(tiny_model(seed=1), path)
    blob = bytearray(path.read_bytes())
    flag = 4 + 4 * len(tstmodel._INT_FIELDS) + 8 * len(tstmodel._FLOAT_FIELDS)
    assert blob[flag] == 1
    blob[flag] = 3
    path.write_bytes(blob)
    with pytest.raises(DataError, match="flag is 3"):
        load_checkpoint(path)


def test_checkpoint_corrupt_rank_rejected_before_reading_dims(tmp_path):
    path = tmp_path / "model.tst"
    save_checkpoint(tiny_model(seed=1), path)
    blob = bytearray(path.read_bytes())
    # magic, u32 ints, f64 floats, u8 position flag, u32 tensor count
    first_rank = (4 + 4 * len(tstmodel._INT_FIELDS) + 8 * len(tstmodel._FLOAT_FIELDS)
                  + 1 + 4)
    assert struct.unpack_from("<I", blob, first_rank) == (2,)   # tokenizer.w_embed
    struct.pack_into("<I", blob, first_rank, 2**32 - 1)
    (tmp_path / "rank.tst").write_bytes(bytes(blob))
    with pytest.raises(DataError, match="rank 4294967295, expected 2"):
        load_checkpoint(tmp_path / "rank.tst")


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    """A directory, the bytes of a tiny model's checkpoint in it, and the model."""
    folder = tmp_path_factory.mktemp("fuzz")
    model = tiny_model(seed=2)
    save_checkpoint(model, folder / "model.tst")
    return folder, (folder / "model.tst").read_bytes(), model


def _load_bounded(path, size: int):
    """load_checkpoint, asserting it never holds more than a few times the
    file's size; returns the model or the exception it raised."""
    return call_bounded(lambda: load_checkpoint(path), 8 * size + (1 << 20))


def test_header_only_checkpoint_fails_before_building_the_model(tmp_path):
    cfg = TSTConfig(depth=300)   # declares a ~316 MB model
    path = tmp_path / "hostile.tst"
    path.write_bytes(tstmodel.CHECKPOINT_MAGIC
                     + struct.pack("<" + "I" * len(tstmodel._INT_FIELDS),
                                   *[getattr(cfg, n) for n in tstmodel._INT_FIELDS])
                     + struct.pack("<" + "d" * len(tstmodel._FLOAT_FIELDS),
                                   *[getattr(cfg, n) for n in tstmodel._FLOAT_FIELDS])
                     + struct.pack("<B", 1))
    assert path.stat().st_size == 73
    error = _load_bounded(path, 73)
    assert isinstance(error, DataError) and "truncated" in str(error)


@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_raises_data_error(saved_tiny, data):
    folder, blob, _ = saved_tiny
    cut = data.draw(st.integers(0, len(blob) - 1), label="kept bytes")
    (folder / "cut.tst").write_bytes(blob[:cut])
    assert isinstance(_load_bounded(folder / "cut.tst", len(blob)), DataError)


@FUZZ
@given(data=st.data())
def test_flipped_checkpoint_byte_fails_typed_or_loads_what_it_says(saved_tiny, data):
    folder, blob, saved = saved_tiny
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    flipped = bytearray(blob)
    flipped[at] ^= mask
    (folder / "flipped.tst").write_bytes(flipped)
    loaded = _load_bounded(folder / "flipped.tst", len(blob))
    if isinstance(loaded, Exception):
        assert isinstance(loaded, (DataError, ConfigError)), repr(loaded)
        return
    # it loaded, so the file was a valid checkpoint: saving the model gives
    # its bytes back, and at most the one parameter the flip hit changed
    save_checkpoint(loaded, folder / "again.tst")
    assert (folder / "again.tst").read_bytes() == flipped
    changed = [not np.array_equal(a.data, b.data, equal_nan=True)
               for (_, a), (_, b) in zip(saved.parameters(), loaded.parameters())]
    assert sum(changed) <= 1


_CONFIG_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.text(max_size=6), st.lists(st.integers(), max_size=2),
                           st.sampled_from(["1d", "none"]))
_CONFIG_KEYS = st.one_of(st.sampled_from([f.name for f in dataclasses.fields(TSTConfig)]),
                         st.text(max_size=6))


@FUZZ
@given(raw=st.one_of(st.dictionaries(_CONFIG_KEYS, _CONFIG_VALUES, max_size=6),
                     _CONFIG_VALUES))
def test_config_from_any_json_value_is_valid_or_config_error(raw):
    loaded = call_bounded(lambda: TSTConfig.from_dict(raw), 1 << 20)
    if isinstance(loaded, Exception):
        assert isinstance(loaded, ConfigError), repr(loaded)
    else:
        assert TSTConfig.from_dict(json.loads(json.dumps(loaded.to_dict()))) == loaded


def _u32(low=1):
    return st.integers(low, 2**32 - 1)


@st.composite
def valid_configs(draw):
    ns = draw(st.integers(1, 2**16))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return TSTConfig(
        L=ns * draw(st.integers(1, 2**15)), ns=ns, dim=draw(_u32()), dim_mlp=draw(_u32()),
        d_k=draw(_u32()), heads=draw(_u32()), depth=draw(_u32()),
        p_drop=draw(st.floats(0.0, 1.0, exclude_max=True)),
        pos_encoding=draw(st.sampled_from(["1d", "none"])), n_class=draw(_u32()),
        lr=draw(positive), lr_step=draw(_u32()), lr_gamma=draw(positive),
        batch_size=draw(_u32()), epochs=draw(_u32(low=0)))


@FUZZ
@given(cfg=valid_configs())
def test_valid_config_round_trips_through_json(cfg):
    text = json.dumps(cfg.validate().to_dict())
    back = TSTConfig.from_dict(json.loads(text))
    assert back == cfg
    assert json.dumps(back.to_dict()) == text
