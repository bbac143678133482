import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FUZZ, call_bounded
from tst import data
from tst.errors import DataError


def _windows(rng, count, length):
    """``count`` labeled windows tiling one noise record."""
    signal = rng.normal(size=count * length).astype(np.float32)
    return [data.LabeledWindow(samples=signal[i * length:(i + 1) * length], label=0)
            for i in range(count)]


def _indices(windows, picked):
    """The position in ``windows`` of each window in ``picked``."""
    index = {id(w): i for i, w in enumerate(windows)}
    return [index[id(w)] for w in picked]


def test_split_full_scale_counts(rng):
    windows = _windows(rng, 9000, 2048)
    assert len(windows) == 9000
    split = data.split_train_test(windows, 7000, 2000, seed=4)
    assert len(split.train) == 7000 and len(split.test) == 2000
    train_ids = set(_indices(windows, split.train))
    assert not train_ids & set(_indices(windows, split.test))


def test_split_exhaustive_partition(rng):
    windows = _windows(rng, 10, 512)
    split = data.split_train_test(windows, 7, 3, seed=0)
    ids = set(_indices(windows, split.train)) | set(_indices(windows, split.test))
    assert ids == set(range(len(windows)))


def test_split_deterministic(rng):
    windows = _windows(rng, 20, 512)
    a = data.split_train_test(windows, 10, 5, seed=9)
    b = data.split_train_test(windows, 10, 5, seed=9)
    assert _indices(windows, a.train) == _indices(windows, b.train)
    assert _indices(windows, a.test) == _indices(windows, b.test)


def test_split_insufficient():
    windows = [data.LabeledWindow(np.zeros(4, dtype=np.float32), 0)] * 3
    with pytest.raises(DataError):
        data.split_train_test(windows, 3, 1, seed=0)


def test_split_roughly_stratified():
    # balanced input, full partition: per-class train fraction stays within
    # 5 percentage points of the global fraction, averaged over 20 seeds
    windows = []
    for label in range(4):
        for _ in range(50):
            windows.append(data.LabeledWindow(np.zeros(8, dtype=np.float32), label))
    fractions = np.zeros(4)
    for seed in range(20):
        split = data.split_train_test(windows, 150, 50, seed=seed)
        counts = np.bincount([w.label for w in split.train], minlength=4)
        fractions += counts / 50.0
    fractions /= 20.0
    np.testing.assert_allclose(fractions, 0.75, atol=0.05)


# ---------------------------------------------------------------------------
# CSV


def test_csv_roundtrip(tmp_path, rng):
    windows = data.generate_synthetic(data.default_synthetic_spec(), 2, seed=0, length=64)
    path = tmp_path / "set.csv"
    data.write_csv(windows, path, comment="test set")
    back = data.load_csv(path, length=64, n_class=10)
    assert len(back) == len(windows)
    for a, b in zip(windows, back):
        assert a.label == b.label
        np.testing.assert_array_equal(a.samples, b.samples)


def test_csv_single_row(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("# header\n3," + ",".join(["0.1", "-0.2"] * 4) + "\n")
    rows = data.load_csv(p, length=8, n_class=4)
    assert len(rows) == 1 and rows[0].label == 3
    assert rows[0].samples.shape == (8,)


def test_csv_without_data_rows_is_data_error(tmp_path):
    p = tmp_path / "empty.csv"
    for text in ("", "# a header and a blank line\n\n"):
        p.write_text(text)
        with pytest.raises(DataError, match=r"empty\.csv holds no data rows"):
            data.load_csv(p, length=8, n_class=10)


def test_csv_errors_name_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,0.0,0.0,0.0\n2,0.0,0.0\n")
    with pytest.raises(DataError, match=r"bad\.csv:2"):
        data.load_csv(p, length=3, n_class=10)
    p.write_text("1,0.0,zap,0.0\n")
    with pytest.raises(DataError, match=":1.*non-numeric"):
        data.load_csv(p, length=3, n_class=10)
    p.write_text("x,0.0,0.0\n")
    with pytest.raises(DataError, match="label"):
        data.load_csv(p, length=2, n_class=10)
    p.write_text("7,0.0,0.0\n")
    with pytest.raises(DataError, match="range"):
        data.load_csv(p, length=2, n_class=4)
    with pytest.raises(DataError, match="not found"):
        data.load_csv(tmp_path / "missing.csv", length=2, n_class=10)


def test_csv_label_beyond_every_integer_type_is_out_of_range(tmp_path):
    p = tmp_path / "huge.csv"
    p.write_text(f"{2**64},0.5,0.25\n")
    with pytest.raises(DataError, match=r"huge\.csv:1: label 18446744073709551616 out of range"):
        data.load_csv(p, length=2, n_class=10)


def test_csv_expected_length_enforced(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("0," + ",".join(["0.0"] * 2047) + "\n")
    with pytest.raises(DataError, match="2047.*2048"):
        data.load_csv(p, length=2048, n_class=10)


def test_csv_over_long_row_costs_memory_in_proportion_to_the_window(tmp_path):
    # 10**6 samples against a window of 3: the loader reads the 4 MB line, but never
    # holds a million fields
    p = tmp_path / "long.csv"
    p.write_text("0," + ",".join(["1.5"] * 10**6) + "\n")
    size = p.stat().st_size
    loaded = call_bounded(lambda: data.load_csv(p, length=3, n_class=10), 4 * size + (1 << 20))
    assert isinstance(loaded, DataError)
    assert str(loaded).endswith("long.csv:1: row has more than 3 samples, expected 3")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e39"])
def test_csv_non_finite_sample_names_the_line(tmp_path, value):
    p = tmp_path / "big.csv"
    p.write_text("1,0.5,0.25\n2,0.5," + value + "\n")
    # and no RuntimeWarning, which the suite makes an error
    with pytest.raises(DataError, match=r"big\.csv:2: non-finite sample value"):
        data.load_csv(p, length=2, n_class=10)


def test_csv_bytes_that_are_not_utf8_name_the_line(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes("# caf\xe9\n1,0.5,0.25\n2,0.5,0.2\xb5\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"latin\.csv:3: non-numeric"):
        data.load_csv(p, length=2, n_class=10)


@pytest.mark.parametrize("text", ["# header\n1,0.5,0.25\n", "1,0.5,0.25\n"],
                         ids=["before-a-comment", "before-a-row"])
def test_csv_with_a_byte_order_mark_loads_as_without_one(tmp_path, text):
    # Excel's "CSV UTF-8" export starts the file with EF BB BF
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    (want,), (got,) = (data.load_csv(p, length=2, n_class=10) for p in (plain, marked))
    assert got.label == want.label == 1 and np.array_equal(got.samples, want.samples)


_CSV_TOKENS = st.one_of(
    st.integers(-2, 12).map(str), st.floats(width=32).map(repr), st.floats().map(repr),
    st.sampled_from(["", " ", "#", "inf", "-nan", "1e39", "3.4028236e38", "1_0", "0x10"]),
    st.text(max_size=4))
_CSV_LINES = st.one_of(st.lists(_CSV_TOKENS, max_size=6).map(",".join).map(str.encode),
                       st.binary(max_size=12))


@FUZZ
@given(lines=st.lists(_CSV_LINES, max_size=6), length=st.sampled_from([1, 2, 3]))
def test_csv_from_any_bytes_loads_checked_windows_or_data_error(tmp_path_factory, lines,
                                                                length):
    path = tmp_path_factory.mktemp("csv") / "fuzz.csv"
    blob = b"\n".join(lines)
    path.write_bytes(blob)
    loaded = call_bounded(lambda: data.load_csv(path, length=length, n_class=10),
                          64 * len(blob) + (1 << 20))
    if isinstance(loaded, Exception):
        assert isinstance(loaded, DataError), repr(loaded)
        return
    for w in loaded:
        assert 0 <= w.label < 10 and w.samples.dtype == np.float32
        assert np.isfinite(w.samples).all()
        assert w.samples.shape == loaded[0].samples.shape
        assert w.samples.shape == (length,)


@FUZZ
@given(tokens=st.lists(_CSV_TOKENS.filter(lambda t: not set(t) & set(",\n\r")), max_size=6))
def test_csv_samples_parse_exactly_as_float_does(tmp_path_factory, tokens):
    # the tokens sit between a label and a last sample, where no strip of the line reaches
    path = tmp_path_factory.mktemp("csv") / "tokens.csv"
    path.write_text(",".join(["0"] + tokens + ["0"]) + "\n", encoding="utf-8")
    try:
        with np.errstate(over="ignore"):
            want = np.array([np.float32(float(t)) for t in tokens] + [0], dtype=np.float32)
    except ValueError:
        with pytest.raises(DataError, match="non-numeric"):
            data.load_csv(path, length=len(tokens) + 1, n_class=10)
        return
    if not np.isfinite(want).all():
        with pytest.raises(DataError, match="non-finite"):
            data.load_csv(path, length=len(tokens) + 1, n_class=10)
        return
    (got,) = data.load_csv(path, length=len(tokens) + 1, n_class=10)
    assert got.samples.dtype == np.float32 and got.samples.tobytes() == want.tobytes()


@st.composite
def labeled_windows(draw):
    length = draw(st.integers(1, 8))
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
    return [data.LabeledWindow(samples=draw(arrays(np.float32, length, elements=finite)),
                               label=draw(st.integers(0, 2**40)))
            for _ in range(draw(st.integers(1, 4)))]


@FUZZ
@given(windows=labeled_windows())
def test_csv_write_then_load_round_trips_exactly(tmp_path_factory, windows):
    path = tmp_path_factory.mktemp("csv") / "round.csv"
    data.write_csv(windows, path, comment="fuzz")
    back = data.load_csv(path, length=windows[0].samples.size, n_class=2**40 + 1)
    assert [w.label for w in back] == [w.label for w in windows]
    for a, b in zip(windows, back):
        assert b.samples.dtype == np.float32
        assert b.samples.tobytes() == a.samples.tobytes()   # -0.0 and subnormals too


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_balanced_counts():
    windows = data.generate_synthetic(data.default_synthetic_spec(), 10, seed=1, length=128)
    assert len(windows) == 100
    labels = np.bincount([w.label for w in windows])
    np.testing.assert_array_equal(labels, 10)


def test_synthetic_deterministic():
    spec = data.default_synthetic_spec()
    a = data.generate_synthetic(spec, 3, seed=42, length=256)
    b = data.generate_synthetic(spec, 3, seed=42, length=256)
    for wa, wb in zip(a, b):
        np.testing.assert_array_equal(wa.samples, wb.samples)
    c = data.generate_synthetic(spec, 3, seed=43, length=256)
    assert any(np.any(wa.samples != wc.samples) for wa, wc in zip(a, c))


def test_noiseless_train_is_periodic_at_repetition_period():
    # 12 kHz / 100 Hz = an exact 120-sample period, so the autocorrelation
    # oracle must peak exactly there
    assert data.SAMPLE_RATE == 12000.0
    quiet = data.ClassSpec(rep_hz=100.0, res_hz=3000.0, decay=900.0, amplitude=1.0,
                           noise_std=0.0)
    (window,) = data.generate_synthetic([quiet], 1, seed=3, length=2048)
    x = window.samples.astype(np.float64)
    x = x - x.mean()
    ac = np.correlate(x, x, mode="full")[len(x) - 1:]
    lag = 40 + int(np.argmax(ac[40:400]))   # skip the zero-lag spike
    assert lag == 120


def test_standardize_and_stacking(rng):
    windows = data.generate_synthetic(data.default_synthetic_spec(), 2, seed=0, length=64)
    x, y = data.windows_to_arrays(windows)
    assert x.shape == (20, 64) and y.shape == (20,)
    np.testing.assert_allclose(x.mean(axis=1), 0.0, atol=1e-5)
    np.testing.assert_allclose(x.std(axis=1), 1.0, atol=1e-3)
    raw = np.stack([w.samples for w in windows])
    np.testing.assert_array_equal(x, data.standardize(raw))


def test_windows_to_arrays_mixed_lengths_rejected():
    ws = [data.LabeledWindow(np.zeros(4, dtype=np.float32), 0),
          data.LabeledWindow(np.zeros(5, dtype=np.float32), 1)]
    with pytest.raises(DataError):
        data.windows_to_arrays(ws)
