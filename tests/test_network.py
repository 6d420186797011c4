import importlib
import itertools
import json
import math
import mmap
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core.multiarray import _set_madvise_hugepage

from picardnets import (
    Activation,
    Network,
    compose,
    depth,
    dims,
    dumps_network,
    hidden_count,
    input_dim,
    load_network,
    loads_network,
    max_width,
    network,
    output_dim,
    param_count,
    parse_activation,
    realize,
    relu,
    save_network,
    scalar_mul,
    softplus,
)
from picardnets.cli import _quadratic_datum_net
from picardnets.network import (
    _TILE_ROWS,
    _TILE_UNITS,
    _chunk_values,
    _freeze,
    _json_floats,
    _mostly_distinct,
    _new_rows,
    _read_blocks,
    _sparse_copy,
    _zeros as _unbacked_zeros,
    from_json_obj,
    read_only,
)


def two_layer():
    return network(
        ([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0.1, 0.2, 0.3]),
        ([[1.0, 0.0, -1.0]], [0.5]),
    )


def test_size_operators_hand_computed():
    net = two_layer()
    assert dims(net) == (2, 3, 1)
    assert depth(net) == 2
    assert input_dim(net) == 2
    assert output_dim(net) == 1
    assert hidden_count(net) == 1
    assert max_width(net) == 3
    # 3*(2+1) + 1*(3+1)
    assert param_count(net) == 13


def test_construction_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        network(([[1.0, 2.0]], [0.0, 0.0]))  # bias length != rows
    with pytest.raises(ValueError):
        network(([[1.0]], [0.0]), ([[1.0, 1.0]], [0.0]))  # chain mismatch
    with pytest.raises(ValueError):
        Network(())
    with pytest.raises(ValueError):
        network(([1.0, 2.0], [0.0]))  # 1-D weight


def test_layers_are_immutable():
    net = two_layer()
    w, b = net.layers[0]
    with pytest.raises(ValueError):
        w[0, 0] = 99.0
    with pytest.raises(ValueError):
        b[0] = 99.0


def test_realize_applies_activation_between_layers_only():
    # single hidden layer with a negative pre-activation so relu matters
    net = network(([[1.0], [-1.0]], [0.0, 0.0]), ([[1.0, 1.0]], [0.0]))
    act = relu()
    # x=2: hidden pre-act (2, -2) -> relu (2, 0) -> out 2
    assert realize(net, act, np.array([2.0]))[0] == 2.0
    # the final layer must stay affine: a pure affine net returns negatives
    aff = network(([[1.0]], [-5.0]))
    assert realize(aff, act, np.array([1.0]))[0] == -4.0


def test_realize_batch_matches_loop():
    net = two_layer()
    act = softplus()
    xs = np.array([[0.0, 1.0], [2.0, -3.0], [-0.5, 0.5]])
    batch = realize(net, act, xs)
    assert batch.shape == (3, 1)
    for i in range(3):
        single = realize(net, act, xs[i])
        assert single.shape == (1,)
        assert batch[i, 0] == single[0]


def test_realize_accepts_plain_callable():
    net = network(([[1.0]], [0.0]), ([[1.0]], [0.0]))
    out = realize(net, np.tanh, np.array([0.3]))
    assert out[0] == pytest.approx(math.tanh(0.3), abs=0.0)


def test_realize_rejects_wrong_width():
    net = two_layer()
    with pytest.raises(ValueError):
        realize(net, relu(), np.zeros(3))


def test_json_round_trip_is_bit_exact():
    tricky = network(
        (
            [[-0.0, 1.0e308], [5.0e-324, -1.2345678901234567e-5]],
            [2.2250738585072014e-308, -1.0],
        ),
        ([[0.1, 0.2]], [-0.3]),
    )
    text = dumps_network(tricky, softplus())
    back, act = loads_network(text)
    assert act.tag() == "softplus"
    for (w0, b0), (w1, b1) in zip(tricky.layers, back.layers):
        assert np.array_equal(w0.view(np.uint64), w1.view(np.uint64))
        assert np.array_equal(b0.view(np.uint64), b1.view(np.uint64))
    # and the text itself is stable
    assert dumps_network(back, act) == text


def test_save_load_file(tmp_path):
    path = tmp_path / "net.json"
    net = two_layer()
    save_network(path, net, relu())
    back, act = load_network(path)
    assert act.tag() == "relu"
    assert dims(back) == dims(net)
    assert path.read_text().endswith("\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["w", "b"])
def test_serialize_rejects_non_finite(bad, field):
    last = {"w": np.ones((1, 2)), "b": np.zeros(1)}
    last[field].flat[-1] = bad
    net = network(([[1.0], [2.0]], [0.0, 0.0]), (last["w"], last["b"]))
    with pytest.raises(ValueError, match="non-finite"):
        dumps_network(net, relu())


def test_refused_save_keeps_the_old_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_bytes(b"old content")
    net = network(([[1.0], [2.0]], [0.0, 0.0]), ([[1.0, math.inf]], [0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        save_network(path, net, relu())
    assert path.read_bytes() == b"old content"


def test_loads_rejects_inconsistent_dims():
    obj = {
        "dims": [2, 3, 1],
        "layers": [{"w": [1.0] * 6, "b": [0.0] * 3}],
        "activation": "relu",
    }
    with pytest.raises(ValueError):
        loads_network(json.dumps(obj))
    obj["layers"].append({"w": [1.0, 1.0], "b": [0.0]})  # wrong weight count
    with pytest.raises(ValueError):
        loads_network(json.dumps(obj))


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000,
        '{"activation": "relu", "dims": [2, 1], "layers": [' + "[" * 100_000,
        # nested inside the header, which the block reader parses first
        '{"activation": ' + "[" * 100_000 + ', "layers": [',
    ],
)
def test_loads_rejects_deep_nesting_as_a_value_error(text):
    for form in (text, text.encode("ascii")):
        with pytest.raises(ValueError, match="nested too deeply"):
            loads_network(form)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["w", "b"])
def test_loads_rejects_non_finite_values(bad, field):
    # dumps_network refuses to write these, so loading must refuse them too
    obj = {"dims": [2, 1], "layers": [{"w": [1.0, 2.0], "b": [0.5]}], "activation": "relu"}
    obj["layers"][0][field][0] = bad
    text = json.dumps(obj)  # writes NaN / Infinity / -Infinity
    with pytest.raises(ValueError, match="finite"):
        loads_network(text)


def _valid_obj():
    return {
        "activation": "relu",
        "dims": [2, 3, 1],
        "layers": [{"w": [0.5] * 6, "b": [0.0] * 3}, {"w": [1.0] * 3, "b": [0.0]}],
    }


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=6,
)
# entries that are not JSON numbers: objects, nested lists, null, strings (numeric
# ones such as "1.5" included) and booleans
BAD_ENTRIES = (
    st.dictionaries(st.text(max_size=2), JSON_VALUES, max_size=2)
    | st.lists(JSON_VALUES, max_size=2)
    | st.none()
    | st.text(max_size=4)
    | st.booleans()
)


def _not(kind):
    return JSON_VALUES.filter(lambda v: not isinstance(v, kind))


@st.composite
def malformed_objects(draw):
    """A valid network object with exactly one structural fault."""
    obj = _valid_obj()
    layer = obj["layers"][draw(st.integers(0, 1))]
    fault = draw(st.sampled_from(
        ["top", "drop", "activation", "dims", "dim", "short", "layers", "count", "layer",
         "drop_wb", "wb", "entry"]
    ))
    if fault == "top":
        return draw(_not(dict))
    if fault == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif fault == "activation":
        obj["activation"] = draw(_not(str))
    elif fault == "dims":
        obj["dims"] = draw(_not(list))
    elif fault == "dim":
        obj["dims"][draw(st.integers(0, 2))] = draw(JSON_VALUES.filter(lambda v: type(v) is not int))
    elif fault == "short":
        obj["dims"] = obj["dims"][: draw(st.integers(0, 1))]
    elif fault == "layers":
        obj["layers"] = draw(_not(list))
    elif fault == "count":
        obj["layers"] = obj["layers"][:1] if draw(st.booleans()) else obj["layers"] + [layer]
    elif fault == "layer":
        obj["layers"][draw(st.integers(0, 1))] = draw(_not(dict))
    elif fault == "drop_wb":
        del layer[draw(st.sampled_from("wb"))]
    elif fault == "wb":
        layer[draw(st.sampled_from("wb"))] = draw(_not(list))
    else:
        key = draw(st.sampled_from("wb"))
        layer[key][draw(st.integers(0, len(layer[key]) - 1))] = draw(BAD_ENTRIES)
    return obj


def test_the_unmutated_object_loads():
    net, act = loads_network(json.dumps(_valid_obj()))
    assert dims(net) == (2, 3, 1) and act.tag() == "relu"


@settings(max_examples=200, deadline=None)
@given(malformed_objects())
def test_loads_rejects_malformed_objects(obj):
    # every structural fault is a ValueError (the CLI's exit code 2), never a
    # KeyError or TypeError, and never a silently coerced network
    with pytest.raises(ValueError):
        loads_network(json.dumps(obj))


@st.composite
def small_nets(draw):
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    layers = []
    for k in range(len(widths) - 1):
        rows, cols = widths[k + 1], widths[k]
        flat = draw(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=rows * cols + rows,
                max_size=rows * cols + rows,
            )
        )
        w = np.array(flat[: rows * cols]).reshape(rows, cols)
        b = np.array(flat[rows * cols :])
        layers.append((w, b))
    return network(*layers)


@settings(max_examples=60, deadline=None)
@given(small_nets())
def test_round_trip_preserves_every_bit(net):
    back, _ = loads_network(dumps_network(net, relu()))
    for (w0, b0), (w1, b1) in zip(net.layers, back.layers):
        assert np.array_equal(w0.view(np.uint64), w1.view(np.uint64))
        assert np.array_equal(b0.view(np.uint64), b1.view(np.uint64))


# Values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal and normal, an exponent-form integer, a small exponent, and 0.1.
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, -1.0, 0.1]


@st.composite
def repetitive_nets(draw):
    """Small nets whose entries repeat a few values, with some all-zero layers."""
    pool = EDGE_VALUES + draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)
    )
    widths = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    layers = []
    for k in range(len(widths) - 1):
        rows, cols = widths[k + 1], widths[k]
        size = rows * cols + rows
        if draw(st.integers(0, 3)) == 0:
            flat = [0.0] * size
        else:
            flat = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        w = np.array(flat[: rows * cols]).reshape(rows, cols)
        layers.append((w, np.array(flat[rows * cols :])))
    return network(*layers)


# Run lengths on both sides of 16, 256 and 4,096 rows, and of the powers of two
# in which the block reader compares copies of a row.
ROW_RUNS = st.sampled_from([1, 2, 3, 15, 16, 17, 255, 256, 257, 4095, 4097])
SHORT_ROW_RUNS = st.sampled_from([1, 2, 3, 15, 16, 17])


@st.composite
def repeated_rows(draw, cols, max_rows, runs=ROW_RUNS):
    """A matrix of `cols` columns made of runs of identical rows, at most about `max_rows` rows.

    Neighbouring runs may differ only in the sign of a zero, which must keep them apart.
    The text of 2.0 begins that of 2.05, so a row ending in 2.0 may begin the text of the next.
    """
    entry = st.sampled_from(EDGE_VALUES + [2.0, 2.05])
    rows = []
    while not rows or (len(rows) < max_rows and draw(st.booleans())):
        row = draw(st.lists(entry, min_size=cols, max_size=cols))
        zeros = [k for k, v in enumerate(rows[-1]) if v == 0.0] if rows else []
        if zeros and draw(st.booleans()):  # the last row with one zero of the other sign
            row = list(rows[-1])
            k = draw(st.sampled_from(zeros))
            row[k] = -row[k]
        rows += [row] * draw(runs)
    return np.array(rows).reshape(-1, cols)


@st.composite
def repeated_row_nets(draw, runs=ROW_RUNS):
    """Two-layer nets whose weight matrices repeat rows in runs, the last row repeated or not."""
    first = draw(repeated_rows(draw(st.integers(1, 3)), 4097, runs))
    second = draw(repeated_rows(len(first), 3, SHORT_ROW_RUNS)) if len(first) <= 300 else np.ones((1, len(first)))
    biases = draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=8))
    return network((first, np.resize(biases, len(first))), (second, np.zeros(len(second))))


def _repeated_rows_net():
    """Runs of 17, 257, 1, 3, 1 and 4,097 rows, the first two apart only in the sign of a zero.

    The text of the 3-row run's rows begins that of the row after them.
    """
    a, signed, b = [0.0, 1.5, -2.0], [-0.0, 1.5, -2.0], [5e-324, 0.0, 0.1]
    first = np.array([a] * 17 + [signed] * 257 + [a] + [[1.0, 0.0, 2.0]] * 3 + [[1.0, 0.0, 2.05]] + [b] * 4097)
    return network((first, np.zeros(len(first))), (np.ones((2, len(first))), [0.5, -0.0]))


def _reference_dumps(net, act):
    """The writer `dumps_network` replaced: one Python float per entry through json."""
    obj = {
        "dims": list(dims(net)),
        "layers": [{"w": w.ravel().tolist(), "b": b.tolist()} for w, b in net.layers],
        "activation": act.tag(),
    }
    return json.dumps(obj, sort_keys=True, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(repetitive_nets() | repeated_row_nets(), st.sampled_from(["relu", "softplus", "leaky:0.1", "repu:2"]))
@example(_repeated_rows_net(), "relu")
def test_dumps_is_byte_identical_to_the_json_module(net, tag):
    act = parse_activation(tag)
    assert dumps_network(net, act) == _reference_dumps(net, act)


@settings(max_examples=60, deadline=None)
@given(repetitive_nets() | repeated_row_nets(SHORT_ROW_RUNS), st.integers(1, 5))
def test_chunked_writer_is_byte_identical_to_the_json_module(net, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("picardnets.network"), "_WRITE_ENTRIES", chunk)
        assert dumps_network(net, relu()) == _reference_dumps(net, relu())


def test_save_writes_the_dumps_text_one_chunk_at_a_time(tmp_path):
    # a 100 x 20,000 layer at 5%: 2M weights in 8 chunks of 2^18, 11.6 MB of text
    rng = np.random.default_rng(8)
    w = rng.standard_normal((100, 20_000))
    w[rng.random(w.shape) >= 0.05] = 0.0
    w[0, :3] = -0.0
    net = network((w, rng.standard_normal(100)), (np.ones((1, 100)), [0.5]))
    text = dumps_network(net, relu())
    assert text == _reference_dumps(net, relu())
    path = tmp_path / "net.json"
    tracemalloc.start()
    try:
        save_network(path, net, relu())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == text + "\n"
    # Measured: 7.2 MB for a save, against 23 MB when it built the whole text first.
    assert peak < 0.75 * len(text)


@settings(max_examples=60, deadline=None)
@given(small_nets())
def test_depth_plus_width_never_exceeds_params(net):
    assert depth(net) + max_width(net) <= param_count(net)


# -- realize in place ----------------------------------------------------------

# The activations as they were written before they took `out`: the reference
# that realize and Activation.__call__ must match bit for bit.
OLD_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "leaky:0.1": lambda x: np.maximum(x, 0.1 * x),
    "softplus": lambda x: np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
    "repu:2": lambda x: np.maximum(x, 0.0) ** 2,
    "tanh": np.tanh,
}


def _activation(tag):
    return np.tanh if tag == "tanh" else parse_activation(tag)


def _reference_realize(net, act, x):
    """The forward pass that allocated a fresh matrix for the bias and for the activation."""
    z = np.asarray(x, dtype=np.float64)
    squeeze = z.ndim == 1
    z = z[None, :] if squeeze else z
    for k, (w, b) in enumerate(net.layers):
        z = z @ w.T + b
        if k != len(net.layers) - 1:
            z = act(z)
    return z[0] if squeeze else z


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


FINITE = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def nets_and_points(draw):
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    layers = []
    for k in range(len(widths) - 1):
        rows, cols = widths[k + 1], widths[k]
        w = draw(st.lists(FINITE, min_size=rows * cols, max_size=rows * cols))
        b = draw(st.lists(FINITE, min_size=rows, max_size=rows))
        layers.append((np.array(w).reshape(rows, cols), np.array(b)))
    rows = draw(st.sampled_from([None, 1, 2, 7]))
    size = widths[0] * (1 if rows is None else rows)
    x = np.array(draw(st.lists(FINITE, min_size=size, max_size=size)))
    return network(*layers), x if rows is None else x.reshape(rows, widths[0])


@settings(max_examples=150, deadline=None)
@given(nets_and_points(), st.sampled_from(sorted(OLD_ACTIVATIONS)))
def test_realize_in_place_is_bit_identical_to_the_allocating_pass(net_and_x, tag):
    net, x = net_and_x
    act = _activation(tag)
    before = x.copy()
    got = realize(net, act, x)
    assert _same_bits(got, _reference_realize(net, OLD_ACTIVATIONS[tag], x))
    assert _same_bits(x, before) and not np.shares_memory(got, x)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-800.0, 800.0, allow_nan=False), min_size=1, max_size=12),
    st.sampled_from(sorted(OLD_ACTIVATIONS)),
)
def test_activation_out_is_bit_identical(values, tag):
    act = _activation(tag)
    x = np.array(values).reshape(-1, 1 + (len(values) % 2 == 0))
    want = act(x)
    assert _same_bits(want, OLD_ACTIVATIONS[tag](x))
    buf = x.copy()
    assert act(buf, out=buf) is buf
    assert _same_bits(buf, want)


# -- wide layers in tiles ---------------------------------------------------------


def _one_block_realize(net, act, x):
    """`realize` as it was before wide layers were streamed: one (N, l_k) matrix per layer."""
    z = np.asarray(x, dtype=np.float64)
    squeeze = z.ndim == 1
    if z.ndim == 1:
        z = z[None, :]
    last = len(net.layers) - 1
    for k, ((w, b), product) in enumerate(zip(net.layers, net._products)):
        if product is None:
            z = z @ w.T
        else:
            index, blocks = product
            z = importlib.import_module("scipy.sparse").hstack(blocks, format="csr") @ z.T
            z = (z if index is None else z[index]).T
        z += b
        if k != last:
            z = act(z, out=z) if isinstance(act, Activation) else act(z)
    return z[0] if squeeze else z


def _wide_net(width, seed=11):
    """3 -> width -> 4 -> 1, dense, weights scaled by 1/sqrt(fan-in) so repu:2 stays in range."""
    rng = np.random.default_rng(seed)
    shape = (3, width, 4, 1)
    return network(
        *[
            (rng.standard_normal((rows, cols)) / np.sqrt(cols), 0.5 * rng.standard_normal(rows))
            for cols, rows in zip(shape, shape[1:])
        ]
    )


@pytest.mark.parametrize("width", [_TILE_UNITS - 1, _TILE_UNITS, _TILE_UNITS + 1, 3 * _TILE_UNITS + 5])
def test_streamed_realize_matches_the_one_block_pass(width):
    net = _wide_net(width)
    x = np.random.default_rng(12).standard_normal((_TILE_ROWS + 1, 3))
    for tag in ("relu", "leaky:0.1", "softplus", "repu:2", "tanh"):
        for rows in (0, 1, 17, _TILE_ROWS + 1, None):
            block = x[0] if rows is None else x[:rows]
            got = realize(net, _activation(tag), block)
            want = _one_block_realize(net, _activation(tag), block)
            assert got.shape == want.shape == ((1,) if rows is None else (rows, 1))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=f"{tag} rows={rows}")
            assert _same_bits(got, realize(net, _activation(tag), block))
            if width <= _TILE_UNITS:  # one piece of units: the one-block pass of each 64-row tile
                starts = range(0, rows, _TILE_ROWS) if rows else ()
                tiles = [_one_block_realize(net, _activation(tag), block[r : r + _TILE_ROWS]) for r in starts]
                assert _same_bits(got, np.concatenate(tiles) if tiles else want)


def test_streamed_realize_puts_non_finite_values_where_the_one_block_pass_does():
    mixed = _wide_net(3 * _TILE_UNITS + 5)
    # with positive weights after the first layer an infinite input stays infinite under relu
    positive = network(mixed.layers[0], *[(np.abs(w), b) for w, b in mixed.layers[1:]])
    x = np.random.default_rng(13).standard_normal((_TILE_ROWS + 1, 3))
    x[[0, 5, 40, 64], [0, 1, 2, 0]] = [np.inf, -np.inf, np.nan, np.inf]
    for net, tag in itertools.product((mixed, positive), ("relu", "leaky:0.1", "softplus", "tanh")):
        with np.errstate(invalid="ignore"):  # inf - inf in the products
            got = realize(net, _activation(tag), x)
            want = _one_block_realize(net, _activation(tag), x)
        assert np.array_equal(np.isnan(got), np.isnan(want)), tag
        assert np.array_equal(np.isposinf(got), np.isposinf(want)), tag
        assert np.array_equal(np.isneginf(got), np.isneginf(want)), tag
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-12)


def _selector_net(width, seed=15):
    """A (5, width, 1) net whose hidden units each read one coordinate, as the compiled nets' first layer does."""
    rng = np.random.default_rng(seed)
    w = np.zeros((width, 5))
    w[np.arange(width), np.arange(width) % 5] = 1.0
    return network((w, rng.standard_normal(width)), (rng.standard_normal((1, width)), [0.5]))


def _deep_shaped_net(seed=18):
    """General weights in the shape of the benchmark's compile-deep net: a dense (28,980 x 5)
    first layer, a 6%-dense (166 x 28,980) layer in runs of 16 distinct rows, a (1 x 166) top."""
    rng = np.random.default_rng(seed)
    distinct = _sparse_matrix(rng, 16, 28_980, 0.06) / 40.0
    return network(
        (rng.standard_normal((28_980, 5)), rng.standard_normal(28_980)),
        (np.repeat(distinct, [11] * 6 + [10] * 10, axis=0), rng.standard_normal(166)),
        (rng.standard_normal((1, 166)) / 13.0, [0.5]),
    )


def test_a_wide_layer_realizes_in_tile_sized_memory():
    cases = [
        # 256 points in one block would hold an 819 MB activation matrix
        (_selector_net(400_000), 256),
        # a CSR first layer 2,576 wide: 65,536 points in one block would hold 1.35 GB
        (_quadratic_datum_net(16, relu()), 65_536),
    ]
    for net, rows in cases:
        x = np.random.default_rng(16).uniform(-1.0, 1.0, (rows, input_dim(net)))
        x.setflags(write=False)
        before = x.copy()
        realize(net, relu(), x[:1])  # builds the cached CSR copies outside the traced call
        tracemalloc.start()
        try:
            got = realize(net, relu(), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (rows, 1)
        assert peak < 16e6, rows
        assert _same_bits(x, before)
        tiles = [realize(net, relu(), x[r : r + _TILE_ROWS]) for r in range(0, rows, _TILE_ROWS)]
        assert _same_bits(got, np.concatenate(tiles))


def test_realize_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a large product over its threads, and the split can round
    # differently; 64-row tiles whose narrow products sum 2,048 terms at a time
    # stay below the sizes where that happens for the CLI's datum nets
    script = """
import numpy as np
from picardnets import realize, relu
from picardnets.cli import _quadratic_datum_net
rng = np.random.default_rng(17)
for d in (5, 16, 64):
    net = _quadratic_datum_net(d, relu())
    for rows in (1, 17, 64, 65, 540, 1_620, 4_860, 20_000):
        print(d, rows, realize(net, relu(), rng.uniform(-1.0, 1.0, (rows, d))).tobytes().hex())
"""
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines()))
    assert len(outputs[0]) == 24
    assert [case for case in outputs[0] if outputs[0][case] != outputs[1][case]] == []


def test_realize_bits_of_general_weights_do_not_depend_on_blas_threads():
    # The products of a random dense layer as wide as compile-deep's, taken 2,048
    # units at a time into a CSR layer of 16 runs, round alike under two threads.
    script = """
import numpy as np
from picardnets import realize, relu
from test_network import _deep_shaped_net
net = _deep_shaped_net()
rng = np.random.default_rng(19)
for rows in (1, 17, 64, 65, 540):
    print(rows, realize(net, relu(), rng.uniform(-1.0, 1.0, (rows, 5))).tobytes().hex())
"""
    tests = os.path.dirname(os.path.abspath(__file__))
    outputs = []
    for threads in ("1", "2"):
        env = _child_env(OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([tests, env["PYTHONPATH"]])
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(dict(line.split(" ", 1) for line in proc.stdout.splitlines()))
    assert len(outputs[0]) == 5
    assert [case for case in outputs[0] if outputs[0][case] != outputs[1][case]] == []


def test_a_wide_dense_layer_into_a_sparse_one_realizes_in_tile_sized_memory():
    # Before the sparse layer was streamed into, a 64-row tile held the whole
    # (64 x 28,980) activation and scipy's transposed copy of it, and building
    # the CSR copy held two whole-layer masks: a 31.6 MB peak on compile-deep's net.
    net = _deep_shaped_net()
    x = np.random.default_rng(20).uniform(-1.0, 1.0, (_TILE_ROWS, 5))
    importlib.import_module("scipy.sparse")  # its import is not the call's memory
    tracemalloc.start()
    try:
        got = realize(net, relu(), x)  # the first call, which builds the CSR copy
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert len(net._products[1].blocks) == 15
    np.testing.assert_allclose(got, _one_block_realize(net, relu(), x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("first", ["dense", "sparse"])
def test_a_layer_streamed_into_a_sparse_one_of_few_runs_matches_the_one_block_pass(first):
    # 3 -> 6,149 (dense, or 5% nonzero) -> 40 rows in runs of 5 distinct ones -> 1
    rng = np.random.default_rng(21)
    width = 3 * _TILE_UNITS + 5
    w0 = rng.standard_normal((width, 3)) if first == "dense" else _sparse_matrix(rng, width, 3, 0.05)
    distinct = _sparse_matrix(rng, 5, width, 0.05)
    net = network(
        (w0, rng.standard_normal(width)),
        (np.repeat(distinct, 8, axis=0), rng.standard_normal(40)),
        (rng.standard_normal((1, 40)), [0.5]),
    )
    assert _uses_csr(net) == [first == "sparse", True, False] and len(net._products[1].blocks) == 4
    x = rng.standard_normal((2 * _TILE_ROWS + 3, 3))
    for tag in ("relu", "softplus", "tanh"):
        got = realize(net, _activation(tag), x)
        np.testing.assert_allclose(got, _one_block_realize(net, _activation(tag), x), rtol=1e-12, atol=1e-12)
        tiles = [realize(net, _activation(tag), x[r : r + _TILE_ROWS]) for r in range(0, len(x), _TILE_ROWS)]
        assert _same_bits(got, np.concatenate(tiles))


# -- sparse layers ---------------------------------------------------------------


def _sparse_matrix(rng, rows, cols, density):
    w = rng.standard_normal((rows, cols))
    w[rng.random((rows, cols)) >= density] = 0.0
    return w


def _sparse_net(seed=5, density=0.05):
    """Dense 8 -> 400, then a 400 x 400 layer (160,000 entries) at `density`, then dense 400 -> 3."""
    rng = np.random.default_rng(seed)
    return network(
        (rng.standard_normal((400, 8)), rng.standard_normal(400)),
        (_sparse_matrix(rng, 400, 400, density), rng.standard_normal(400)),
        (rng.standard_normal((3, 400)), rng.standard_normal(3)),
    )


def _uses_csr(net):
    return [csr is not None for csr in net._products]


def test_large_sparse_layer_matches_the_dense_product():
    net = _sparse_net()
    assert _uses_csr(net) == [False, True, False]
    x = np.random.default_rng(1).standard_normal((16, 8))
    for tag in ("relu", "softplus", "leaky:0.1"):
        got = realize(net, parse_activation(tag), x)
        want = _reference_realize(net, OLD_ACTIVATIONS[tag], x)
        assert got.shape == want.shape == (16, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # a plain callable still works, and a single input keeps its shape
    got = realize(net, np.tanh, x)
    assert np.max(np.abs(got - _reference_realize(net, np.tanh, x))) <= 1e-12 * np.max(np.abs(got))
    assert realize(net, np.tanh, x[3]).shape == (3,)


def test_sparse_realize_is_the_same_with_a_cold_or_warm_cache():
    x = np.random.default_rng(2).standard_normal((16, 8))
    net = _sparse_net()
    assert "_products" not in vars(net)
    cold = realize(net, relu(), x)
    assert "_products" in vars(net)
    warm = realize(net, relu(), x)
    twin = network(*[(w.copy(), b.copy()) for w, b in net.layers])
    assert _same_bits(cold, warm) and _same_bits(cold, realize(twin, relu(), x))


def test_sparse_rows_do_not_depend_on_the_block():
    rng = np.random.default_rng(3)
    net = network(
        (_sparse_matrix(rng, 400, 400, 0.05), rng.standard_normal(400)),
        (_sparse_matrix(rng, 400, 400, 0.08), rng.standard_normal(400)),
    )
    assert _uses_csr(net) == [True, True]
    x = rng.standard_normal((16, 400))
    block = realize(net, relu(), x)
    for i in range(16):
        assert _same_bits(realize(net, relu(), x[i]), block[i])
        assert _same_bits(realize(net, relu(), x[i : i + 1]), block[i : i + 1])


def test_a_sparse_layer_with_repeated_rows_realizes_as_it_does_without_the_row_index(monkeypatch):
    # 400 rows in runs of 1 to 60 copies of 12 distinct rows, two of them apart only in a zero's sign,
    # after a dense layer that goes into it a piece at a time, and as the first layer, whose input comes whole
    rng = np.random.default_rng(9)
    distinct = _sparse_matrix(rng, 12, 400, 0.05)
    distinct[5] = distinct[4]
    distinct[5, np.flatnonzero(distinct[4] == 0)[0]] = -0.0
    runs = np.repeat(np.arange(12), [60, 1, 2, 40, 17, 16, 15, 100, 1, 50, 60, 38])
    layers = [
        (rng.standard_normal((400, 8)), rng.standard_normal(400)),
        (distinct[runs], rng.standard_normal(400)),
        (rng.standard_normal((3, 400)), rng.standard_normal(3)),
    ]
    nets = [network(*layers), network(*layers[1:])]
    for net in nets:
        index, (csr,) = net._products[len(net.layers) - 2]
        assert csr.shape == (12, 400) and np.array_equal(index, runs)
    module = importlib.import_module("picardnets.network")
    monkeypatch.setattr(module, "_new_rows", lambda w: np.ones(w.shape[0], dtype=bool))
    for net in nets:
        twin = network(*net.layers)
        index, (csr,) = twin._products[len(net.layers) - 2]
        assert csr.shape == (400, 400) and index is None
        x = rng.standard_normal((17, input_dim(net)))
        for tag in ("relu", "leaky:0.1", "softplus", "tanh"):
            for block in (x[:0], x[:1], x, x[3]):
                got = realize(net, _activation(tag), block)
                assert got.shape == ((3,) if block.ndim == 1 else (len(block), 3))
                assert _same_bits(got, realize(twin, _activation(tag), block)), tag
        got = realize(net, relu(), x)
        want = _reference_realize(net, OLD_ACTIVATIONS["relu"], x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(got))


def test_the_column_blocks_of_a_sparse_copy_are_the_csr_array_of_its_distinct_rows():
    # 3 x 2,048 + 5 columns in 4 blocks; rows in runs, one distinct row all zeros, -0.0 entries dropped
    rng = np.random.default_rng(22)
    width = 3 * _TILE_UNITS + 5
    distinct = _sparse_matrix(rng, 7, width, 0.05)
    distinct[2] = 0.0
    distinct[3, :: 97] = -0.0
    distinct[4, _TILE_UNITS : 2 * _TILE_UNITS] = 0.0  # an empty block of one row
    w = np.repeat(distinct, [3, 1, 5, 2, 1, 4, 6], axis=0)
    index, blocks = _sparse_copy(w)
    assert np.array_equal(index, np.repeat(np.arange(7), [3, 1, 5, 2, 1, 4, 6]))
    assert [block.shape for block in blocks] == [(7, _TILE_UNITS)] * 3 + [(7, 5)]
    whole = importlib.import_module("scipy.sparse").hstack(blocks, format="csr")
    want = importlib.import_module("scipy.sparse").csr_array(distinct)
    assert _same_bits(whole.data, want.data) and np.array_equal(whole.indices, want.indices)
    assert np.array_equal(whole.indptr, want.indptr)
    assert all(block.indices.dtype == np.int32 == block.indptr.dtype for block in blocks)


def test_sparse_realize_never_writes_its_input():
    net = _sparse_net()
    x = np.random.default_rng(4).standard_normal((16, 8))
    x.setflags(write=False)
    got = realize(net, relu(), x)
    assert not np.shares_memory(got, x)
    # the sparse layer's input is an activation of the caller's block
    y = realize(network(net.layers[0]), relu(), x)
    before = y.copy()
    realize(network(*net.layers[1:]), relu(), y)
    assert _same_bits(y, before)


def test_a_layer_over_one_nonzero_in_ten_stays_dense():
    rng = np.random.default_rng(6)
    net = network(
        (rng.standard_normal((400, 8)), rng.standard_normal(400)),
        (_sparse_matrix(rng, 400, 400, 0.2), rng.standard_normal(400)),
        (rng.standard_normal((3, 400)), rng.standard_normal(3)),
    )
    assert _uses_csr(net) == [False, False, False]
    x = rng.standard_normal((16, 8))
    for tag in ("relu", "softplus"):
        assert _same_bits(realize(net, parse_activation(tag), x), _reference_realize(net, OLD_ACTIVATIONS[tag], x))


def test_the_rule_is_at_most_one_nonzero_in_ten_at_any_size():
    # 100 of a 20 x 50 layer's 1,000 entries nonzero goes sparse; one more keeps it dense.
    # Rows 0, 1, 18 and 19 start empty.
    rng = np.random.default_rng(8)
    w = np.zeros((20, 50))
    w[2:18].reshape(-1)[::8] = rng.standard_normal(100)
    x = rng.standard_normal((16, 50))
    for more, sparse in ((False, True), (True, False)):
        if more:
            w[0, 1] = 2.0
        net = network((w, rng.standard_normal(20)), (rng.standard_normal((2, 20)), rng.standard_normal(2)))
        assert _uses_csr(net) == [sparse, False]
        got, want = realize(net, relu(), x), _reference_realize(net, OLD_ACTIVATIONS["relu"], x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # a one-entry zero layer (a constant network) is sparse too
    assert _uses_csr(network(([[0.0]], [1.5]))) == [True]
    assert _same_bits(realize(network(([[0.0]], [1.5])), relu(), x[:, :1]), np.full((16, 1), 1.5))


def test_sparse_realize_never_holds_a_dense_copy_of_the_layer():
    # a 100 x 20,000 layer at 5% (16 MB dense, 100,000 nonzeros) between 16-row blocks
    rng = np.random.default_rng(7)
    w = _sparse_matrix(rng, 100, 20_000, 0.05)
    net = network((w, rng.standard_normal(100)), (np.ones((1, 100)), [0.5]))
    x = rng.standard_normal((16, 20_000))
    nnz = np.count_nonzero(w)
    importlib.import_module("scipy.sparse")  # its import is not the layer's memory
    tracemalloc.start()
    try:
        realize(net, relu(), x)
        held, cold = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        realize(net, relu(), x)
        warm = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the cached copy keeps 12 bytes per nonzero; its build holds a few more such arrays
    assert held < 2 * 8 * nnz
    assert cold < 6 * 8 * nnz + x.nbytes < w.nbytes / 2
    # the product holds a transposed copy of one 2,048-column piece of the block at a time and the
    # (100, 16) sums, not a copy of the whole block (2.57 MB when the layer was one product)
    assert warm < 2 * 8 * 16 * _TILE_UNITS < x.nbytes / 4


def _child_env(**extra):
    """The environment of a child interpreter that finds the package where this one imported it from."""
    src = os.path.dirname(os.path.dirname(importlib.import_module("picardnets").__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_scipy_sparse_is_imported_only_for_a_sparse_layer():
    script = """
import sys
import numpy as np
import picardnets as pn
assert "scipy.sparse" not in sys.modules
dense = pn.network((np.ones((400, 8)), np.zeros(400)), (np.ones((1, 400)), [0.0]))
pn.realize(dense, pn.relu(), np.ones((16, 8)))
assert "scipy.sparse" not in sys.modules
w = np.zeros((400, 400))
w[:, 0] = 1.0
pn.realize(pn.network((w, np.zeros(400))), pn.relu(), np.ones((16, 400)))
assert "scipy.sparse" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# -- array ownership -------------------------------------------------------------


def test_writing_the_callers_array_leaves_the_network_unchanged():
    w = np.array([[1.0, 2.0]])
    b = np.array([0.5])
    net = network((w, b))
    w[0, 0] = 99.0
    b[0] = 99.0
    assert net.layers[0][0][0, 0] == 1.0 and net.layers[0][1][0] == 0.5


def test_read_only_views_and_foreign_dtypes_are_copied():
    base = np.zeros(2)
    view = np.broadcast_to(base, (3, 2))
    assert not view.flags.writeable
    narrow = np.ones((3, 2), dtype=np.float32)
    narrow.setflags(write=False)
    net = Network(((view, np.zeros(3)), (narrow.T, np.zeros(2))))
    base[0] = 7.0
    w0, w1 = net.layers[0][0], net.layers[1][0]
    assert not np.shares_memory(w0, base) and np.all(w0 == 0.0)
    assert w1.dtype == np.float64 and not np.shares_memory(w1, narrow)


def test_read_only_arrays_that_own_their_memory_are_adopted():
    w = np.ones((3, 2))
    b = np.zeros(3)
    for a in (w, b):
        a.setflags(write=False)
    net = Network(((w, b),))
    assert net.layers[0][0] is w and net.layers[0][1] is b


def test_compose_and_scalar_mul_share_the_layers_they_carry_over():
    rng = np.random.default_rng(8)
    inner = network(*((rng.standard_normal((3, 3)), rng.standard_normal(3)) for _ in range(3)))
    outer = network(*((rng.standard_normal((3, 3)), rng.standard_normal(3)) for _ in range(3)))
    both = compose(outer, inner)
    carried = list(zip(both.layers[:2], inner.layers[:2])) + list(zip(both.layers[3:], outer.layers[1:]))
    for (w, b), (w_op, b_op) in carried:
        assert np.shares_memory(w, w_op) and np.shares_memory(b, b_op)
    scaled = scalar_mul(-2.0, inner)
    for (w, b), (w_op, b_op) in zip(scaled.layers[:-1], inner.layers[:-1]):
        assert np.shares_memory(w, w_op) and np.shares_memory(b, b_op)
    # the junction layers are new arrays, and read-only
    for w, b in (both.layers[2], scaled.layers[-1]):
        assert not w.flags.writeable and not b.flags.writeable


def _spied_json(calls):
    """A stand-in for the json module in `picardnets.network` that records what dumps and loads are given."""
    return SimpleNamespace(
        dumps=lambda obj: calls.append(obj) or json.dumps(obj),
        loads=lambda text: calls.append(text) or json.loads(text),
    )


# Values whose shortest text the json module and repr must agree on: signed zeros,
# the smallest subnormal, a small and a large exponent, and the largest double.
WRITER_EDGES = [0.0, -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def arrays_around_the_distinct_share(draw, mostly_distinct):
    """A 1-D or 2-D array with more than half (or at most half) of its entries distinct bit patterns."""
    size = draw(st.integers(1 if mostly_distinct else 2, 48))
    count = draw(st.integers(size // 2 + 1, size) if mostly_distinct else st.integers(1, size // 2))
    values = st.sampled_from(WRITER_EDGES) | st.floats(allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(values, min_size=count, max_size=count, unique_by=float.hex))
    repeats = draw(st.lists(st.sampled_from(pool), min_size=size - count, max_size=size - count))
    entries = draw(st.permutations(pool + repeats))
    cols = draw(st.sampled_from([c for c in (None, 1, 2, 3, 4) if c is None or size % c == 0]))
    return np.array(entries) if cols is None else np.array(entries).reshape(-1, cols)


@settings(max_examples=150, deadline=None)
@given(
    st.booleans().flatmap(lambda side: st.tuples(st.just(side), arrays_around_the_distinct_share(side))),
    st.integers(1, 9),
)
def test_both_writer_paths_match_the_json_module_around_the_distinct_share(side_and_array, piece):
    mostly_distinct, a = side_and_array
    assert _mostly_distinct(a) == mostly_distinct
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        module = importlib.import_module("picardnets.network")
        patch.setattr(module, "json", _spied_json(calls))
        patch.setattr(module, "_DUMPS_ENTRIES", piece)
        got = "".join(_json_floats(a))
    assert got == json.dumps(a.ravel().tolist())[1:-1]
    # json.dumps writes exactly the blocks with no run of rows whose entries are mostly distinct
    no_runs = a.ndim == 1 or _new_rows(a).all()
    assert len(calls) == (-(-a.size // piece) if mostly_distinct and no_runs else 0)


def test_saving_and_loading_600000_distinct_floats_stays_near_the_array_bytes(tmp_path):
    # a (1 -> 600,000) layer: one run of equal weight rows and 600,000 distinct biases
    bias = np.random.default_rng(12).standard_normal(600_000)
    net = network((np.ones((600_000, 1)), bias))
    array_bytes = 2 * bias.nbytes
    text = dumps_network(net, relu())
    path = tmp_path / "net.json"
    tracemalloc.start()
    try:
        save_network(path, net, relu())
        saved = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == text + "\n"
    data = path.read_bytes()
    tracemalloc.start()
    try:
        loaded, _ = loads_network(data)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_net(loaded, net)
    # Measured: a save peaked at 7.3 MB (0.48 of the 15.4 MB text), and at 52.7 MB when
    # every block went through np.unique and one object array of texts; a load of the
    # file's bytes at 10.9 MB, 1.1 times the 9.6 MB of arrays.
    assert saved < 0.75 * len(text)
    assert read < 2 * array_bytes


def test_saving_a_wide_layer_of_few_values_holds_one_piece_of_its_text(tmp_path):
    # a (1, 600,000) layer of about 2,000 distinct values, like compile-wide's last
    # layer: its 2^18-entry blocks have no run of rows and are not mostly distinct
    rng = np.random.default_rng(3)
    values = rng.standard_normal(2_000)
    w = values[rng.integers(0, values.size, size=600_000)].reshape(1, -1)
    net = network((w, [0.5]))
    path = tmp_path / "net.json"
    tracemalloc.start()
    try:
        save_network(path, net, relu())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == _reference_dumps(net, relu()) + "\n"
    # Measured: 4.7 MB (0.97 of the layer's 4.8 MB) formatted 2^16 entries a piece,
    # and 13.1 MB when each block's texts were formatted and joined whole.
    assert peak <= 1.5 * w.nbytes


# -- reading network JSON in blocks ------------------------------------------------


def _reference_loads(text):
    """The reader every layout goes through: the json module, then `from_json_obj`."""
    return from_json_obj(json.loads(text))


def _same_net(a, b):
    return len(a.layers) == len(b.layers) and all(
        _same_bits(w0, w1) and _same_bits(b0, b1) for (w0, b0), (w1, b1) in zip(a.layers, b.layers)
    )


# Runs of +0.0 just below, at and above the 16 entries the block reader skips, and long ones.
ZERO_RUNS = st.sampled_from([1, 15, 16, 17, 32, 33, 4111])
RUN_NEIGHBOURS = st.sampled_from([-0.0, 1.0, -2.5e-7, 1e16, 5e-324, 0.1])


@st.composite
def run_arrays(draw, size):
    """`size` entries made of +0.0 runs and single neighbours, possibly all zeros."""
    flat = []
    while len(flat) < size:
        if draw(st.booleans()):
            flat += [0.0] * draw(ZERO_RUNS)
        else:
            flat.append(draw(RUN_NEIGHBOURS))
    return np.array(flat[:size])


@st.composite
def run_nets(draw):
    """Nets whose arrays hold +0.0 runs of every length class, at any place, and -0.0 beside them."""
    widths = draw(st.lists(st.sampled_from([1, 2, 17, 70]), min_size=2, max_size=4))
    layers = []
    for cols, rows in zip(widths, widths[1:]):
        w = draw(run_arrays(rows * cols)).reshape(rows, cols)
        layers.append((w, draw(run_arrays(rows))))
    return network(*layers), parse_activation(draw(st.sampled_from(["relu", "softplus", "leaky:0.1", "repu:2"])))


def _long_run_net():
    """One weight run of 4,898 zeros, which every block size of the run extension reads, after a -0.0."""
    w = np.zeros((70, 70))
    w[0, 0], w[-1, -1] = -0.0, 1.0
    return network((w, np.zeros(70))), relu()


def repeated_row_nets_and_activations():
    return st.tuples(repeated_row_nets(), st.sampled_from(["relu", "softplus"]).map(parse_activation))


@settings(max_examples=120, deadline=None)
@given(run_nets() | repeated_row_nets_and_activations())
@example(_long_run_net())
@example((_repeated_rows_net(), relu()))
def test_block_reader_is_bit_identical_to_the_json_module(net_and_act):
    net, act = net_and_act
    text = dumps_network(net, act)
    layers, tag = _read_blocks(text.encode())  # the canonical layout never leaves the block reader
    want, want_act = _reference_loads(text)
    assert _same_net(Network(tuple(layers)), want) and tag == want_act.tag() == act.tag()
    for source in (text, text.encode(), text.encode() + b"\n"):
        loaded, loaded_act = loads_network(source)
        assert _same_net(loaded, net) and loaded_act.tag() == act.tag()
        assert dumps_network(loaded, loaded_act) == text


MUTATION_BYTES = st.sampled_from(list(b'0123456789-+.eE ,[]{}":\nNItrx\x00\xff'))


@st.composite
def mutated_texts(draw):
    """A canonical network text with one byte replaced, deleted or inserted, or cut short.

    Most of a repeated-row net's text is runs of copies of a row, so most of its edits land in one.
    """
    net, act = draw(run_nets() | repeated_row_nets_and_activations())
    data = dumps_network(net, act).encode()
    # half of the edits land in the header, where the dims are
    pos = draw(st.integers(0, len(data) - 1) | st.integers(0, min(len(data) - 1, 48)))
    kind = draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
    if kind == "replace":
        return data[:pos] + bytes([draw(MUTATION_BYTES)]) + data[pos + 1 :]
    if kind == "delete":
        return data[:pos] + data[pos + 1 :]
    if kind == "insert":
        return data[:pos] + bytes([draw(MUTATION_BYTES)]) + data[pos:]
    return data[:pos]


def _outcome(read, data):
    try:
        return read(data)
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(mutated_texts())
def test_block_reader_and_json_module_agree_on_damaged_text(data):
    # Either both readers give bit-identical nets, or both raise ValueError.
    want = _outcome(_reference_loads, data)
    got = _outcome(loads_network, data)
    assert (got is None) == (want is None)
    if want is not None:
        assert _same_net(got[0], want[0]) and got[1].tag() == want[1].tag()
    try:
        layers, tag = _read_blocks(data)
        act = parse_activation(tag)
    except (ValueError, OverflowError):
        return
    # what the block reader accepts, the json module reads the same way
    assert want is not None and _same_net(Network(tuple(layers)), want[0]) and act.tag() == want[1].tag()


# Edits inside runs of repeated rows: (old bytes, new bytes, which occurrence of old).
RUN_EDITS = {
    "last-entry-runs-on": (b"1.0, 2.0", b"1.0, 2.05", 20),
    "last-row-of-a-run-runs-on": (b"1.0, 2.0", b"1.0, 2.05", 39),
    "other-value-in-a-copy": (b"0.0, 2.0", b"0.0, 2.5", 150),
    "signed-zero-in-a-copy": (b" 0.0, 2.0", b" -0.0, 2.0", 150),
    "extra-entry-in-a-copy": (b"1.0, 2.0", b"1.0, 2.0, 2.0", 20),
    "missing-entry-in-a-copy": (b", 0.0, 2.0", b", 2.0", 150),
    "empty-entry-in-a-copy": (b", 0.0, 2.0", b", , 2.0", 150),
    "no-space-before-a-copy": (b", 1.0, 2.0", b",1.0, 2.0", 10),
    "copy-past-the-last-row": (b"0.0, 2.0]", b"0.0, 2.0, 0.0, 2.0]", 0),
}


@pytest.mark.parametrize("case", sorted(RUN_EDITS))
def test_edits_inside_runs_of_rows_are_read_as_the_json_module_reads_them(case):
    w = np.array([[1.0, 2.0]] * 40 + [[0.0, 2.0]] * 300)
    text = dumps_network(network((w, np.zeros(340)), (np.ones((1, 340)), [0.0])), relu()).encode()
    old, new, nth = RUN_EDITS[case]
    at = -1
    for _ in range(nth + 1):
        at = text.index(old, at + 1)
    data = text[:at] + new + text[at + len(old) :]
    want, got = _outcome(_reference_loads, data), _outcome(loads_network, data)
    assert (got is None) == (want is None)
    if want is not None:
        assert _same_net(got[0], want[0])
    try:
        layers, _ = _read_blocks(data)
    except (ValueError, OverflowError):
        return
    assert want is not None and _same_net(Network(tuple(layers)), want[0])


# Tokens a memo of parsed tokens could confuse: an integer beside the same float,
# signed zeros, whitespace around one number, overflow to inf, empty tokens, and
# integers past 2^63.
HAND_TOKENS = [
    b"1", b"1.0", b" 1.0", b"1.0 ", b"\n1.0\t", b"-0.0", b"0.0", b" 0.0", b"-0", b"1e400", b"-1e400",
    b"", b" ", b"9223372036854775808", b"-9223372036854775809", b"1" + b"0" * 30, b"1E5", b"5e-324",
]


@st.composite
def repeating_chunks(draw):
    """Comma-separated tokens drawn from a pool of at most six, so most chunks repeat their tokens."""
    floats = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: b" " + repr(v).encode())
    pool = draw(st.lists(st.sampled_from(HAND_TOKENS) | floats, min_size=1, max_size=6, unique=True))
    return b",".join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=80)))


def _parsed(parse, chunk):
    """What `parse` reads from `chunk`, each value as its type and repr, or None for a ValueError."""
    try:
        return [(type(v), repr(v)) for v in parse(chunk)]
    except ValueError:
        return None


def _json_module_chunk(chunk):
    values = json.loads(b"[" + chunk + b"]")
    if not values:  # the block reader refuses an empty chunk, which would swallow a comma
        raise ValueError("no entries")
    return values


@settings(max_examples=300, deadline=None)
@given(repeating_chunks(), st.integers(1, 64) | st.just(1 << 16))
@example(b",,,", 1 << 16)
@example(b"1.0," * 12, 4)  # the last piece ends at the trailing comma, before the empty token
def test_chunks_are_read_as_the_json_module_reads_them(chunk, piece):
    # pieces of a few bytes split a chunk where tokens seen in one piece recur in the next
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("picardnets.network"), "_MEMO_BYTES", piece)
        got = _parsed(_chunk_values, chunk)
    assert got == _parsed(_json_module_chunk, chunk)


# Chunks that repeat few tokens, so they are parsed one distinct token at a time.
MEMO_CHUNKS = {
    "integer-beside-float": b",".join([b"1", b" 1.0"] * 20),
    "signed-zeros": b",".join([b"-0.0", b" 0.0", b" 0.0"] * 20),
    "whitespace-variants": b",".join([b"1.5", b" 1.5", b"1.5 ", b"\t1.5\n", b" 1.5 "] * 20),
    "overflow": b",".join([b" 1e400", b" 2.0"] * 20),
    "empty-token": b",".join([b" 2.0", b"", b" 2.0"] * 20),
    "all-empty": b"," * 40,
    "past-2-to-the-63": b",".join([b" 9223372036854775808", b" 18446744073709551617", b" 1" + b"0" * 400] * 20),
    "first-token-without-space": b"0.5" + b", 0.5" * 60,
}


@pytest.mark.parametrize("case", sorted(MEMO_CHUNKS))
def test_hand_edited_chunks_read_one_distinct_token_at_a_time_as_the_json_module_reads_them(case):
    chunk, calls = MEMO_CHUNKS[case], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("picardnets.network"), "json", _spied_json(calls))
        got = _parsed(_chunk_values, chunk)
    assert got == _parsed(_json_module_chunk, chunk)
    # one parse, of the distinct tokens only
    assert calls == [b"[" + b",".join(dict.fromkeys(chunk.split(b","))) + b"]"]


def _refuse(*args, **kwargs):
    raise AssertionError("the block reader fell back to the json module")


def test_a_row_wider_than_a_write_block_with_repeated_values_is_read_without_the_fallback(monkeypatch):
    # A ValueError inside the block reader sends the text to json.loads + from_json_obj,
    # so a fault on a fast path would show only as a slow load: refuse that fallback.
    rng = np.random.default_rng(6)
    w = rng.choice(rng.standard_normal(50), size=(1, 300_000))  # 300,000 > 2^18 entries, 50 values
    net = network((w, [0.5]))
    text = dumps_network(net, relu()).encode()
    calls = []
    module = importlib.import_module("picardnets.network")
    monkeypatch.setattr(module, "from_json_obj", _refuse)
    monkeypatch.setattr(module, "json", _spied_json(calls))
    loaded, _ = loads_network(text)
    assert _same_net(loaded, net)
    layers, _ = _read_blocks(text)
    assert _same_net(Network(tuple(layers)), net)
    # every 1 MiB chunk parsed its 50 or 51 distinct tokens, not its entries
    assert sum(map(len, calls)) < len(text) // 100


def _zeros(n):
    return ", ".join(["0.0"] * n)


# dims (1, 40): biases in the block reader's layout, each wrong in one way only
VALID_BIASES = f"1.5, {_zeros(20)}, {_zeros(19)}"
DAMAGED_BIASES = {
    "empty-entry-at-start": f", {_zeros(20)}, {_zeros(20)}",
    "empty-entry-after-run": f"1.5, {_zeros(20)}, , {_zeros(19)}",
    "too-few-entries": f"1.5, {_zeros(20)}, {_zeros(18)}",
    "too-many-entries": f"1.5, {_zeros(20)}, {_zeros(20)}",
    "string-entry": f'"1.5", {_zeros(20)}, {_zeros(19)}',
    "bool-entry": f"true, {_zeros(20)}, {_zeros(19)}",
    "nan-entry": f"NaN, {_zeros(20)}, {_zeros(19)}",
    "overflowing-entry": f"1e999, {_zeros(20)}, {_zeros(19)}",
    "huge-integer-entry": f"1{'0' * 400}, {_zeros(20)}, {_zeros(19)}",
}


def _one_layer_text(biases):
    weights = f"{_zeros(20)}, 2.0, {_zeros(19)}"
    return '{"activation": "relu", "dims": [1, 40], "layers": [{"b": [' + biases + '], "w": [' + weights + "]}]}"


def test_the_undamaged_one_layer_text_is_read_in_blocks():
    (w, b), = _read_blocks(_one_layer_text(VALID_BIASES).encode())[0]
    assert b[0] == 1.5 and w[20, 0] == 2.0 and np.count_nonzero(w) + np.count_nonzero(b) == 2


@pytest.mark.parametrize("case", sorted(DAMAGED_BIASES))
def test_damaged_canonical_text_is_rejected_by_both_readers(case):
    data = _one_layer_text(DAMAGED_BIASES[case]).encode()
    with pytest.raises((ValueError, OverflowError)):
        _read_blocks(data)
    for read in (loads_network, _reference_loads):
        with pytest.raises(ValueError):
            read(data)


@pytest.mark.parametrize("layout", ["canonical", "foreign"])
def test_loaded_layers_own_their_memory_and_are_adopted(layout, monkeypatch):
    obj = _valid_obj()
    # unsorted keys and no spaces leave the block reader
    text = dumps_network(*_reference_loads(json.dumps(obj))) if layout == "canonical" else json.dumps(
        obj, separators=(",", ":")
    )
    module = importlib.import_module("picardnets.network")
    freeze, copied = module._freeze, []

    def spy(a):
        frozen = freeze(a)
        copied.append(frozen is not a)
        return frozen

    monkeypatch.setattr(module, "_freeze", spy)
    loaded, _ = loads_network(text)
    assert len(copied) == 4 and not any(copied)
    for a in (a for layer in loaded.layers for a in layer):
        assert a.base is None and not a.flags.writeable
    again = Network(loaded.layers)
    assert all(x is y for layer, twin in zip(loaded.layers, again.layers) for x, y in zip(layer, twin))


def test_block_reader_memory_stays_near_the_array_bytes():
    # A mostly-zero net of 1,008,001 entries (8.06 MB of arrays, 6.71 MB of text) whose
    # zeros sit in long row runs, like a compiled net's: each hidden unit of the second
    # layer reads one block of 100 inputs.
    rng = np.random.default_rng(11)
    width = 1000
    inner = np.zeros((width, width))
    for block in range(10):
        rows = slice(100 * block, 100 * (block + 1))
        inner[rows, rows] = rng.standard_normal((100, 100))
    net = network(
        (rng.standard_normal((width, 5)), rng.standard_normal(width)),
        (inner, np.zeros(width)),
        (rng.standard_normal((1, width)), [0.5]),
    )
    array_bytes = sum(w.nbytes + b.nbytes for w, b in net.layers)
    text = dumps_network(net, relu())
    tracemalloc.start()
    try:
        loaded, _ = loads_network(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_net(loaded, net)
    # Measured tracemalloc peaks: 48.8 MB (6.1 A) when the whole text went through
    # json.loads, one Python float per entry; 15.8 MB (2.0 A) read in blocks, of which
    # 6.7 MB is the ASCII copy of the str argument.
    assert peak < 3 * array_bytes


def test_each_distinct_text_of_a_row_of_few_entries_is_parsed_once(monkeypatch):
    # Runs of rows from a pool of six, in any order, as in compile-wide's 608,580 x 5
    # layer: a row text met again in a later run is copied from where it was parsed.
    pool = [
        [0.0, 1.5, -2.0], [-0.0, 1.5, -2.0], [0.0, 0.0, 0.0],
        [1.0, 0.0, 2.0], [1.0, 0.0, 2.05], [5e-324, -0.0, 0.0],
    ]
    order = [0, 3, 0, 2, 1, 0, 4, 3, 5, 2, 1, 5, 4, 0]
    w = np.array([pool[k] for k in order for _ in range(300)])
    net = network((w, np.full(len(w), 0.5)), (np.ones((1, len(w))), [0.0]))
    module = importlib.import_module("picardnets.network")
    chunk_values, chunks = module._chunk_values, []
    monkeypatch.setattr(module, "_chunk_values", lambda chunk: chunks.append(chunk) or chunk_values(chunk))
    layers, _ = _read_blocks(dumps_network(net, relu()).encode())
    assert _same_net(Network(tuple(layers)), net)
    # Between the biases (chunk 0) and the next layer, the chunks parsed are each
    # distinct row text once, in order of first use: the first row, which has no
    # space after its `[`, is probed as `", "` + its text, as its copies are written.
    texts = [", ".join(map(repr, pool[k])).encode() for k in dict.fromkeys(order)]
    assert chunks[1:7] == [texts[0]] + [b" " + text for text in texts[1:]]


# -- a network file read through a map ----------------------------------------------


@pytest.fixture
def maps(monkeypatch):
    """The maps `load_network` opens, each with the ranges it released."""
    module = importlib.import_module("picardnets.network")
    opened = []

    class Recorded(module._MappedFile):
        def __init__(self, *args, **kwargs):
            self.released = []
            opened.append(self)

        def madvise(self, option, start, length):
            self.released.append((start, start + length))
            super().madvise(option, start, length)

    monkeypatch.setattr(module, "_MappedFile", Recorded)
    return opened


def _net_file(tmp_path, data):
    path = tmp_path / "net.json"
    path.write_bytes(data)
    return path


def test_an_empty_file_is_read_whole_and_rejected(tmp_path, maps):
    with pytest.raises(ValueError):
        load_network(_net_file(tmp_path, b""))
    assert maps == []  # mmap refuses an empty file


def test_a_file_cut_off_inside_an_array_is_rejected_and_its_map_closed(tmp_path, maps):
    text = dumps_network(_repeated_rows_net(), relu()).encode()
    cut = text.index(b'"w": [') + 1000  # inside the runs of the first weight matrix
    with pytest.raises(ValueError):
        load_network(_net_file(tmp_path, text[:cut]))
    assert len(maps) == 1 and maps[0].closed


@pytest.mark.parametrize("case", sorted(DAMAGED_BIASES))
def test_damaged_text_in_a_file_is_rejected_and_its_map_closed(tmp_path, maps, case):
    # a view of the map left in the raising frame would make closing it raise BufferError
    with pytest.raises(ValueError):
        load_network(_net_file(tmp_path, _one_layer_text(DAMAGED_BIASES[case]).encode()))
    assert len(maps) == 1 and maps[0].closed


def test_a_file_in_another_layout_is_read_from_its_map(tmp_path, maps):
    net = _repeated_rows_net()
    obj = json.loads(dumps_network(net, softplus()))
    loaded, act = load_network(_net_file(tmp_path, json.dumps(obj, indent=1).encode()))
    assert _same_net(loaded, net) and act.tag() == "softplus"
    assert len(maps) == 1 and maps[0].closed


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="needs mmap.madvise to release the read pages")
def test_a_mapped_file_releases_its_pages_a_chunk_at_a_time_behind_the_reader(tmp_path, maps):
    # 5.9 MB of text, mostly one 2,400 x 500 matrix of zeros and runs of eight rows:
    # the scan for its `]` releases its pages, and so does the parse after it.
    rng = np.random.default_rng(3)
    pool = np.where(rng.random((8, 500)) < 0.05, rng.standard_normal((8, 500)), 0.0)
    w = np.repeat(pool[rng.integers(0, 8, 24)], 100, axis=0)
    net = network((w, np.zeros(len(w))), (np.ones((1, len(w))), [0.0]))
    path = tmp_path / "net.json"
    save_network(path, net, relu())
    loaded, _ = load_network(path)
    assert _same_net(loaded, net)
    (mapped,) = maps
    size, chunk = path.stat().st_size, importlib.import_module("picardnets.network")._CHUNK_BYTES
    assert mapped.closed and size > 5 * chunk
    for start, end in mapped.released:
        assert start % mmap.PAGESIZE == 0 and end % mmap.PAGESIZE == 0 and end - start >= chunk
    # the pages are released twice over: once behind the scan, once behind the parse
    covered = np.zeros(size, dtype=np.int8)
    for start, end in mapped.released:
        covered[start:end] += 1
    assert covered[: size - 2 * chunk].min() >= 1 and np.count_nonzero(covered >= 2) > size // 2


# -- zeros that stay unbacked ------------------------------------------------------

THP_MODE = "/sys/kernel/mm/transparent_hugepage/enabled"


def _hugepage_advice():
    """numpy's huge-page flag, read by setting it and setting it back."""
    advise = _set_madvise_hugepage(True)
    _set_madvise_hugepage(advise)
    return advise


@pytest.mark.parametrize("advise", [True, False])
def test_zeros_switches_huge_page_advice_off_for_its_allocation_only(advise, monkeypatch):
    seen = []
    allocate = np.zeros

    def spy(shape):
        seen.append(_hugepage_advice())
        return allocate(shape)

    before = _set_madvise_hugepage(advise)
    try:
        monkeypatch.setattr(np, "zeros", spy)
        a = _unbacked_zeros((3, 2))
        with pytest.raises(ValueError):
            _unbacked_zeros((2**40, 2**40))  # too big to allocate: numpy raises before asking for memory
        monkeypatch.undo()
        assert seen == [False, False] and _hugepage_advice() is advise
        assert a.dtype == np.float64 and a.shape == (3, 2) and not a.any() and a.base is None
        assert _freeze(read_only(a)) is a  # a network adopts it uncopied
    finally:
        _set_madvise_hugepage(before)


def test_a_second_thread_waits_until_the_first_has_set_huge_page_advice_back(monkeypatch):
    # Unguarded, the second thread would read the advice as off, and set it off
    # again after the first thread had set it back on.
    allocate, entered, first_done = np.zeros, threading.Event(), threading.Event()
    second = threading.Thread(target=_unbacked_zeros, args=(4,))
    seen = []

    def spy(shape):
        if threading.current_thread() is second:
            entered.set()
            first_done.wait(5)
        else:
            second.start()
            seen.append(entered.wait(0.3))
        return allocate(shape)

    before = _set_madvise_hugepage(True)
    try:
        monkeypatch.setattr(np, "zeros", spy)
        _unbacked_zeros(4)
        first_done.set()
        second.join(5)
        monkeypatch.undo()
        assert not second.is_alive() and seen == [False] and entered.is_set() and _hugepage_advice() is True
    finally:
        first_done.set()
        _set_madvise_hugepage(before)


def test_copies_of_a_row_are_read_bit_for_bit_whatever_its_zero_ends():
    # The reader writes a copied row from its first to its last entry that is not +0.0.
    rows = [
        [-0.0, 0.0, 1.5, 0.0, -0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [-0.0, -0.0, -0.0, -0.0, -0.0],
        [2.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 3.0],
        [0.0, 0.0, 5e-324, 0.0, 0.0],
    ]
    w = np.array([row for row in rows for _ in range(600)])
    net = network((w, np.zeros(len(w))), (np.ones((1, len(w))), [0.0]))
    layers, _ = _read_blocks(dumps_network(net, relu()).encode())
    assert _same_net(Network(tuple(layers)), net)


# compile-deep's inputs: a depth-4 net, 6.2% nonzero, whose 166 x 28,980 layer is 38.5 MB dense.
_DEEP_INPUTS = """
import sys
from pathlib import Path
import numpy as np
import picardnets as pn
from picardnets.cli import QUADRATIC_DATUM_CELLS, QUADRATIC_DATUM_RANGE

d, act = 5, pn.relu()
knots = np.linspace(-QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_RANGE, QUADRATIC_DATUM_CELLS + 1)
square = pn.interp_net_relu(pn.Grid(knots), knots**2)
inputs = pn.CompileInputs(
    n=3, M=2, horizon=1.0, d=d, g_net=pn.compose(pn.fan_in(1, d), pn.parallelize([square] * d)),
    f_net=pn.approx_net_relu(pn.LipschitzFn(np.sin, 1.0), 2.0, 0.5)[0], j_net=pn.default_identity(act),
    activation=act, oracle=pn.RandomOracle(1, d),
)
"""

_STATUS_MB = """
def status_mb(key):
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1]) / 1024.0
"""

ZEROS_FOLLOW_MADVISE = pytest.mark.skipif(
    not os.path.exists(THP_MODE) or "[always]" in Path(THP_MODE).read_text(),
    reason="needs transparent huge pages that follow madvise: under `always` every large array gets them",
)


def _run_child(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=_child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return list(map(float, proc.stdout.split()))


@ZEROS_FOLLOW_MADVISE
def test_compile_and_load_keep_the_zeros_of_a_sparse_net_unbacked(tmp_path):
    script = _DEEP_INPUTS + _STATUS_MB + """
before = status_mb("VmRSS")
net = pn.compile_mlp(inputs, pn.ROOT_PATH, 0.0, allow_large=True)
compiled = status_mb("VmRSS") - before
pn.save_network(sys.argv[1], net, act)
before = status_mb("VmRSS")
loaded = pn.load_network(sys.argv[1])
print(compiled, status_mb("VmRSS") - before)
"""
    compiled, loaded = _run_child(script, tmp_path / "deep.json")
    # Measured: 6.6 and 4.2-4.7 MB; 38-40 and 37.5-38 MB with numpy's huge-page advice on.
    assert compiled < 16 and loaded < 16


@ZEROS_FOLLOW_MADVISE
@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="needs mmap.madvise to release the read pages")
def test_a_load_holds_about_one_chunk_of_the_file_at_its_peak(tmp_path):
    # The high-water mark of a fresh process that only loads compile-deep's saved net.
    path = tmp_path / "deep.json"
    _run_child(_DEEP_INPUTS + """
pn.save_network(sys.argv[1], pn.compile_mlp(inputs, pn.ROOT_PATH, 0.0, allow_large=True), act)
""", path)
    script = """
import sys
from pathlib import Path
import picardnets as pn
""" + _STATUS_MB + """
before = status_mb("VmRSS")
loaded = pn.load_network(sys.argv[1])
print(status_mb("VmHWM") - before, Path(sys.argv[1]).stat().st_size / 2**20)
"""
    peak, text_mb = _run_child(script, path)
    # Measured: 11.3-11.8 MB; 39.5 MB when the whole text was read into memory.
    assert text_mb > 25 and peak < 16
