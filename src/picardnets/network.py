"""Feedforward network data model: layer lists, size operators, realization, JSON.

A network is an ordered list of affine layers (W_1, b_1), ..., (W_L, b_L) with
W_k of shape (l_k, l_{k-1}) and b_k of shape (l_k,). The realized function
applies the activation elementwise after every layer except the last; the last
layer stays purely affine. Weights are stored dense, as float64 and immutable: a
network adopts a read-only float64 array that owns its memory, and copies
anything else once, so layers carried from one network into another are shared,
never copied.

`realize` multiplies a sparse layer through a CSR copy of its weights, which
each network builds once, on its first `realize`, and keeps. A layer is sparse
when at most a tenth of its entries are nonzero, whatever its size. The copy
keeps one row per run of identical rows, as compiled nets' layers repeat
their rows in long runs, and `realize` copies each run's product to its rows.
The JSON writer formats such a run once and the reader parses it once. The
writer hands a block of mostly distinct numbers to `json.dumps`, which formats
each at C speed, and the reader parses each distinct number of a chunk that
repeats a few values once.

`realize` never builds the activation matrix of a wide dense hidden layer (more
than 2,048 units) whose next layer is dense and at most 32 wide. It forms that
layer in tiles of 64 points by 2,048 units and adds each tile's product with
the next layer's columns into an (N, l_{k+1}) sum, so its temporaries take one
1 MiB tile, not N * l_k * 8 bytes. Both rules depend only on the layers' shapes
and values, never on the number of points, so `realize` stays a pure function
of the network and the input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .activations import Activation, parse_activation

Layer = tuple[np.ndarray, np.ndarray]


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array its caller has just allocated read-only, so `Network` adopts it uncopied."""
    a.setflags(write=False)
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    # A read-only float64 array that owns its memory is adopted: its owner has
    # given up writing it. A read-only view (broadcast_to, frombuffer, a slice)
    # may look at memory that is still writable, so it is copied like the rest.
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable and a.base is None:
        return a
    return read_only(np.array(a, dtype=np.float64, copy=True))


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable list of affine layers; build with `network(...)` or `Network(layers)`."""

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        if len(self.layers) == 0:
            raise ValueError("a network needs at least one layer")
        frozen: list[Layer] = []
        prev_out: int | None = None
        for k, (w, b) in enumerate(self.layers):
            w = _freeze(w)
            b = _freeze(b)
            if w.ndim != 2:
                raise ValueError(f"layer {k}: weight matrix must be 2-D, got shape {w.shape}")
            if b.ndim != 1:
                raise ValueError(f"layer {k}: bias must be 1-D, got shape {b.shape}")
            if w.shape[0] != b.shape[0]:
                raise ValueError(
                    f"layer {k}: weight rows {w.shape[0]} != bias length {b.shape[0]}"
                )
            if w.shape[0] < 1 or w.shape[1] < 1:
                raise ValueError(f"layer {k}: layer widths must be >= 1, got {w.shape}")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError(
                    f"layer {k}: expects {w.shape[1]} inputs but previous layer outputs {prev_out}"
                )
            prev_out = w.shape[0]
            frozen.append((w, b))
        object.__setattr__(self, "layers", tuple(frozen))

    @cached_property
    def _products(self) -> tuple[tuple[object, np.ndarray | None] | None, ...]:
        """Per layer, what `_sparse_copy` gives: the CSR copy of W's runs and its row index, or None for the dense W."""
        return tuple(_sparse_copy(w) for w, _ in self.layers)

    @cached_property
    def _streamed(self) -> tuple[bool, ...]:
        """Per layer, whether `realize` computes it a tile at a time straight into the next layer's product.

        The next layer of a streamed one is at most _STREAM_NEXT_WIDTH wide, so it never streams itself.
        """
        return tuple(
            k + 1 < len(self.layers)
            and w.shape[0] > _TILE_UNITS
            and self.layers[k + 1][0].shape[0] <= _STREAM_NEXT_WIDTH
            and self._products[k] is None
            and self._products[k + 1] is None
            for k, (w, _) in enumerate(self.layers)
        )


# A layer with at most 1/_SPARSE_RATIO of its entries nonzero is multiplied through CSR.
_SPARSE_RATIO = 10
# A dense hidden layer wider than _TILE_UNITS whose next layer is dense and at
# most _STREAM_NEXT_WIDTH wide is realized in tiles of _TILE_ROWS points by
# _TILE_UNITS units (1 MiB). Into a wider next layer the tiles' small products
# ran up to 1.5x slower than one block at 1,000 points.
_TILE_ROWS = 64
_TILE_UNITS = 2048
_STREAM_NEXT_WIDTH = 32


def _new_rows(w: np.ndarray) -> np.ndarray:
    """Per row of `w`, whether it differs in any bit from the row before; row 0 always does.

    A run of identical rows is a True followed by Falses. Comparing bits, not
    values, keeps a row with -0.0 apart from one with +0.0.
    """
    bits = w.view(np.int64)
    new = np.empty(w.shape[0], dtype=bool)
    new[:1] = True
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    return new


def _sparse_copy(w: np.ndarray) -> tuple[object, np.ndarray | None] | None:
    """A `scipy.sparse.csr_array` of one row of `w` per run of identical rows, and
    the index of each row of `w` into it (None if no two neighbouring rows are
    equal); or None if more than 1/_SPARSE_RATIO of the entries of `w` are nonzero.

    Columns ascend within each row. The nonzeros are found on the boolean mask
    `w != 0`: building it reads the float array once, and the mask's count and
    `flatnonzero` are cheap, where `np.flatnonzero(w)` alone takes several
    times as long.
    """
    nonzero = w != 0
    if _SPARSE_RATIO * np.count_nonzero(nonzero) > w.size:
        return None
    import scipy.sparse  # deferred: importing it costs every CLI start, and most nets never need it

    new = _new_rows(w)
    starts = np.flatnonzero(new)
    index = None
    if starts.size < w.shape[0]:
        nonzero = nonzero[starts]
        index = np.cumsum(new) - 1
    flat = np.flatnonzero(nonzero)
    del nonzero
    rows, cols = np.divmod(flat, w.shape[1])
    kind = np.int32 if w.size < 2**31 else np.int64  # 32-bit indices read faster
    indptr = np.zeros(starts.size + 1, dtype=kind)
    np.cumsum(np.bincount(rows, minlength=starts.size), out=indptr[1:])
    csr = scipy.sparse.csr_array((w[starts[rows], cols], cols.astype(kind), indptr), shape=(starts.size, w.shape[1]))
    return csr, index


def network(*layers: tuple[object, object]) -> Network:
    """Build a Network from (weights, bias) pairs, coercing to float64 arrays."""
    return Network(tuple((np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in layers))


def dims(net: Network) -> tuple[int, ...]:
    """Layer width vector (l_0, l_1, ..., l_L)."""
    first_w = net.layers[0][0]
    return (first_w.shape[1],) + tuple(w.shape[0] for w, _ in net.layers)


def dim_at(net: Network, n: int) -> int:
    """Width of level n, or 0 when n exceeds the depth."""
    if n < 0:
        raise ValueError("level index must be >= 0")
    d = dims(net)
    return d[n] if n < len(d) else 0


def depth(net: Network) -> int:
    return len(net.layers)


def input_dim(net: Network) -> int:
    return net.layers[0][0].shape[1]


def output_dim(net: Network) -> int:
    return net.layers[-1][0].shape[0]


def hidden_count(net: Network) -> int:
    return len(net.layers) - 1


def max_width(net: Network) -> int:
    return max(dims(net))


def param_count(net: Network) -> int:
    """Total scalar parameter count, sum over layers of l_k * (l_{k-1} + 1)."""
    return sum(w.shape[0] * (w.shape[1] + 1) for w, _ in net.layers)


def realize(net: Network, act: Activation | Callable[[np.ndarray], np.ndarray], x: object) -> np.ndarray:
    """Forward pass.

    `x` may be a single input of shape (l_0,) or a batch of shape (N, l_0); the
    result has shape (l_L,) or (N, l_L) accordingly. The activation is applied
    after every layer except the last. Any callable mapping arrays elementwise
    is accepted in place of an Activation. The bias and an Activation are
    applied in place on each layer's product; `x` itself is never written.

    A dense hidden layer wider than 2,048 units whose next layer is dense and
    at most 32 wide is streamed: it is formed, biased and activated in tiles of
    64 points by 2,048 units, and each tile's product with the next layer's
    matching columns is added into that layer's (N, l_{k+1}) sum. Its (N, l_k)
    matrix is never built, so the temporaries of that layer, the leaky relu
    and softplus ones included, take one 1 MiB tile. Every other layer holds
    one (N, l_k) matrix. The next layer's sums are taken 2,048 terms at a time,
    so they can differ from a one-block product by a few ulps.

    Weights are stored dense, but a layer with at most a tenth of its entries
    nonzero, of any size, is multiplied through a CSR copy, built on the
    network's first `realize` and cached on it. Its sums run over the
    nonzeros in column order, one row at a time, so they can differ from the
    dense product by a few ulps, and a row's bits do not depend on the other
    rows of the block. The copy holds one row per run of identical rows, and
    each run's product is copied to every row of the run, so the values are
    those of a CSR copy of every row, bit for bit. A non-finite input meets
    only the nonzero weights there, so a zero weight times inf adds nothing
    instead of NaN.
    """
    z = np.asarray(x, dtype=np.float64)
    squeeze = z.ndim == 1
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != input_dim(net):
        raise ValueError(f"input has shape {np.shape(x)}, expected last axis {input_dim(net)}")
    last = len(net.layers) - 1
    layers = enumerate(zip(net.layers, net._products, net._streamed))
    for k, ((w, b), product, streamed) in layers:
        if streamed:  # the next layer's product is formed here, so the loop skips it
            k, ((w_next, b_next), _, _) = next(layers)
            z, b = _stream(z, w, b, w_next, act), b_next
        elif product is None:
            z = z @ w.T
        else:  # one product row per run of identical rows, copied to each row of the run
            csr, index = product
            z = csr @ z.T
            z = (z if index is None else z[index]).T
        z += b
        if k != last:
            z = act(z, out=z) if isinstance(act, Activation) else act(z)
    return z[0] if squeeze else z


def _stream(
    z: np.ndarray, w: np.ndarray, b: np.ndarray, w_next: np.ndarray, act: Activation | Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """act(z @ w.T + b) @ w_next.T, one tile of _TILE_ROWS points by _TILE_UNITS units at a time."""
    out = np.zeros((z.shape[0], w_next.shape[0]))
    for r in range(0, z.shape[0], _TILE_ROWS):
        rows, acc = z[r : r + _TILE_ROWS], out[r : r + _TILE_ROWS]
        for c in range(0, w.shape[0], _TILE_UNITS):
            t = rows @ w[c : c + _TILE_UNITS].T
            t += b[c : c + _TILE_UNITS]
            t = act(t, out=t) if isinstance(act, Activation) else act(t)
            acc += t @ w_next[:, c : c + _TILE_UNITS].T
    return out


# -- JSON serialization ------------------------------------------------------
#
# Schema: {"activation": tag, "dims": [...], "layers": [{"b": [...], "w": [row-major
# flat]}, ...]}, keys sorted; every entry of "b" and "w" is a JSON number. Floats are
# written as shortest round-trip decimal (Python repr), so load(save(net)) reproduces
# every bit. The text is exactly what `json.dumps(obj, sort_keys=True, allow_nan=False)`
# gives for that object.
#
# The writer formats a run of rows that are identical bit for bit once and repeats
# its text, so the text is that of one row per run and `", "` + row for each copy.
# A block with no such run and more than half its entries distinct bit patterns
# (compile-wide's 608,580 first-layer biases, say) is written by `json.dumps`, whose
# encoder formats each float with `float.__repr__`, so the bytes are the same. Any
# other block has each of its distinct bit patterns formatted once by `repr`.
#
# Text in exactly that layout is read in blocks (`_read_blocks`): runs of at least 16
# `0.0` entries are left unparsed in a zero-filled array, and the numbers between runs
# are parsed by `json.loads` in chunks of about 1 MiB, so a load holds the arrays plus
# one chunk rather than one Python float per entry. A chunk whose first 4,096 entries
# are at most a quarter distinct tokens (compile-wide's 1 x 608,580 last layer holds
# about 2,100 distinct values) is split at its commas 64 KiB at a time, the tokens not
# seen before are parsed by one `json.loads`, and each token is mapped to its value
# (`_chunk_values`). Exact byte copies of a parsed row are skipped and filled by
# copying it (`_read_array`). Any other valid layout (other key order or spacing, say)
# goes through `json.loads` + `from_json_obj`, which also raises the errors for
# malformed text.

_LAYERS_OPEN = b', "layers": ['
# A run of 16 whole `0.0` entries: the space before the first one and the comma after
# the last one rule out `-0.0`, `10.0` and `0.05`. The rest of the run is skipped by
# `_repeats`, whose memcmps skip 26 MB of zero entries (as many as a compile-deep net
# holds) in about 3 ms, where a regex takes 120 ms.
_ZERO_PROBE = b" " + b"0.0, " * 16
# What the numbers between zero runs may consist of; anything else (brackets, quotes,
# `NaN`, `true`) leaves the block reader, so `json.loads` of a chunk yields only numbers.
_NUMBER_BYTES = b"0123456789+-.eE, \t\n\r"
_CHUNK_BYTES = 1 << 20
# After a probe for repeated rows skips at least this many bytes, the next row
# is probed at once; after one that skips fewer, the batches grow as after a miss.
# A probe costs about as much as parsing 1 KB: at 1 KB, 50-entry rows repeated in
# pairs read 1.4x slower than at 2 KB, while at 4 KB compile-wide's 4,000-byte
# runs of 5-entry rows went unskipped and its load took 1.8x as long.
_PROBE_BYTES = 2048
# The writer formats arrays in blocks of this many entries, so a save holds one
# block's strings (about 2 MB of pointers) beside the network, not one per entry.
_WRITE_ENTRIES = 1 << 18
# A block of mostly distinct entries goes through `json.dumps` this many entries a
# piece, so a save holds one piece's floats and text. Saving 600,000 distinct
# floats peaked (tracemalloc) at 0.48 times their text; at 2^18 a piece, 1.25 times.
_DUMPS_ENTRIES = 1 << 16
# The reader decides how to parse a chunk from its first this many entries.
_PROBE_TOKENS = 4096
# A chunk of repeated numbers is split into tokens this many bytes at a time. Split
# whole, a 1 MiB chunk holds 50,000 token objects at once, and compile-wide's peak
# RSS, set later by verify's compile, came out 1-2 MB higher than with 64 KiB pieces.
_MEMO_BYTES = 1 << 16


def _entry_texts(a: np.ndarray) -> np.ndarray:
    """The shortest round-trip text of each entry of `a`, row-major, as an object array.

    Compiled nets are mostly zeros and repeat few values, so each distinct bit
    pattern is formatted once. Grouping is by bits, not by value, so -0.0 keeps
    its sign; every +0.0 entry shares one string object.
    """
    bits = np.ravel(a).view(np.int64)
    nonzero = bits != 0
    values, inverse = np.unique(bits[nonzero], return_inverse=True)
    texts = np.array([repr(v) for v in values.view(np.float64).tolist()], dtype=object)
    out = np.empty(bits.size, dtype=object)
    out.fill("0.0")
    out[nonzero] = texts[inverse]
    return out


def _mostly_distinct(a: np.ndarray) -> bool:
    """Whether more than half the entries of `a` are distinct bit patterns, counted on the sorted bits."""
    bits = np.sort(np.ravel(a).view(np.int64))
    return 2 * (1 + np.count_nonzero(bits[1:] != bits[:-1])) > bits.size


def _json_floats(a: np.ndarray) -> Iterator[str]:
    """The text inside the brackets of `json.dumps(a.ravel().tolist())`, in pieces of at most one block.

    A matrix whose rows fit in a block is written whole rows a block, and each
    run of rows that are identical bit for bit is formatted once: its text is
    repeated. A 1-D array, or a matrix with longer rows, is cut into blocks of
    `_WRITE_ENTRIES` entries across rows, with no run looked for. A block with
    no run whose entries are mostly distinct is written by `json.dumps` in
    pieces of `_DUMPS_ENTRIES`, which formats each float with `float.__repr__`
    at C speed; every other block formats each distinct bit pattern once.
    """
    if a.ndim == 1 or a.shape[1] > _WRITE_ENTRIES:
        flat = np.ravel(a)
        blocks = (flat[s : s + _WRITE_ENTRIES].reshape(1, -1) for s in range(0, flat.size, _WRITE_ENTRIES))
    else:
        step = _WRITE_ENTRIES // a.shape[1]
        blocks = (a[s : s + step] for s in range(0, a.shape[0], step))
    for k, block in enumerate(blocks):
        if k:
            yield ", "
        new = _new_rows(block)
        if not new.all():
            distinct = _entry_texts(block[new]).reshape(-1, block.shape[1]).tolist()
            runs = np.array([", ".join(row) for row in distinct], dtype=object)
            yield ", ".join(runs[np.cumsum(new) - 1].tolist())
        elif _mostly_distinct(block):
            entries = np.ravel(block)
            for s in range(0, entries.size, _DUMPS_ENTRIES):
                yield (", " if s else "") + json.dumps(entries[s : s + _DUMPS_ENTRIES].tolist())[1:-1]
        else:
            yield ", ".join(_entry_texts(block).tolist())


def _json_pieces(net: Network, act: Activation) -> Iterator[str]:
    """The text of `dumps_network` in pieces, none longer than one array chunk."""
    if not all(np.all(np.isfinite(a)) for layer in net.layers for a in layer):
        raise ValueError("network contains non-finite values; refusing to serialize")
    yield f'{_header(act.tag(), dims(net))}, "layers": ['
    for k, (w, b) in enumerate(net.layers):
        yield ', {"b": [' if k else '{"b": ['
        yield from _json_floats(b)
        yield '], "w": ['
        yield from _json_floats(w)
        yield "]}"
    yield "]}"


def _header(tag: str, shape: Sequence[int]) -> str:
    return f'{{"activation": {json.dumps(tag)}, "dims": {json.dumps(list(shape))}'


def _numbers(values: list, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only float64 array of `shape` that owns its memory, from a list of JSON numbers."""
    if not set(map(type, values)) <= {float, int}:
        raise ValueError(f"{what} must be JSON numbers")
    size = math.prod(shape)
    if len(values) != size:
        raise ValueError(f"expected {size} {what}, got {len(values)}")
    out = np.empty(shape)
    try:
        out.reshape(-1)[:] = values
    except OverflowError:
        raise ValueError(f"{what} must be finite") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} must be finite")
    return read_only(out)


def from_json_obj(obj: object) -> tuple[Network, Activation]:
    """Inverse of `dumps_network`; any malformed object is a ValueError."""
    if not (isinstance(obj, dict) and isinstance(obj.get("activation"), str)):
        raise ValueError("network JSON must be an object with a string 'activation'")
    shape, raw = obj.get("dims"), obj.get("layers")
    if not (isinstance(shape, list) and len(shape) >= 2 and all(type(v) is int for v in shape)):
        raise ValueError(f"dims must list at least two integer widths, got {shape!r}")
    if not isinstance(raw, list) or len(raw) != len(shape) - 1:
        raise ValueError(f"expected a list of {len(shape) - 1} layers for dims {shape}")
    layers = []
    for k, entry in enumerate(raw):
        rows, cols = shape[k + 1], shape[k]
        if not (isinstance(entry, dict) and all(isinstance(entry.get(key), list) for key in "wb")):
            raise ValueError(f"layer {k}: expected an object with lists 'w' and 'b'")
        try:
            w = _numbers(entry["w"], (rows, cols), "weights")
            b = _numbers(entry["b"], (rows,), "biases")
        except ValueError as exc:
            raise ValueError(f"layer {k}: {exc}") from None
        layers.append((w, b))
    return network(*layers), parse_activation(obj["activation"])


def _expect(data: bytes, pos: int, token: bytes) -> int:
    if not data.startswith(token, pos):
        raise ValueError(f"expected {token!r} at byte {pos}")
    return pos + len(token)


def _chunk_values(chunk: bytes) -> list:
    """The JSON numbers of `chunk`, parsed as `json.loads` parses them inside brackets.

    A chunk whose first `_PROBE_TOKENS` comma-separated tokens are at most a
    quarter distinct is read `_MEMO_BYTES` at a time: the tokens of each piece
    not seen before are parsed by one `json.loads`, and each token is mapped to
    its value. Any other chunk goes through `json.loads` whole.
    """
    head = chunk.split(b",", _PROBE_TOKENS)[:_PROBE_TOKENS]
    if 4 * len(set(head)) > len(head):
        values = json.loads(b"[" + chunk + b"]")
        # An empty chunk would swallow the comma before it.
        if not values:
            raise ValueError("wrong entry count")
        return values
    values, known, start = [], {}, 0
    while start <= len(chunk):
        cut = chunk.find(b",", start + _MEMO_BYTES)
        cut = len(chunk) if cut < 0 else cut
        tokens = chunk[start:cut].split(b",")
        fresh = [token for token in dict.fromkeys(tokens) if token not in known]
        parsed = json.loads(b"[" + b",".join(fresh) + b"]")
        # An empty token would swallow a comma, so one fewer value than tokens comes back.
        if len(parsed) != len(fresh):
            raise ValueError("wrong entry count")
        known.update(zip(fresh, parsed))
        values += map(known.__getitem__, tokens)
        start = cut + 1
    return values


def _parse_numbers(data: bytes, pos: int, stop: int, flat: np.ndarray, filled: int) -> int:
    """Parse the numbers of `data[pos:stop]` into `flat[filled:]`; returns the new fill count."""
    while True:
        cut = data.find(b",", pos + _CHUNK_BYTES, stop)
        cut = stop if cut < 0 else cut
        chunk = data[pos:cut]
        if chunk.translate(None, _NUMBER_BYTES):
            raise ValueError("entries must be JSON numbers")
        values = _chunk_values(chunk)
        if filled + len(values) > flat.size:
            raise ValueError("wrong entry count")
        flat[filled : filled + len(values)] = values
        filled += len(values)
        if cut == stop:
            return filled
        pos = cut + 1


def _read_numbers(data: bytes, pos: int, stop: int, flat: np.ndarray, filled: int) -> int:
    """Read the entries of `data[pos:stop]` into `flat[filled:]`, skipping runs of 16 or more `0.0`; returns the new fill count."""
    while True:
        run = data.find(_ZERO_PROBE, pos, stop)
        if run < 0:
            return _parse_numbers(data, pos, stop, flat, filled)
        _expect(data, run - 1, b",")
        if run > pos:  # a run at `pos` follows the comma that ends the text before it
            filled = _parse_numbers(data, pos, run - 1, flat, filled)
        copies, pos = _repeats(data, run - 1, stop, b", 0.0")
        filled += copies
        if pos == stop:
            return filled
        pos += 1


def _commas(view: np.ndarray, pos: int, n: int, stop: int) -> np.ndarray:
    """The indices of the first `n` commas in `view[pos:stop]`, or of all of them if there are fewer."""
    found, count, window = [], 0, 8 * n
    while count < n and pos < stop:
        end = min(stop, pos + window)
        hits = np.flatnonzero(view[pos:end] == ord(","))
        found.append(hits[: n - count] + pos)
        count, pos, window = count + hits.size, end, 2 * window
    return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def _repeats(data: bytes, pos: int, stop: int, unit: bytes) -> tuple[int, int]:
    """How many copies of `unit` follow `pos`, the last one ending at a comma or at `stop`; and the index after them.

    Copies are compared in blocks of 1, 2, 4, ... copies while they match, then
    in the halves back down, so n copies take about 2 log2(n) memcmps. A block
    of several copies is at most _CHUNK_BYTES long.
    """
    blocks, copies = [unit], 0
    while data.startswith(blocks[-1], pos, stop):
        pos, copies = pos + len(blocks[-1]), copies + len(blocks[-1]) // len(unit)
        if 2 * len(blocks[-1]) <= _CHUNK_BYTES:
            blocks.append(blocks[-1] * 2)
    for block in reversed(blocks[:-1]):
        if data.startswith(block, pos, stop):
            pos, copies = pos + len(block), copies + len(block) // len(unit)
    if copies and pos < stop and data[pos] != ord(","):  # the last copy's last entry runs on, as 1.0 does in 1.05
        pos, copies = pos - len(unit), copies - 1
    return copies, pos


def _read_array(data: bytes, pos: int, shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Read the entries from `pos` to the next `]` into a new read-only array; returns it and the `]`'s index.

    The rows of a matrix whose rows fit in one write piece are read in
    batches. After each batch one whole row is parsed, and the copies of its
    text that follow it, each `", "` + row, are skipped with `startswith` and
    filled by copying the parsed row. A batch after a miss is twice as long
    as the one before, up to _CHUNK_BYTES, so an array with no repeated rows
    pays a probe per chunk.
    """
    stop = data.find(b"]", pos)
    if stop < 0:
        raise ValueError("unterminated array")
    out = np.zeros(shape)
    flat = out.reshape(-1)
    cols = shape[1] if len(shape) == 2 and shape[1] <= _WRITE_ENTRIES else flat.size
    view = np.frombuffer(data, dtype=np.uint8)
    filled = span = 0
    while True:
        if span:  # a batch: up to the first comma `span` bytes on
            cut = data.find(b",", pos + span, stop)
            cut = stop if cut < 0 else cut
            filled = _read_numbers(data, pos, cut, flat, filled)
            if cut == stop:
                break
            pos = cut + 1
        # the rest of the row the batch ended in, then one whole row to look for copies of
        need = -filled % cols + cols
        if filled + need >= flat.size:
            filled = _read_numbers(data, pos, stop, flat, filled)
            break
        commas = _commas(view, pos, need, stop)
        if commas.size < need:
            raise ValueError("wrong entry count")
        end = int(commas[-1])
        start = int(commas[-1 - cols]) if need > cols else pos - 1
        filled = _read_numbers(data, pos, end, flat, filled)
        unit = b"," + data[start + 1 : end]
        copies, pos = _repeats(data, end, stop, unit)
        if filled + copies * cols > flat.size:
            raise ValueError("wrong entry count")
        if copies:
            flat[filled : filled + copies * cols].reshape(copies, cols)[:] = flat[filled - cols : filled]
            filled += copies * cols
        # a probe that saved little is as good as a miss
        span = 0 if copies * len(unit) >= _PROBE_BYTES else min(max(2 * span, len(unit)), _CHUNK_BYTES)
        if pos == stop:
            break
        pos += 1
    if filled != flat.size or not np.all(np.isfinite(flat)):
        raise ValueError("wrong entry count or non-finite entries")
    return read_only(out), stop


def _read_blocks(data: bytes) -> tuple[list[Layer], str]:
    """The layers and activation tag of text in exactly the layout `dumps_network` writes.

    Raises ValueError (or OverflowError) for any other text, valid JSON or not.
    """
    head_end = data.find(_LAYERS_OPEN)
    if head_end < 0:
        raise ValueError("no layers")
    head = json.loads(data[:head_end] + b"}")
    tag, shape = head.get("activation"), head.get("dims")
    if not (
        isinstance(tag, str)
        and isinstance(shape, list)
        and len(shape) >= 2
        and all(type(v) is int and v >= 1 for v in shape)
        # every entry takes at least one byte, so no larger net fits in the text
        and sum(rows * (cols + 1) for cols, rows in zip(shape, shape[1:])) <= len(data)
        and data[:head_end] == _header(tag, shape).encode()
    ):
        raise ValueError("not the header dumps_network writes")
    pos = head_end + len(_LAYERS_OPEN)
    layers = []
    for k, (cols, rows) in enumerate(zip(shape, shape[1:])):
        bias, pos = _read_array(data, _expect(data, pos, b', {"b": [' if k else b'{"b": ['), (rows,))
        weights, pos = _read_array(data, _expect(data, pos, b'], "w": ['), (rows, cols))
        pos = _expect(data, pos, b"]}")
        layers.append((weights, bias))
    if data[_expect(data, pos, b"]}") :] not in (b"", b"\n"):
        raise ValueError("trailing text")
    return layers, tag


def dumps_network(net: Network, act: Activation) -> str:
    return "".join(_json_pieces(net, act))


def loads_network(text: str | bytes) -> tuple[Network, Activation]:
    """Inverse of `dumps_network`; text in any other valid JSON layout loads too.

    Text in the layout `dumps_network` writes is read in blocks: runs of zeros
    and exact byte copies of a matrix row are skipped and filled in, and the
    rest is parsed by the json module a chunk at a time, a chunk that repeats
    a few values one distinct value at a time. Every entry of "w"
    and "b" must be a finite JSON number; anything malformed is a ValueError.
    """
    try:
        try:
            layers, tag = _read_blocks(text if isinstance(text, bytes) else text.encode("ascii"))
        except (ValueError, OverflowError):  # another layout, or malformed: the json module decides
            return from_json_obj(json.loads(text))
    except RecursionError:
        raise ValueError("network JSON is nested too deeply") from None
    return Network(tuple(layers)), parse_activation(tag)


def save_network(path: str | Path, net: Network, act: Activation) -> None:
    """Write `dumps_network(net, act)` and a newline, one array chunk at a time."""
    with Path(path).open("w") as fh:
        fh.writelines(_json_pieces(net, act))
        fh.write("\n")


def load_network(path: str | Path) -> tuple[Network, Activation]:
    return loads_network(Path(path).read_bytes())
