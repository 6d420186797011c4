"""Deterministic, stateless randomness keyed by seed, path, and purpose.

Every random quantity in the estimator and the compiler is a pure function of
(seed, theta path, kind tag, block counter): the message is hashed with keyed
BLAKE2b, the 64-byte digest is split into eight 64-bit lanes, and each lane k
becomes the uniform (k + 0.5) * 2**-64 in the open interval (0, 1). Gaussians
are produced by the inverse normal CDF (this choice is fixed; swapping in a
different transform would silently change every sampled path).

Theta paths are tuples of 64-bit signed integers; the canonical encoding is a
little-endian uint64 length prefix followed by each entry as a little-endian
two's-complement int64. The root path is the single entry 0.

Block form: `uniform01`, `gaussians`, `uniform_time` and `brownian_increment`
also take a block of K paths of one length L, a (K, L) signed-integer array,
and then return one row of draws per path (times of shape (K,) for per-row t
of shape (K,), increments of shape (K, d) for per-row s of shape (K,)). A tuple
is one path; an array is a block, and must be 2-D.

Seed block: `uniform_time` and `brownian_increment` also take a sequence of S
oracles of one dimension in place of one oracle, with t or s of shape (S, K)
for a block ((S,) for one path), and return (S, K) times or (S, K, d)
increments ((S,) or (S, d)). Each message is encoded once, and every oracle
digests it under its own key.

Kept messages: a `PathBlock` is a read-only block that keeps the messages of
each (kind, count) it is drawn with, so drawing it again, under any oracle,
hashes them without encoding them again. Every path is still digested on
every draw.

Row (s, j) of any form equals oracle s's single-path call on
`tuple(paths[j])` bit for bit: both hash the same bytes (the block is encoded
by one `astype("<i8")`, each row after the shared length prefix), and every
later step is elementwise. Times and horizons must be finite.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

import numpy as np
from scipy.special import ndtri

ThetaPath = tuple[int, ...]
Paths = ThetaPath | np.ndarray

KIND_TIME = b"T"
KIND_GAUSS = b"W"
KIND_BOX = b"B"
KIND_PROBE = b"P"

_TWO64 = float(2**64)
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def theta_bytes(theta: ThetaPath) -> bytes:
    """Canonical byte encoding of a theta path."""
    parts = [struct.pack("<Q", len(theta))]
    for entry in theta:
        # a bool is an int, but True would key the draws of the path with 1
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)):
            raise ValueError(f"theta entries must be integers, got {type(entry).__name__}")
        entry = int(entry)
        if entry < _INT64_MIN or entry > _INT64_MAX:
            raise ValueError(f"theta entry {entry} does not fit in 64 bits")
        parts.append(struct.pack("<q", entry))
    return b"".join(parts)


def check_seed(seed: object) -> None:
    """Reject a seed that is not a Python or NumPy integer in the signed 64-bit
    range, which would otherwise key the oracle of another seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seeds must be integers, got {seed!r}")
    if not _INT64_MIN <= seed <= _INT64_MAX:
        raise ValueError(f"seed {seed} does not fit in 64 bits")


def _is_block(paths: Paths) -> bool:
    return isinstance(paths, np.ndarray)


class PathBlock(np.ndarray):
    """A read-only int64 copy of a (K, L) block of paths that keeps the messages
    of each (kind, count) it is drawn with, from its first draw on. It draws
    what the plain block draws, bit for bit; a slice of it keeps nothing."""

    messages: dict[tuple[bytes, int], list[bytes]] | None = None

    def __new__(cls, paths: np.ndarray) -> PathBlock:
        block = np.array(paths, dtype=np.int64).view(cls)
        block.flags.writeable = False
        block.messages = {}
        return block


def _block_bytes(paths: np.ndarray) -> list[bytes]:
    """Canonical encoding of every row of a (K, L) block, as `theta_bytes` gives it."""
    if paths.ndim != 2:
        raise ValueError(f"a block of paths must be 2-D, got shape {paths.shape}")
    # unsigned entries of 2**63 and above would wrap, so only signed integers pass
    if paths.dtype.kind != "i":
        raise ValueError(f"a block of paths must have a signed integer dtype, got {paths.dtype}")
    head = struct.pack("<Q", paths.shape[1])
    width = 8 * paths.shape[1]
    if not width:
        return [head] * len(paths)
    raw = paths.astype("<i8").tobytes()
    return [head + raw[start : start + width] for start in range(0, len(raw), width)]


class RandomOracle:
    """Counter-based random field over theta paths for one seed and dimension.

    The seed must pass `check_seed`, so that distinct seeds key distinct oracles.
    """

    def __init__(self, seed: int, d: int) -> None:
        check_seed(seed)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.seed = int(seed)
        self.d = int(d)
        self._key = struct.pack("<q", self.seed)
        self._keyed = hashlib.blake2b(digest_size=64, key=self._key)

    def uniform01(self, theta: Paths, kind: bytes, count: int) -> np.ndarray:
        """`count` uniforms in (0, 1), eight per digest block: shape (count,)
        for one path, (K, count) for a block of K paths."""
        u = _uniforms([self], theta, kind, count)[0]
        return u if _is_block(theta) else u[0]

    def gaussians(self, theta: Paths, count: int) -> np.ndarray:
        """Standard normals via the inverse CDF of per-lane uniforms."""
        return ndtri(self.uniform01(theta, KIND_GAUSS, count))


def _messages(theta: Paths, kind: bytes, count: int) -> list[bytes]:
    """The messages of `count` uniforms of `kind` on every path of `theta`, path
    after path: the path's encoding, the kind and a digest counter. A `PathBlock`
    keeps them once built."""
    kept = theta.messages if isinstance(theta, PathBlock) else None
    if kept is not None and (kind, count) in kept:
        return kept[kind, count]
    rows = _block_bytes(theta) if _is_block(theta) else [theta_bytes(theta)]
    tails = [kind + struct.pack("<Q", index) for index in range((count + 7) // 8)]
    messages = [row + tail for row in rows for tail in tails]
    if kept is not None:
        kept[kind, count] = messages
    return messages


def _uniforms(oracles: list[RandomOracle], theta: Paths, kind: bytes, count: int) -> np.ndarray:
    """(S, K, count) uniforms of S oracles on K paths (K = 1 for one path). The
    messages are built once (or kept by a `PathBlock`); each oracle in turn
    digests them all under its key and converts its lanes into its slice of one
    preallocated block. The block is laid out (K, S, count), so the (S, K,
    count) result is a transposed view and swapping its first two axes back
    gives the depth records' contiguous (K, S, count)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    messages = _messages(theta, kind, count)
    paths = len(theta) if _is_block(theta) else 1
    u = np.empty((paths, len(oracles), count))
    for j, oracle in enumerate(oracles):
        copy = oracle._keyed.copy
        digests = []
        for message in messages:
            h = copy()
            h.update(message)
            digests.append(h.digest())
        lanes = np.frombuffer(b"".join(digests), dtype="<u8").reshape(paths, 8 * ((count + 7) // 8))
        u[:, j] = lanes[:, :count]
    u += 0.5
    u /= _TWO64
    return u.transpose(1, 0, 2)


def _seed_block(
    oracle: RandomOracle | Sequence[RandomOracle], theta: Paths, values: object, name: str
) -> tuple[list[RandomOracle], np.ndarray, tuple[int, ...]]:
    """The oracles of a draw, its finite per-row values as an (S, K) array, and
    the shape they must be given in: () for one oracle and one path, (K,) for
    one oracle and K paths, (S,) or (S, K) for a sequence of S oracles."""
    single = isinstance(oracle, RandomOracle)
    oracles = [oracle] if single else list(oracle)
    if not oracles or len({o.d for o in oracles}) > 1:
        raise ValueError("need one oracle, or a nonempty sequence of oracles of one dimension")
    shape = (len(theta),) if _is_block(theta) else ()
    if not single:
        shape = (len(oracles), *shape)
    values = np.asarray(values, dtype=np.float64)
    if values.shape != shape:
        raise ValueError(f"{name} must have shape {shape} for these oracles and paths, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return oracles, values.reshape(len(oracles), -1), shape


def uniform_time(
    oracle: RandomOracle | Sequence[RandomOracle], theta: Paths, t: object, horizon: float
) -> float | np.ndarray:
    """One time drawn uniformly from [t, horizon], keyed by the theta path.

    For a block of K paths, t has shape (K,) and so does the result; for a
    sequence of S oracles, both have shape (S, K) (or (S,) for one path)."""
    oracles, t, shape = _seed_block(oracle, theta, t, "t")
    if not (np.isfinite(horizon) and np.all(t <= horizon)):
        raise ValueError(f"need t <= horizon and a finite horizon, got t={t}, horizon={horizon}")
    s = t + (horizon - t) * _uniforms(oracles, theta, KIND_TIME, 1)[..., 0]
    return s.reshape(shape) if shape else float(s[0, 0])


def brownian_increment(
    oracle: RandomOracle | Sequence[RandomOracle], theta: Paths, s: object
) -> np.ndarray:
    """Brownian displacement over elapsed time s >= 0: sqrt(s) times the path's
    fixed Gaussian vector, so the same theta at two times gives collinear draws.

    For a block of K paths, s has shape (K,) and the result (K, d); for a
    sequence of S oracles, s has shape (S, K) and the result (S, K, d), or
    (S,) and (S, d) for one path."""
    oracles, s, shape = _seed_block(oracle, theta, s, "s")
    if np.any(s < 0):
        raise ValueError(f"elapsed times must be >= 0, got min s={s.min()}")
    d = oracles[0].d
    moves = _uniforms(oracles, theta, KIND_GAUSS, d)
    ndtri(moves, out=moves)
    moves *= np.sqrt(s)[..., None]
    return moves.reshape(*shape, d)


def box_point(oracle: RandomOracle, index: int, low: float, high: float) -> np.ndarray:
    """Point `index` of the uniform stream on the box [low, high]^d."""
    if not low < high:
        raise ValueError("box needs low < high")
    u = oracle.uniform01((int(index),), KIND_BOX, oracle.d)
    return low + (high - low) * u


def box_points(oracle: RandomOracle, count: int, low: float, high: float) -> np.ndarray:
    """The first `count` points of the uniform box stream, shape (count, d):
    row i is `box_point(oracle, i, low, high)`, drawn in one block."""
    if not low < high:
        raise ValueError("box needs low < high")
    u = oracle.uniform01(np.arange(count, dtype=np.int64)[:, None], KIND_BOX, oracle.d)
    return low + (high - low) * u


def probe_point(oracle: RandomOracle, index: int, low: float, high: float) -> np.ndarray:
    """Like box_point but on a stream reserved for equivalence probes."""
    if not low < high:
        raise ValueError("probe box needs low < high")
    u = oracle.uniform01((int(index),), KIND_PROBE, oracle.d)
    return low + (high - low) * u
