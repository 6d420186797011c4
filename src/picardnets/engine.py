"""Full-history recursive multilevel Picard estimator.

`mlp_eval` evaluates the level-n estimate of the terminal-form semilinear heat
equation u_t + (1/2) Lap(u) + f(u) = 0, u(horizon, x) = g(x), at space-time
points. Level 0 is identically zero. Level n averages M**n samples of the
terminal datum over Brownian endpoints, plus for each earlier level i a
time-averaged difference of the nonlinearity evaluated on the level-i and
level-(i-1) recursions. Both nonlinearity evaluations inside one summand share
the same drawn time and the same Brownian displacement; only the subtracted
recursion descends along its own sign-flipped path.

All randomness comes from the stateless oracle and none of it depends on x,
so `_draw_depths` makes every oracle call of one estimate up front, as two
block calls per depth of the recursion, and returns the draws of each depth
as one `_Depth` record. The estimator here reads the records a depth at a
time: top down for the node inputs and the datum averages, with `fns.g` on
whole nodes of one level a call, then bottom up with `fns.f` once per depth.
The compiler in `compiler.py` reads the same records bottom up, one node at
a time, so both see the same draws by construction. The records hold only the
draws they read: a summand of f on a level-0 recursion is f(0) whatever is
drawn for it, so tier 0 and level-0 recursions get no draws and no nodes, and
a (4,3) tree hashes 1,032 paths where the definition's recursion hashes
2,544. The paths do not depend on the seed, so a small tree drawn twice in a
row keeps them for the next draw (`_draw_depths`), one tree holds the draws of S
oracles side by side, and with the array-valued f and g of `ProblemFns` one
read of it serves a whole block of S seeds by N points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .sampling import (
    PathBlock,
    RandomOracle,
    ThetaPath,
    brownian_increment,
    theta_bytes,
    uniform_time,
)

ROOT_PATH: ThetaPath = (0,)


@dataclass(frozen=True)
class MlpConfig:
    """Level n, branching factor M, horizon, evaluation time, and dimension."""

    n: int
    M: int
    horizon: float
    t: float
    d: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("level must be >= 0")
        if self.M < 1:
            raise ValueError("branching factor must be >= 1")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not (np.isfinite(self.horizon) and np.isfinite(self.t)):
            raise ValueError("times must be finite")
        if not 0.0 <= self.t <= self.horizon:
            raise ValueError(f"need 0 <= t <= horizon, got t={self.t}, horizon={self.horizon}")


@dataclass(frozen=True)
class ProblemFns:
    """Nonlinearity f: R -> R and terminal datum g: R^d -> R, in array form.

    `f` maps an array elementwise to an array of the same shape; `g` maps
    points of shape (..., d) to values of shape (...), so (N, d) gives (N,).
    `f_lipschitz` is accepted for existing callers and ignored.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    f_lipschitz: float | None = None


def _oracle_list(oracle: RandomOracle | Sequence[RandomOracle], d: int) -> list[RandomOracle]:
    oracles = [oracle] if isinstance(oracle, RandomOracle) else list(oracle)
    if not oracles:
        raise ValueError("need at least one oracle")  # a level-0 tree draws nothing to check it
    for o in oracles:
        if o.d != d:
            raise ValueError(f"oracle dimension {o.d} != problem dimension {d}")
    return oracles


class _Depth(NamedTuple):
    """The draws of one depth of a sample tree, node after node.

    A node of level m has m tiers. Tier 0 is only its scale (horizon - t) /
    M**m at the node's time t: each of its M**m summands is f of a level-0
    recursion, which is identically 0, so it is f(0) whatever would be drawn
    for it, and nothing is. Tier i >= 1 has scale (horizon - t) / M**(m-i) and
    M**(m-i) branches, drawn along (theta, i, k), each a time and a shift. The
    next depth holds each branch's `child`, the level-i tree at the branch's
    time along its path, and for i >= 2 its `below` tree, the level-(i-1) tree
    at the same time along (theta, -i, k). A tier-1 branch's subtracted term is
    f(0) again, so it has no `below` tree (-1), every node has level m >= 1, and
    a level-0 estimate has no depths. The nodes of a depth are sorted by level,
    highest first, and otherwise keep the order in which the branches above
    make them: all children in branch order, then all `below` trees. So each
    level's nodes, and their rows of every field, are contiguous (`_groups`).
    The drawn times enter the records only through the scales and shifts, the
    two things read.

    A level-n tree hashes D(n) paths: D(0) = 0 and
        D(n) = M**n + sum_{i=1}^{n-1} M**(n-i) * (2 + D(i) + D(i-1)),
    a Gaussian vector per datum shift, and a time and a Gaussian vector per
    branch. At (4,3) that is 1,032 paths: 138 times and 894 Gaussian vectors.
    """

    levels: tuple[int, ...]  # each node's level m >= 1, non-increasing
    scales: np.ndarray  # (tiers, S): tiers 0..m-1 of each node
    datum_moves: np.ndarray  # (shifts, 1, S, d): the M**m datum shifts of each node
    branch_moves: np.ndarray  # (branches, S, d): tiers 1..m-1 of each node, M**(m-i) a tier
    branch_owner: np.ndarray  # (branches,): the node each branch belongs to
    child: np.ndarray  # (branches,): each branch's child, a node of the next depth
    below: np.ndarray  # (branches,): each branch's `below` tree in the next depth, or -1


class _Step(NamedTuple):
    """The part of one depth of a sample tree that does not depend on the seed:
    where each draw is keyed and where it goes. In a kept plan every array is
    read-only."""

    levels: tuple[int, ...]  # as in `_Depth`
    datum_owner: np.ndarray  # (shifts,): the node each datum shift belongs to
    tier_owner: np.ndarray  # (tiers,): the node each tier belongs to
    divisors: np.ndarray  # (tiers,): each tier's M**(m-i)
    branch_owner: np.ndarray  # as in `_Depth`
    time_paths: np.ndarray  # (branches, L): each branch's path, for its time; a `PathBlock` in a kept plan
    move_paths: np.ndarray  # (shifts + branches, L): each datum shift's path, then the branch paths
    child: np.ndarray  # as in `_Depth`
    below: np.ndarray  # as in `_Depth`
    starts: np.ndarray  # (next nodes,): the branch whose time each node of the next depth starts at


# The key (theta_bytes(theta), n, M, d) of the most recent draw, and its plan once kept.
_recent: tuple[tuple[bytes, int, int, int] | None, tuple[_Step, ...] | None] = (None, None)

# A plan is kept only while its D(n) paths, one message each per 8 coordinates
# (see `_Depth`), make at most this many messages: a few MB of plan and messages.
_KEEP_MESSAGES = 1 << 15


def _draw_depths(
    cfg: MlpConfig, theta: ThetaPath, oracle: RandomOracle | Sequence[RandomOracle]
) -> list[_Depth]:
    """Every oracle draw that the level-cfg.n estimate at (cfg.t, theta) reads,
    one `_Depth` record per depth of its sample tree (none for n = 0), for one
    oracle or for each of a sequence of S oracles (S = 1 for one).

    The paths drawn, and where each draw goes, depend on (n, M, theta) only:
    `_plan` works them out a depth at a time. A tree drawn twice in a row (one
    (theta, n, M, d)) is kept whole from its second draw on, path blocks and
    their encoded messages, if it is small (`_KEEP_MESSAGES`); any other draw
    keeps nothing and drops the kept plan first. What is left here is the
    seed's part, made breadth first. Every path drawn at one depth of the tree
    has the same length, and a node's time is its parent's branch time, so one
    depth is two block calls for all S oracles: `uniform_time` for the times of
    all its branches, then `brownian_increment` for all its datum shifts and
    branch displacements. Each call encodes the paths' messages once (or reads
    the kept ones), and every oracle hashes them under its own key. Block rows
    equal per-path draws bit for bit, so seed j holds the draws that the
    definition's recursion makes path by path with oracle j, less those of tier
    0 and of level-0 recursions, which no reader reads: D(n) hashed paths in
    all (see `_Depth`).
    """
    global _recent
    key = (theta_bytes(theta), cfg.n, cfg.M, cfg.d)  # rejects entries that are not 64-bit integers
    oracles = _oracle_list(oracle, cfg.d)
    last, plan = _recent
    if last != key or plan is None:
        keep = last == key and _hashed_paths(cfg.n, cfg.M) * -(-cfg.d // 8) <= _KEEP_MESSAGES
        _recent = (key, None)  # the old plan goes before a new one is built
        plan = _plan(key[0], cfg.n, cfg.M, keep)
        if keep:
            plan = tuple(plan)
            _recent = (key, plan)
    horizon = cfg.horizon
    times = np.full((len(oracles), 1), cfg.t, dtype=np.float64)  # each node's time, one row per seed
    depths = []
    for step in plan:
        start = times[:, step.branch_owner]
        s = uniform_time(oracles, step.time_paths, start, horizon)
        elapsed = np.concatenate([horizon - times[:, step.datum_owner], s - start], axis=1)
        moves = brownian_increment(oracles, step.move_paths, elapsed).transpose(1, 0, 2)
        scales = (horizon - times[:, step.tier_owner]) / step.divisors
        n_datum = len(step.datum_owner)
        draws = (scales.T, moves[:n_datum, None], moves[n_datum:])
        depths.append(_Depth(step.levels, *draws, step.branch_owner, step.child, step.below))
        times = s[:, step.starts]
    return depths


def _hashed_paths(n: int, M: int) -> int:
    """D(n), the paths a level-n tree hashes (see `_Depth`)."""
    D = [0]
    for m in range(1, n + 1):
        D.append(M**m + sum(M ** (m - i) * (2 + D[i] + D[i - 1]) for i in range(1, m)))
    return D[n]


def _plan(theta: bytes, n: int, M: int, keep: bool) -> Iterator[_Step]:
    """The seed-independent part of each depth of the level-n tree along the
    path `theta`, as `theta_bytes` encodes it: one `_Step` a depth, each made
    when the depth before it has been read. With `keep`, every array is
    read-only and the path blocks are `PathBlock`s, which keep their encoded
    messages."""
    # per level m: the path suffixes of a node's datum draws (0, -k) and of its
    # branches (i >= 1, k), and the divisors M**(m-i) of its tier weights, in record order
    levels_up = range(n + 1)
    datum_sfx = [np.array([(0, -k) for k in range(1, M**m + 1)], dtype=np.int64) for m in levels_up]
    branch_sfx = [
        np.array([(i, k) for i in range(1, m) for k in range(1, M ** (m - i) + 1)], dtype=np.int64)
        .reshape(-1, 2)  # (0, 2) for m <= 1
        for m in levels_up
    ]
    divisors = [np.array([M ** (m - i) for i in range(m)], dtype=np.int64) for m in levels_up]

    # one depth of nodes: their levels and their paths
    levels = np.array([n] if n else [], dtype=np.int64)
    paths = np.frombuffer(theta, dtype="<i8", offset=8).reshape(1, -1)
    block = PathBlock if keep else np.asarray
    while len(levels):
        at = tuple(levels.tolist())
        datum_owner, datum_rows = _per_node(datum_sfx, at)
        branch_owner, branch_rows = _per_node(branch_sfx, at)
        tier_owner, tier_divisors = _per_node(divisors, at)
        branch_paths = np.hstack([paths[branch_owner], branch_rows])
        move_paths = np.vstack([np.hstack([paths[datum_owner], datum_rows]), branch_paths])
        # the next depth: every branch's child along (theta, i, k), then the
        # level-(i-1) tree along (theta, -i, k) of every branch with i >= 2,
        # sorted by level, highest first
        i, k = branch_rows[:, 0], branch_rows[:, 1]
        below = np.flatnonzero(i >= 2)
        below_paths = np.hstack([paths[branch_owner[below]], np.stack([-i[below], k[below]], axis=1)])
        levels = np.concatenate([i, i[below] - 1])
        order = np.argsort(-levels, kind="stable")
        node_of = np.empty_like(order)
        node_of[order] = np.arange(len(order))
        below_node = np.full(len(i), -1)
        below_node[below] = node_of[len(i) :]
        starts = np.concatenate([np.arange(len(i)), below])[order]
        step = _Step(
            at, datum_owner, tier_owner, tier_divisors, branch_owner,
            block(branch_paths), block(move_paths), node_of[: len(i)], below_node, starts,
        )
        for array in step[1:] if keep else ():
            array.flags.writeable = False
        yield step
        levels = levels[order]
        paths = np.vstack([branch_paths, below_paths])[order]


def _per_node(table: list[np.ndarray], levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The rows table[m] of every node of level m, node after node, and the node each row belongs to."""
    rows = [table[m] for m in levels]
    return np.repeat(np.arange(len(rows)), [len(r) for r in rows]), np.concatenate(rows)


def _groups(levels: tuple[int, ...], M: int) -> Iterator[tuple[int, slice, slice, slice, slice]]:
    """Each level m of a depth's sorted nodes, with the slices of its nodes and of
    their datum rows, tier rows and branch rows in the depth's fields."""
    starts = (0, 0, 0, 0)
    for m, run in groupby(levels):
        nodes = len(list(run))
        sizes = (nodes, nodes * M**m, nodes * m, nodes * sum(M ** (m - i) for i in range(1, m)))
        yield m, *(slice(a, a + size) for a, size in zip(starts, sizes))
        starts = tuple(a + size for a, size in zip(starts, sizes))


def mlp_eval(
    cfg: MlpConfig,
    x: object,
    theta: ThetaPath,
    fns: ProblemFns,
    oracle: RandomOracle | Sequence[RandomOracle],
) -> float | np.ndarray:
    """Level-cfg.n estimate at time cfg.t along `theta`.

    `x` is one point of shape (d,), which gives a float, or a block of points
    of shape (N, d), which gives an array of N estimates. A sequence of S
    oracles in place of one gives each oracle's estimates along a leading axis:
    shape (S,) for one point, (S, N) for a block. The sample tree is drawn once
    for all S oracles and read once for the whole block, a depth at a time.
    `fns.g` gets (rows, d) shifted points of whole nodes of one level, at most
    M**n * N * S rows a call; `fns.f` gets each depth's node values at once,
    an array of shape (nodes, N, S), and (N, S) zeros for f(0). Each estimate
    equals the one its (oracle, point) pair gets alone if f and g give an
    element the same bits in a block. The built-in f and g do. A network's
    `realize` does not quite. For the CLI's datum nets and a 17-unit f net, a
    row got the same bits anywhere in a full 64-row tile but moved by a few
    ulps in a shorter last tile, so with f and g as networks (`NetworkFn`)
    the (3,3) estimates of 7 points read as one block differed from each read
    alone by up to 5e-15 relative, at d = 5 and 16. For general dense weights
    a row can move within a full tile too (README, Determinism). Points must
    be finite.
    """
    points = np.asarray(x, dtype=np.float64)
    if points.shape[-1:] != (cfg.d,) or points.ndim not in (1, 2):
        raise ValueError(f"point has shape {points.shape}, expected ({cfg.d},) or (N, {cfg.d})")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    oracles = _oracle_list(oracle, cfg.d)
    depths = _draw_depths(cfg, theta, oracles)
    # estimates are read as (N, S) blocks: one column of points shared by every seed
    block = points.reshape(-1, 1, cfg.d)
    shape = (len(block), len(oracles))
    if depths:
        values = _read_depths(cfg, depths, block, fns, shape)
    else:
        values = np.zeros(shape)
    values = np.ascontiguousarray(values.T)
    if points.ndim == 1:
        values = values[:, 0]
    return values[0] if isinstance(oracle, RandomOracle) else values


def _read_depths(
    cfg: MlpConfig, depths: list[_Depth], block: np.ndarray, fns: ProblemFns, shape: tuple[int, int]
) -> np.ndarray:
    """The root's (N, S) estimates, read from the depth records in two passes.

    Each node's value is the recursion's: the average of g over its datum
    shifts, summed from 0.0, plus tier 0's scale times M**m copies of f(0),
    plus for each tier i >= 1 its scale times the sum, in branch order from
    0.0, of f(child) less f(below) (f(0) for i = 1). Every element goes through the same float
    operations in the same order as in that recursion.
    """
    M, d = cfg.M, cfg.d
    # top down: each depth's node inputs x + the shifts of the branches above,
    # and each node's datum average; inputs of at most two depths are alive
    inputs = np.empty((1, *shape, d))
    inputs[:] = block  # the root's input, one copy per seed
    averages = []
    for depth in depths:
        average = np.empty((len(depth.levels), *shape))
        for m, nodes, datum, _, _ in _groups(depth.levels, M):
            node_inputs, node_average = inputs[nodes, None], average[nodes]
            moves = depth.datum_moves[datum].reshape(-1, M**m, *depth.datum_moves.shape[1:])
            # whole nodes a g call, as many as the root's M**n shifts
            per = M ** (cfg.n - m)
            for c in range(0, len(moves), per):
                shifted = node_inputs[c : c + per] + moves[c : c + per]
                g_vals = fns.g(shifted.reshape(-1, d)).reshape(len(shifted), M**m, *shape)
                del shifted
                # summed over shifts in drawing order (cumsum adds sequentially; sum may pair
                # terms up) from 0.0: a sum from the first term differs from it only when every
                # term is -0.0, and then only in the sign, so adding 0.0 last is adding it first
                node_average[c : c + per] = (np.cumsum(g_vals, axis=1)[:, -1] + 0.0) / M**m
        averages.append(average)
        if len(depth.child):
            children = inputs[depth.branch_owner]
            children += depth.branch_moves[:, None]
            has_below = depth.below >= 0
            inputs = np.empty((len(children) + np.count_nonzero(has_below), *children.shape[1:]))
            inputs[depth.child] = children
            inputs[depth.below[has_below]] = children[has_below]
            del children
    del inputs

    # bottom up: f once per depth on the values of the depth below
    f_zero = fns.f(np.zeros(shape))
    # every level-0 recursion is identically zero, so its f term is f(0), and
    # the level-0 sum of a node with c datum shifts is c copies of it added in order
    counts = {M**m for m in range(1, cfg.n + 1)}
    zero_sums = {c: acc for c, acc in enumerate(accumulate([f_zero] * M**cfg.n, initial=0.0)) if c in counts}
    values = None
    for depth, average in zip(reversed(depths), reversed(averages)):
        if len(depth.child):
            f_vals = fns.f(values)
            diffs = f_vals[depth.child] - f_zero
            has_below = depth.below >= 0
            diffs[has_below] = f_vals[depth.child[has_below]] - f_vals[depth.below[has_below]]
            del f_vals
        values = np.empty((len(depth.levels), *shape))
        for m, nodes, _, tiers, branches in _groups(depth.levels, M):
            scales = depth.scales[tiers].reshape(-1, m, 1, shape[1])
            total = average[nodes] + scales[:, 0] * zero_sums[M**m]
            if m > 1:
                terms = diffs[branches].reshape(len(scales), -1, *shape)
                first = 0
                for i in range(1, m):
                    # the tier's sum from 0.0: d_1 + 0.0 turns -0.0 to 0.0 as 0.0 + d_1 does
                    terms[:, first] += 0.0
                    acc = np.cumsum(terms[:, first : first + M ** (m - i)], axis=1)[:, -1]
                    total = total + scales[:, i] * acc
                    first += M ** (m - i)
            values[nodes] = total
    return values[0]


# `mlp_estimate_batch` reads seeds in groups of at most this many (seed, point)
# estimates per tree, and at least one seed. At (4,3), d = 5, the time per
# estimate stops falling at about this S * N, while a group's draws and its
# (M**n, N, S, d) datum block grow with it.
GROUP_ESTIMATES = 256


def mlp_estimate_batch(
    cfg: MlpConfig,
    points: object,
    root_seeds: Sequence[int],
    fns: ProblemFns,
) -> np.ndarray:
    """Independent estimates for every (seed, point) pair.

    Returns an array of shape (len(root_seeds), len(points)): row i holds the
    estimates produced by the oracle seeded with root_seeds[i], one per point,
    all starting from the root path. Seeds must be integers in the signed
    64-bit range, so that distinct seeds key distinct oracles. One tree is
    drawn and read per group of seeds (see GROUP_ESTIMATES).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != cfg.d:
        raise ValueError(f"points must have shape (N, {cfg.d}), got {pts.shape}")
    oracles = [RandomOracle(seed, cfg.d) for seed in root_seeds]
    group = max(1, GROUP_ESTIMATES // max(1, len(pts)))
    out = np.empty((len(root_seeds), len(pts)))
    for start in range(0, len(oracles), group):
        out[start : start + group] = mlp_eval(cfg, pts, ROOT_PATH, fns, oracles[start : start + group])
    return out
