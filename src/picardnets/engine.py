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
so `draw_tree` makes every oracle call of one estimate up front, as two
block calls per depth of the recursion, and returns the draws as a tree of
plain tuples. The estimator here and the compiler in
`compiler.py` only read that tree, so both see the same draws by
construction. The tree holds only the draws they read: a summand of f on a
level-0 recursion is f(0) whatever is drawn for it, so tier 0 and level-0
recursions get no draws and no nodes, and a (4,3) tree hashes 1,032 paths
where the definition's recursion hashes 2,544. The paths do not depend on
the seed, so one tree holds the draws of S oracles side by side, and with
the array-valued f and g of `ProblemFns` one read of it serves a whole block
of S seeds by N points.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .sampling import (
    RandomOracle,
    ThetaPath,
    brownian_increment,
    check_seed,
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


# A level-n tree is (shifts, tiers), drawn for S oracles at once: every draw
# carries a seed axis of length S. `shifts` holds the M**n datum shifts drawn
# along (theta, 0, -k), shape (M**n, 1, S, d); the singleton axis broadcasts them
# over a block of points. Tier i < n is (scale, branches): `scale` is the
# quadrature weight (horizon - t) / M**(n-i) at the node's time t, shape (S,).
# Tier 0 is (scale, ()): each of its M**n summands is f of a level-0 recursion,
# which is identically 0, so it is f(0) whatever time and displacement it would
# get, and none is drawn. The branches of a tier i >= 1, drawn along (theta, i, k),
# are each (shift, child, below) with `shift` of shape (S, d). `child` is the
# level-i tree at the branch's drawn time along the branch path; `below` is the
# level-(i-1) tree at the same time along (theta, -i, k) when i >= 2, and None
# for i = 1, whose subtracted term is f(0) again. So every node of a tree of
# level n >= 1 has level >= 1, and the level-0 tree ((), ()) is only the whole
# tree for n = 0. The drawn times enter the tree only through the scales and
# shifts, the two things read.
#
# A level-n tree hashes D(n) paths: D(0) = 0 and
#     D(n) = M**n + sum_{i=1}^{n-1} M**(n-i) * (2 + D(i) + D(i-1)),
# a Gaussian vector per datum shift, and a time and a Gaussian vector per
# branch. At (4,3) that is 1,032 paths: 138 times and 894 Gaussian vectors.
Tree = tuple


_LEAF: Tree = ((), ())


def _oracle_list(oracle: RandomOracle | Sequence[RandomOracle], d: int) -> list[RandomOracle]:
    oracles = [oracle] if isinstance(oracle, RandomOracle) else list(oracle)
    if not oracles:
        raise ValueError("need at least one oracle")
    for o in oracles:
        if o.d != d:
            raise ValueError(f"oracle dimension {o.d} != problem dimension {d}")
    return oracles


def draw_tree(
    cfg: MlpConfig, theta: ThetaPath, oracle: RandomOracle | Sequence[RandomOracle]
) -> Tree:
    """Every oracle draw that the level-cfg.n estimate at (cfg.t, theta) reads,
    as a tree (layout above), for one oracle or for each of a sequence of S
    oracles (S = 1 for one).

    The draws are made breadth first. Every path drawn at one depth of the tree
    has the same length, and a node's time is its parent's branch time, so one
    depth is two block calls per oracle: `uniform_time` for the times of all its
    branches, then `brownian_increment` for all its datum shifts and branch
    displacements. The paths do not depend on the seed, so each depth builds its
    block once for all oracles. Block rows equal per-path draws bit for bit, so
    seed j of this tree holds the draws that the definition's recursion makes
    path by path with oracle j, less those of tier 0 and of level-0 recursions,
    which no reader reads: D(n) hashed paths in all (see above).
    """
    theta_bytes(theta)  # rejects entries that are not 64-bit integers
    oracles = _oracle_list(oracle, cfg.d)
    if not cfg.n:
        return _LEAF
    M, horizon = cfg.M, cfg.horizon
    # per level m: the path suffixes of a node's datum draws (0, -k) and of its
    # branches (i >= 1, k), and the divisors M**(m-i) of its tier weights, in layout order
    levels_up = range(cfg.n + 1)
    datum_sfx = [np.array([(0, -k) for k in range(1, M**m + 1)], dtype=np.int64) for m in levels_up]
    branch_sfx = [
        np.array([(i, k) for i in range(1, m) for k in range(1, M ** (m - i) + 1)], dtype=np.int64)
        .reshape(-1, 2)  # (0, 2) for m <= 1
        for m in levels_up
    ]
    divisors = [np.array([M ** (m - i) for i in range(m)], dtype=np.int64) for m in levels_up]

    # one depth of nodes: their levels, their times (one row per seed) and their paths
    levels = np.array([cfg.n])
    times = np.full((len(oracles), 1), cfg.t, dtype=np.float64)
    paths = np.array(theta, dtype=np.int64).reshape(1, len(theta))
    depths = []
    while len(levels):
        at = levels.tolist()
        datum_owner, datum_rows = _per_node(datum_sfx, at)
        branch_owner, branch_rows = _per_node(branch_sfx, at)
        tier_owner, tier_divisors = _per_node(divisors, at)
        datum_paths = np.hstack([paths[datum_owner], datum_rows])
        branch_paths = np.hstack([paths[branch_owner], branch_rows])
        start = times[:, branch_owner]
        s = np.array([uniform_time(o, branch_paths, t, horizon) for o, t in zip(oracles, start)])
        elapsed = np.concatenate([horizon - times[:, datum_owner], s - start], axis=1)
        move_paths = np.vstack([datum_paths, branch_paths])
        moves = np.array([brownian_increment(o, move_paths, e) for o, e in zip(oracles, elapsed)])
        moves = moves.transpose(1, 0, 2)
        scales = (horizon - times[:, tier_owner]) / tier_divisors
        i, k = branch_rows[:, 0], branch_rows[:, 1]
        n_datum = len(datum_paths)
        depths.append((at, scales.T, moves[:n_datum, None], moves[n_datum:], i.tolist()))
        # the next depth: every branch's child along (theta, i, k), then the
        # level-(i-1) tree along (theta, -i, k) of every branch with i >= 2
        below = i >= 2
        below_paths = np.hstack([paths[branch_owner[below]], np.stack([-i[below], k[below]], axis=1)])
        levels = np.concatenate([i, i[below] - 1])
        times = np.concatenate([s, s[:, below]], axis=1)
        paths = np.vstack([branch_paths, below_paths])

    # assemble from the deepest depth up; `nodes` are the trees of the depth below
    nodes: list[Tree] = []
    for levels, scales, datum_moves, branch_moves, branch_levels in reversed(depths):
        belows = iter(nodes[len(branch_levels) :])
        branches = [
            (move, child, next(belows) if i >= 2 else None)
            for move, child, i in zip(branch_moves, nodes, branch_levels)
        ]
        scales = iter(scales)
        parents = []
        datum_at = branch_at = 0
        for m in levels:
            tiers = [(next(scales), ())]
            for i in range(1, m):
                tiers.append((next(scales), tuple(branches[branch_at : branch_at + M ** (m - i)])))
                branch_at += M ** (m - i)
            parents.append((datum_moves[datum_at : datum_at + M**m], tuple(tiers)))
            datum_at += M**m
        nodes = parents
    return nodes[0]


def _per_node(table: list[np.ndarray], levels: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The rows table[m] of every node of level m, node after node, and the node each row belongs to."""
    rows = [table[m] for m in levels]
    return np.repeat(np.arange(len(rows)), [len(r) for r in rows]), np.concatenate(rows)


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
    for all S oracles and read once for the whole block: `fns.g` gets a node's
    (M**n * N * S, d) shifted points, `fns.f` arrays of shape (N, S). Each
    estimate equals the one its (oracle, point) pair gets alone if f and g give
    an element the same bits in a block. Points must be finite.
    """
    points = np.asarray(x, dtype=np.float64)
    if points.shape[-1:] != (cfg.d,) or points.ndim not in (1, 2):
        raise ValueError(f"point has shape {points.shape}, expected ({cfg.d},) or (N, {cfg.d})")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    oracles = _oracle_list(oracle, cfg.d)
    tree = draw_tree(cfg, theta, oracles)
    # estimates are read as (N, S) blocks: one column of points shared by every seed
    block = points.reshape(-1, 1, cfg.d)
    shape = (len(block), len(oracles))
    # every level-0 recursion is identically zero, so its f term is f(0), and
    # the level-0 sum of a node with c branches is c copies of it added in order
    f_zero = fns.f(np.zeros(shape))
    counts = {cfg.M**m for m in range(1, cfg.n + 1)}
    zero_sums = {
        c: acc for c, acc in enumerate(accumulate([f_zero] * cfg.M**cfg.n, initial=0.0)) if c in counts
    }

    def read(node: Tree, x: np.ndarray) -> np.ndarray:
        shifts, tiers = node
        # g on every shift of every point at once, summed over shifts in
        # drawing order (cumsum adds sequentially; sum may pair terms up)
        g_vals = fns.g((x + shifts).reshape(-1, cfg.d)).reshape(len(shifts), *shape)
        total = np.cumsum(g_vals, axis=0)[-1] / len(shifts)
        for i, (scale, branches) in enumerate(tiers):
            if i == 0:  # M**m summands f(0), one per datum shift, and no subtracted term
                total = total + scale * zero_sums[len(shifts)]
                continue
            acc_i = 0.0
            for shift, child, below in branches:
                y = x + shift
                f_below = fns.f(read(below, y)) if i >= 2 else f_zero
                acc_i = acc_i + (fns.f(read(child, y)) - f_below)
            total = total + scale * acc_i
        return total

    values = read(tree, block) if cfg.n else np.zeros(shape)
    # `read` refers to itself through its closure; breaking that cycle frees
    # f(0) and the level-0 sums now rather than at the next full collection
    del read
    values = np.ascontiguousarray(values.T)
    if points.ndim == 1:
        values = values[:, 0]
    return values[0] if isinstance(oracle, RandomOracle) else values


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
    for seed in root_seeds:
        check_seed(seed)
    group = max(1, GROUP_ESTIMATES // max(1, len(pts)))
    out = np.empty((len(root_seeds), len(pts)))
    for start in range(0, len(root_seeds), group):
        oracles = [RandomOracle(seed, cfg.d) for seed in root_seeds[start : start + group]]
        out[start : start + len(oracles)] = mlp_eval(cfg, pts, ROOT_PATH, fns, oracles)
    return out
