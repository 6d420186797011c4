import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picardnets import (
    CompileInputs,
    MlpConfig,
    ProblemFns,
    ROOT_PATH,
    RandomOracle,
    affine,
    brownian_increment,
    compile_mlp,
    default_identity,
    engine,
    mlp_estimate_batch,
    mlp_eval,
    relu,
    theta_bytes,
    uniform_time,
)
from picardnets.sampling import KIND_GAUSS, KIND_TIME, PathBlock
from references import LoggingOracle, reference_tree, reference_eval


def quad_g(x):
    # one sequential sum per point, so a block's rows equal single-point calls bit for bit
    return np.sum(x * x, axis=-1)


def zero_f(v):
    return np.zeros_like(v)


THETAS = [(0, 5, -2), (), (2**63 - 1,), (-3, 0, 1, 4)]


def assert_same_records(depths, tree, n, d, j):
    """Seed j of the depth records holds the reference tree's draws, by bytes: each
    branch's `child` and `below` name the nodes of the depth below that hold its
    reference subtrees, and each depth's levels do not increase."""
    nodes = [(n, tree)] if n else []
    for depth in depths:
        branches = [
            (p, i, branch)
            for p, (_, (_, tiers)) in enumerate(nodes)
            for i, (_, bs) in enumerate(tiers)
            for branch in bs
        ]
        assert depth.levels == tuple(m for m, _ in nodes)
        assert all(a >= b for a, b in zip(depth.levels, depth.levels[1:]))
        scales = [scale for _, (_, tiers) in nodes for scale, _ in tiers]
        assert depth.scales[:, j].tobytes() == np.array(scales).tobytes()
        shifts = np.concatenate([shifts for _, (shifts, _) in nodes])
        assert depth.datum_moves.shape[1:] == (1, depth.scales.shape[1], d)
        assert depth.datum_moves[:, 0, j].tobytes() == shifts.tobytes()
        moves = np.array([shift for _, _, (shift, _, _) in branches]).reshape(-1, d)
        assert depth.branch_moves[:, j].tobytes() == moves.tobytes()
        assert depth.branch_owner.tolist() == [p for p, _, _ in branches]
        placed = {}
        for b, (_, i, (_, child, below)) in enumerate(branches):
            for node, subtree in [(depth.child[b], (i, child)), (depth.below[b], (i - 1, below))]:
                if subtree[1] is None:
                    assert node == -1
                else:
                    assert node >= 0 and node not in placed
                    placed[node] = subtree
        nodes = [placed[node] for node in range(len(placed))]
    assert not nodes


@pytest.mark.parametrize(
    "n, M, d, theta, t",
    [
        (0, 3, 5, (0,), 0.0),
        (1, 1, 3, (0,), 0.0),
        (4, 1, 2, (0, 5, -2), 0.3),
        (3, 2, 9, (0,), 0.0),  # d = 9 needs two digest blocks per path
        (4, 3, 5, (0,), 0.0),
        (2, 3, 1, (0, 5, -2), 0.3),
        (3, 2, 5, (2**63 - 1, -(2**63)), 0.9),
        (2, 2, 4, (), 0.5),
    ],
)
def test_depth_records_equal_the_per_path_recursion(monkeypatch, n, M, d, theta, t):
    # every drawn time, by seed and branch path, as the records' block calls
    # return it (a seed group and each seed alone must draw the same bits), and
    # how many oracles each call draws for
    times, calls = {}, []

    def recording_uniform_time(oracles, paths, start, horizon):
        s = uniform_time(oracles, paths, start, horizon)
        calls.append(len(oracles))
        for oracle, row in zip(oracles, s):
            for path, value in zip(paths.tolist(), row):
                drawn = times.setdefault((oracle.seed, tuple(path)), value)
                assert np.float64(drawn).tobytes() == value.tobytes()
        return s

    monkeypatch.setattr(engine, "uniform_time", recording_uniform_time)
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=t, d=d)
    seeds = (3, -17, 2**63 - 1)
    group = engine._draw_depths(cfg, theta, [RandomOracle(seed, d) for seed in seeds])
    want_times = {}
    for j, seed in enumerate(seeds):
        per_seed = {}
        want = reference_tree(n, t, theta, cfg, RandomOracle(seed, d), per_seed)
        want_times.update(((seed, path), s) for path, s in per_seed.items())
        assert_same_records(group, want, n, d, j)
        assert_same_records(engine._draw_depths(cfg, theta, RandomOracle(seed, d)), want, n, d, 0)
    # one call per depth for all seeds, then one per depth for each seed alone
    assert calls == [len(seeds)] * len(group) + [1] * len(group) * len(seeds)
    assert {k: np.float64(v).tobytes() for k, v in times.items()} == {
        k: np.float64(v).tobytes() for k, v in want_times.items()
    }


def test_depth_draws_reject_bad_paths():
    cfg = MlpConfig(n=1, M=1, horizon=1.0, t=0.0, d=1)
    for theta in [(2**63,), (-(2**63) - 1,), (1.5,)]:
        with pytest.raises(ValueError):
            engine._draw_depths(cfg, theta, RandomOracle(0, 1))


def forget_plan():
    engine._recent = (None, None)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 4),
    M=st.integers(1, 3),
    d=st.sampled_from([1, 5, 9]),  # d = 9 needs two digests per path
    theta=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=3).map(tuple).filter(lambda th: th != ROOT_PATH),
    seed=st.integers(-(2**63), 2**63 - 2),
)
@example(n=4, M=3, d=9, theta=(0, 5, -2), seed=0)
def test_a_kept_plan_draws_what_a_new_one_draws(n, M, d, theta, seed):
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=0.25, d=d)
    oracles = [RandomOracle(seed, d), RandomOracle(seed + 1, d)]
    forget_plan()
    # the first draw keeps nothing, the second keeps the plan and its messages, the third reads them
    draws = [engine._draw_depths(cfg, theta, oracles) for _ in range(3)]
    key, plan = engine._recent
    assert key == (theta_bytes(theta), n, M, d) and len(plan) == len(draws[0])
    assert all(step.move_paths.messages and step.time_paths.messages for step in plan)
    for j, oracle in enumerate(oracles):
        want = reference_tree(n, cfg.t, theta, cfg, RandomOracle(oracle.seed, d), {})
        for depths in draws:
            assert_same_records(depths, want, n, d, j)


def test_a_small_tree_is_kept_from_its_second_draw_in_a_row(monkeypatch):
    forget_plan()
    draw = lambda n, d: engine._draw_depths(MlpConfig(n=n, M=2, horizon=1.0, t=0.0, d=d), (1,), RandomOracle(1, d))
    draw(3, 1)
    assert engine._recent == ((theta_bytes((1,)), 3, 2, 1), None)  # a one-off draw keeps nothing
    draw(3, 1)
    plan = engine._recent[1]
    assert all(isinstance(step.move_paths, PathBlock) for step in plan)
    draw(3, 1)
    assert engine._recent[1] is plan
    draw(3, 2)  # another d is another tree: the kept plan is dropped
    assert engine._recent == ((theta_bytes((1,)), 3, 2, 2), None)
    # a tree is kept only while its paths, one message each per 8 coordinates, fit the limit
    paths = engine._hashed_paths(3, 2)
    for d, limit, kept in [(8, paths, True), (8, paths - 1, False), (9, 2 * paths - 1, False), (9, 2 * paths, True)]:
        monkeypatch.setattr(engine, "_KEEP_MESSAGES", limit)
        forget_plan()
        draw(3, d)
        draw(3, d)
        assert (engine._recent[1] is not None) == kept


def test_plan_arrays_are_read_only_and_held_by_the_records():
    cfg = MlpConfig(n=4, M=2, horizon=1.0, t=0.0, d=2)
    for _ in range(3):
        depths = engine._draw_depths(cfg, (0, 3), RandomOracle(1, 2))
    plan = engine._recent[1]
    assert len(plan) == len(depths)
    for step, depth in zip(plan, depths):
        # the seed-independent fields and the reader's layout are the plan's own objects
        held = ("levels", "branch_owner", "child", "below", "datum_owner", "starts", "runs", "chunks")
        assert all(getattr(depth, name) is getattr(step, name) for name in held)
        assert all(isinstance(field, tuple) for field in (step.levels, step.runs, step.chunks))
        for array in step[1:-2]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_a_rejected_path_leaves_the_kept_plan():
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.0, d=1)
    for _ in range(2):
        engine._draw_depths(cfg, (1,), RandomOracle(1, 1))
    before = engine._recent
    assert before[1] is not None
    for bad in [(True,), (np.True_,), (2**63,), (1.5,)]:
        with pytest.raises(ValueError):
            engine._draw_depths(cfg, bad, RandomOracle(1, 1))
    assert engine._recent is before  # no lookup was made


def test_equal_paths_share_one_plan():
    # the plan is keyed by the path's encoding, so (0,) and (np.int64(0),) are one path
    cfg = MlpConfig(n=3, M=2, horizon=1.0, t=0.0, d=2)
    forget_plan()
    for _ in range(2):
        first = engine._draw_depths(cfg, (0,), RandomOracle(4, 2))
    plan = engine._recent[1]
    for theta in [(np.int64(0),), (np.int32(0),), ROOT_PATH]:
        again = engine._draw_depths(cfg, theta, RandomOracle(4, 2))
        assert engine._recent[1] is plan
        assert all(a.child is b.child for a, b in zip(first, again))


def test_threads_sharing_a_plan_give_the_serial_bytes():
    # more threads than cores, switching often, from no plan: at one level they
    # keep one plan and share it and its messages; at two levels they drop each other's
    fns = ProblemFns(f=lambda v: 0.1 * v, g=quad_g)
    pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 5))
    level_4_3, level_3_3 = (MlpConfig(n=n, M=3, horizon=1.0, t=0.0, d=5) for n in (4, 3))
    seeds = [[1], [2, 3], [4], [5, 6, 7], [8], [9, 10]]
    for cfgs in ([level_4_3], [level_4_3, level_3_3]):
        jobs = [(cfgs[j % len(cfgs)], job) for j, job in enumerate(seeds)]
        serial = [mlp_estimate_batch(cfg, pts, job, fns).tobytes() for cfg, job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                forget_plan()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(mlp_estimate_batch, cfg, pts, job, fns) for cfg, job in jobs]
                    threaded = [future.result(timeout=120).tobytes() for future in futures]
                assert threaded == serial
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("n, M", [(n, M) for n in range(1, 6) for M in (1, 2)])
def test_depth_records_place_every_tree_once_by_level(n, M, S):
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=0.2, d=2)
    depths = engine._draw_depths(cfg, ROOT_PATH, [RandomOracle(seed, 2) for seed in range(S)])
    for depth, below_it in zip(depths, depths[1:] + [None]):
        levels = depth.levels
        next_levels = below_it.levels if below_it else []
        # the children and the `below` trees are the next depth's nodes, each once
        placed = np.concatenate([depth.child, depth.below[depth.below >= 0]])
        assert sorted(placed.tolist()) == list(range(len(next_levels)))
        # a child has its branch's tier as its level, a `below` tree that tier less one
        branches = [(j, i) for j, m in enumerate(levels) for i in range(1, m) for _ in range(M ** (m - i))]
        tiers = [i for _, i in branches]
        assert depth.branch_owner.tolist() == [j for j, _ in branches]
        assert [next_levels[c] for c in depth.child] == tiers
        assert [next_levels[c] if c >= 0 else 0 for c in depth.below] == [i - 1 for i in tiers]
        # the level runs tile the nodes and their datum, tier and branch rows once, in order
        ends = [0, 0, 0, 0]
        for m, *slices in depth.runs:
            assert [s.start for s in slices] == ends
            count = slices[0].stop - slices[0].start
            assert count > 0 and levels[slices[0]] == (m,) * count
            per_node = [1, M**m, m, sum(M ** (m - i) for i in range(1, m))]
            assert [s.stop - s.start for s in slices] == [count * k for k in per_node]
            ends = [s.stop for s in slices]
        assert ends == [len(levels), len(depth.datum_moves), len(depth.scales), len(depth.branch_moves)]
        assert depth.datum_owner.tolist() == [j for j, m in enumerate(levels) for _ in range(M**m)]
        # the datum chunks tile the datum rows in order, whole nodes across levels, M**n
        # shifts each but the last, each level of a chunk one part
        row = node = 0
        for k, (rows, parts) in enumerate(depth.chunks):
            assert rows.start == row and 0 < rows.stop - row <= M**n
            assert rows.stop - row == M**n or k == len(depth.chunks) - 1
            at = 0
            for m, nodes, part in parts:
                assert nodes.start == node and levels[nodes] == (m,) * (nodes.stop - node) != ()
                assert part == slice(at, at + (nodes.stop - node) * M**m)
                at, node = part.stop, nodes.stop
            assert at == rows.stop - row and len({m for m, _, _ in parts}) == len(parts)
            row = rows.stop
        assert (row, node) == (len(depth.datum_moves), len(levels))
        # each node of the next depth starts at its branch, which its `child` or `below` names
        has_below = depth.below >= 0
        assert depth.starts[depth.child].tolist() == list(range(len(depth.child)))
        assert depth.starts[depth.below[has_below]].tolist() == np.flatnonzero(has_below).tolist()


def test_level_zero_is_identically_zero():
    cfg = MlpConfig(n=0, M=3, horizon=1.0, t=0.2, d=2)
    fns = ProblemFns(f=lambda v: 99.0 * v + 1.0, g=quad_g)
    assert mlp_eval(cfg, np.array([1.0, -2.0]), ROOT_PATH, fns, RandomOracle(5, 2)) == 0.0


def test_level_one_single_branch_unrolls_by_hand():
    # n = M = 1: one terminal sample plus (horizon - t) * f(0), nothing else
    cfg = MlpConfig(n=1, M=1, horizon=1.0, t=0.25, d=3)
    fns = ProblemFns(f=lambda v: 2.0 * v + 0.5, g=quad_g)
    x = np.array([0.5, -1.0, 2.0])
    got = mlp_eval(cfg, x, ROOT_PATH, fns, RandomOracle(9, 3))

    oracle = RandomOracle(9, 3)
    shift = brownian_increment(oracle, (0, 0, -1), cfg.horizon - cfg.t)
    want = quad_g(x + shift) + (cfg.horizon - cfg.t) * fns.f(0.0)
    assert got == want


def test_zero_nonlinearity_reduces_to_monte_carlo_average():
    cfg = MlpConfig(n=2, M=3, horizon=1.5, t=0.5, d=2)
    fns = ProblemFns(f=zero_f, g=quad_g)
    x = np.array([1.0, 2.0])
    got = mlp_eval(cfg, x, ROOT_PATH, fns, RandomOracle(77, 2))

    oracle = RandomOracle(77, 2)
    acc = 0.0
    for k in range(1, 3**2 + 1):
        shift = brownian_increment(oracle, (0, 0, -k), cfg.horizon - cfg.t)
        acc += quad_g(x + shift)
    assert got == acc / 3**2


def test_constant_nonlinearity_with_zero_datum():
    # every correction difference cancels, leaving (horizon - t) * c exactly
    cfg = MlpConfig(n=3, M=2, horizon=1.0, t=0.5, d=1)
    fns = ProblemFns(f=lambda v: np.full_like(v, 0.25), g=lambda x: np.zeros(x.shape[:-1]))
    got = mlp_eval(cfg, np.array([3.0]), ROOT_PATH, fns, RandomOracle(1, 1))
    assert got == pytest.approx(0.5 * 0.25, rel=1e-13)


def test_each_branch_draw_happens_exactly_once():
    # the time and displacement of branch (i, k) are shared by both nested
    # recursions, so no (path, kind) pair may ever be hashed twice, and the
    # sign-flipped relabel paths must not draw anything at their own node; each
    # seed of a seed block draws every branch once, as one oracle alone does
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.0, d=1)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=lambda x: x[..., 0])
    alone, block = LoggingOracle(3, 1), [LoggingOracle(3, 1), LoggingOracle(8, 1)]
    mlp_eval(cfg, np.array([0.0]), ROOT_PATH, fns, alone)
    mlp_eval(cfg, np.array([0.0]), ROOT_PATH, fns, block)
    assert block[0].calls == alone.calls == block[1].calls

    counts = Counter(alone.calls)
    assert max(counts.values()) == 1
    for i, k in [(1, 1), (1, 2)]:
        assert ((0, i, k), KIND_TIME) in counts
        assert ((0, i, k), KIND_GAUSS) in counts
        assert all(theta != (0, -i, k) for theta, _ in alone.calls)
    # a tier-0 branch's summand is f(0) whatever is drawn for it, so nothing is
    assert not [theta for theta, _ in alone.calls if theta[-2] == 0 and theta[-1] >= 1]


def drawn_paths(n, M):
    """D(n) = M**n + sum_{i=1}^{n-1} M**(n-i) (2 + D(i) + D(i-1)) with D(0) = 0, and
    T(n), the time draws among them: the same sum without M**n and with 1 in place of 2."""
    if n == 0:
        return 0, 0
    lower = [drawn_paths(i, M) for i in range(n)]
    paths = M**n + sum(M ** (n - i) * (2 + lower[i][0] + lower[i - 1][0]) for i in range(1, n))
    times = sum(M ** (n - i) * (1 + lower[i][1] + lower[i - 1][1]) for i in range(1, n))
    return paths, times


@pytest.mark.parametrize(
    "n, M, paths, times",
    [(0, 3, 0, 0), (1, 4, 4, 0), (2, 3, 24, 3), (3, 2, 56, 10), (4, 3, 1032, 138), (5, 2, 1124, 206)],
)
def test_tree_hashes_the_closed_form_count_of_paths(n, M, paths, times):
    # the draw alone, and a compile, which draws the same records and nothing else
    assert drawn_paths(n, M) == (paths, times)
    assert engine._hashed_paths(n, M) == paths
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=0.0, d=2)

    def compile_with(oracle):
        g_net, f_net = affine([[1.0, -0.5]], [0.25]), affine([[0.1]], [0.0])
        inputs = CompileInputs(n, M, 1.0, 2, g_net, f_net, default_identity(relu()), relu(), oracle)
        compile_mlp(inputs, ROOT_PATH, 0.0, allow_large=True)

    for read in (lambda oracle: engine._draw_depths(cfg, ROOT_PATH, oracle), compile_with):
        oracle = LoggingOracle(4, 2)
        read(oracle)
        kinds = Counter(kind for _, kind in oracle.calls)
        assert kinds == +Counter({KIND_TIME: times, KIND_GAUSS: paths - times})  # + drops zero counts


def test_heat_kernel_mean_for_zero_nonlinearity():
    # E g(x + W) = |x|^2 + d * (horizon - t) for the squared norm datum
    cfg = MlpConfig(n=1, M=16, horizon=1.0, t=0.0, d=4)
    fns = ProblemFns(f=zero_f, g=quad_g)
    x = np.array([0.5, -0.5, 1.0, 0.0])
    exact = float(x @ x) + 4.0 * 1.0
    table = mlp_estimate_batch(cfg, x[None, :], list(range(30)), fns)
    mean = table.mean()
    stderr = table.std(ddof=1) / np.sqrt(30)
    assert abs(mean - exact) < 4.0 * stderr + 1e-9


# (n, M), lambda, t at horizon 1: each level once, each (sign of lambda, t = 0 or t > 0) once
PICARD_CASES = [((1, 1), 1.0, 0.0), ((2, 2), -3.0, 0.5), ((3, 2), 2.0, 0.5), ((3, 3), -1.5, 0.0)]


@pytest.mark.parametrize("level, lam, t", PICARD_CASES)
def test_the_estimate_is_unbiased_for_the_picard_iterate(level, lam, t):
    # for f = lam * u, g = |x|^2 and c = 1/2 the tiers telescope: E U_n = V_n, the n-th
    # Picard iterate, (|x|^2 + d tau) sum_{k<n} (lam tau)^k / k! with tau = horizon - t,
    # and not the solution u, the full series (|x|^2 + d tau) e^(lam tau)
    n, M = level
    d, seeds = 3, 8192
    x = np.array([0.5, -0.25, 1.0])
    tau = 1.0 - t
    picard = (x @ x + d * tau) * sum((lam * tau) ** k / math.factorial(k) for k in range(n))
    solution = (x @ x + d * tau) * math.exp(lam * tau)
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=t, d=d)
    fns = ProblemFns(f=lambda v: lam * v, g=quad_g)
    estimates = mlp_estimate_batch(cfg, x[None, :], range(seeds), fns)[:, 0]
    stderr = estimates.std(ddof=1) / math.sqrt(seeds)
    assert abs(estimates.mean() - picard) < 4.0 * stderr
    assert abs(estimates.mean() - solution) > 10.0 * stderr


def test_batch_rows_match_single_evaluations():
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.25, d=2)
    fns = ProblemFns(f=lambda v: 0.3 * v, g=quad_g)
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [0.3, 0.7]])
    table = mlp_estimate_batch(cfg, pts, [11, 22], fns)
    assert table.shape == (2, 3)
    for i, seed in enumerate([11, 22]):
        for j in range(3):
            oracle = RandomOracle(seed, 2)
            assert table[i, j] == mlp_eval(cfg, pts[j], ROOT_PATH, fns, oracle)


def test_batch_is_reproducible():
    cfg = MlpConfig(n=1, M=4, horizon=1.0, t=0.0, d=2)
    fns = ProblemFns(f=lambda v: v, g=quad_g)
    pts = np.array([[0.1, 0.2]])
    a = mlp_estimate_batch(cfg, pts, [1, 2, 3], fns)
    b = mlp_estimate_batch(cfg, pts, [1, 2, 3], fns)
    np.testing.assert_array_equal(a, b)


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(n=-1, M=1, horizon=1.0, t=0.0, d=1)
    with pytest.raises(ValueError):
        MlpConfig(n=1, M=0, horizon=1.0, t=0.0, d=1)
    with pytest.raises(ValueError):
        MlpConfig(n=1, M=1, horizon=1.0, t=2.0, d=1)
    with pytest.raises(ValueError):
        MlpConfig(n=1, M=1, horizon=1.0, t=0.0, d=0)
    with pytest.raises(ValueError):
        MlpConfig(n=1, M=1, horizon=float("nan"), t=0.0, d=1)


def test_point_shape_validation():
    cfg = MlpConfig(n=1, M=1, horizon=1.0, t=0.0, d=2)
    fns = ProblemFns(f=zero_f, g=quad_g)
    with pytest.raises(ValueError):
        mlp_eval(cfg, np.zeros(3), ROOT_PATH, fns, RandomOracle(0, 2))
    with pytest.raises(ValueError):
        mlp_estimate_batch(cfg, np.zeros((4, 3)), [0], fns)


@pytest.mark.parametrize(
    "n, M, d, t",
    [
        pytest.param(3, 2, 2, 0.2, id="3-2"),
        pytest.param(2, 3, 2, 0.2, id="2-3"),
        pytest.param(4, 2, 2, 0.2, id="4-2"),
        # t = horizon: every scale is 0 and every shift a signed zero
        pytest.param(3, 2, 2, 1.5, id="3-2-at-horizon"),
        pytest.param(4, 1, 2, 0.2, id="4-1"),
        pytest.param(3, 3, 1, 0.2, id="3-3-one-dimension"),
    ],
)
def test_tree_readers_equal_the_reference_recursion(n, M, d, t):
    # the drawn tree must key every draw exactly as the definition does, so a
    # mis-keyed path shows here even though compiler and estimator agree
    cfg = MlpConfig(n=n, M=M, horizon=1.5, t=t, d=d)
    fns = ProblemFns(
        f=lambda v: np.sin(v) + 0.5 * v, g=lambda x: np.cos(x).sum(axis=-1) + quad_g(x)
    )
    pts = np.array([[0.3, -1.1], [2.0, 0.5], [-0.7, 0.0]])[:, :d]
    seeds = [5, 8, -13]
    want = np.array(
        [
            [reference_eval(n, cfg.t, x, ROOT_PATH, cfg, fns, RandomOracle(seed, d)) for x in pts]
            for seed in seeds
        ]
    )
    for i, seed in enumerate(seeds):
        for j, x in enumerate(pts):
            assert mlp_eval(cfg, x, ROOT_PATH, fns, RandomOracle(seed, d)) == want[i, j]
            one = mlp_eval(cfg, x[None, :], ROOT_PATH, fns, RandomOracle(seed, d))
            assert one.shape == (1,) and one[0] == want[i, j]
        block = mlp_eval(cfg, pts, ROOT_PATH, fns, RandomOracle(seed, d))
        assert block.shape == (3,)
        assert np.array_equal(block, want[i])
    assert np.array_equal(mlp_estimate_batch(cfg, pts, seeds, fns), want)
    theta = (0, 2, -3)
    assert mlp_eval(cfg, pts[0], theta, fns, RandomOracle(5, d)) == reference_eval(
        n, cfg.t, pts[0], theta, cfg, fns, RandomOracle(5, d)
    )


def signed_f(v):
    # -0.0 for every v < 0, so a sum that starts from 0.0 must turn it to 0.0
    return -0.25 * np.maximum(v, 0.0) + np.sin(v) * (v > 0.5)


READER_FS = {"sin": lambda v: np.sin(v) + 0.5 * v, "signed": signed_f, "minus-one": lambda v: np.full_like(v, -1.0)}
# a g of -0.0 everywhere: the definition's datum sum from 0.0 makes it 0.0
READER_GS = {"cos": lambda x: np.cos(x).sum(axis=-1) - quad_g(x), "minus-zero": lambda x: np.full(x.shape[:-1], -0.0)}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 3),
    M=st.integers(1, 3),
    d=st.integers(1, 3),
    N=st.integers(1, 3),
    seeds=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=3),
    theta=st.sampled_from(THETAS),
    t=st.sampled_from([0.0, 0.7, 1.5]),
    f=st.sampled_from(list(READER_FS)),
    g=st.sampled_from(list(READER_GS)),
)
@example(n=1, M=1, d=1, N=1, seeds=[0], theta=(), t=1.5, f="minus-one", g="minus-zero")
def test_depth_reader_equals_the_definition(n, M, d, N, seeds, theta, t, f, g):
    cfg = MlpConfig(n=n, M=M, horizon=1.5, t=t, d=d)
    fns = ProblemFns(f=READER_FS[f], g=READER_GS[g])
    pts = np.random.default_rng(N * 5 + d).uniform(-2.0, 2.0, size=(N, d))
    got = mlp_eval(cfg, pts, theta, fns, [RandomOracle(seed, d) for seed in seeds])
    want = [
        [reference_eval(n, t, x, theta, cfg, fns, RandomOracle(seed, d)) for x in pts] for seed in seeds
    ]
    assert np.asarray(got).tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_the_tree_is_read_a_depth_at_a_time():
    # (4,3) has 160 nodes; the reader calls g on whole nodes of one depth, across
    # levels, at most M**n of their shifts a call, and f once per depth below the root
    # plus f(0)
    for n, M, N, seeds, most_g_calls in [(4, 3, 16, [7], 10), (5, 2, 3, [1, 2], None), (3, 3, 1, [4, 5, 6], None)]:
        shapes = {"f": [], "g": []}

        def recorded(name, fn):
            def call(a):
                shapes[name].append(a.shape)
                return fn(a)

            return call

        cfg = MlpConfig(n=n, M=M, horizon=1.0, t=0.0, d=5)
        pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(N, 5))
        fns = ProblemFns(f=recorded("f", lambda v: 0.1 * v), g=recorded("g", quad_g))
        mlp_estimate_batch(cfg, pts, seeds, fns)
        rows = [count for count, _ in shapes["g"]]
        assert max(rows) <= M**n * N * len(seeds)
        # the calls end on node ends and cover each depth's datum rows in order
        depths = engine._draw_depths(cfg, ROOT_PATH, RandomOracle(7, 5))
        node_ends = set(np.cumsum([M**m * N * len(seeds) for depth in depths for m in depth.levels]).tolist())
        assert set(np.cumsum(rows).tolist()) <= node_ends
        depth_ends = np.cumsum([len(depth.datum_moves) * N * len(seeds) for depth in depths]).tolist()
        assert set(depth_ends) <= set(np.cumsum(rows).tolist())
        assert sum(rows) == depth_ends[-1] and len(shapes["f"]) == len(depths)
        if most_g_calls:
            # every datum shift once: 894 Gaussian paths less the 138 branch displacements
            assert len(rows) <= most_g_calls and sum(rows) == 756 * N


@pytest.mark.parametrize(
    "f_zero",
    [np.zeros((4, 3)), np.full((4, 3), -0.0), np.full((4, 3), 0.1), 0.1 + 1e-3 * np.arange(12.0).reshape(4, 3),
     np.array([[0.0, -0.0]])],
    ids=["zero", "minus-zero", "one-tenth", "varies", "signed-zeros"],
)
def test_level_zero_sums_are_the_array_sums(f_zero):
    # f(0) of one bit pattern is summed as a Python float: the same bits as the
    # sum of (N, S) arrays, for every level count M**m up to 81
    want = list(accumulate([f_zero] * 81, initial=0.0))
    for M, n in [(1, 2), (2, 6), (3, 4), (4, 3), (9, 2), (81, 1)]:
        counts = {M**m for m in range(1, n + 1)}
        sums = engine._zero_sums(f_zero, counts)
        assert sorted(sums) == sorted(counts)
        for c, got in sums.items():
            assert np.broadcast_to(got, f_zero.shape).tobytes() == want[c].tobytes()


def test_reading_a_tree_bounds_peak_memory():
    # the root's g call, (M**n * N * S, d) points, sets the peak; measured 25.7 MB,
    # against 18.9 MB when the recursion held only one node's inputs a level
    cfg = MlpConfig(n=4, M=4, horizon=1.0, t=0.0, d=16)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=quad_g)
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(64, 16))
    oracles = [RandomOracle(seed, 16) for seed in range(4)]
    tracemalloc.start()
    try:
        mlp_eval(cfg, pts, ROOT_PATH, fns, oracles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28e6, peak


def test_non_finite_points_are_rejected():
    cfg = MlpConfig(n=1, M=2, horizon=1.0, t=0.0, d=2)
    fns = ProblemFns(f=zero_f, g=quad_g)
    for bad in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            mlp_eval(cfg, np.array(bad), ROOT_PATH, fns, RandomOracle(0, 2))
        with pytest.raises(ValueError, match="finite"):
            mlp_estimate_batch(cfg, np.array([[1.0, 1.0], bad]), [0], fns)


def test_a_sequence_of_oracles_gives_a_leading_seed_axis():
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.25, d=2)
    fns = ProblemFns(f=lambda v: 0.3 * v, g=quad_g)
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [0.3, 0.7]])
    oracles = [RandomOracle(seed, 2) for seed in (11, 22)]
    block = mlp_eval(cfg, pts, ROOT_PATH, fns, oracles)
    assert block.shape == (2, 3)
    one = mlp_eval(cfg, pts[1], ROOT_PATH, fns, oracles)
    assert one.shape == (2,) and np.array_equal(one, block[:, 1])
    assert mlp_eval(MlpConfig(n=1, M=2, horizon=1.0, t=0.25, d=2), pts[:0], ROOT_PATH, fns, oracles).shape == (2, 0)
    for n in (0, 2):  # a level-0 tree draws nothing, and still needs an oracle
        with pytest.raises(ValueError, match="oracle"):
            mlp_eval(MlpConfig(n=n, M=2, horizon=1.0, t=0.25, d=2), pts, ROOT_PATH, fns, [])


def test_oracle_dimension_must_match_the_problem():
    # a 1-D oracle would broadcast its shifts over every coordinate
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.0, d=3)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=quad_g)
    x = np.array([0.5, -0.5, 1.0])
    for oracle in (RandomOracle(1, 1), [RandomOracle(1, 3), RandomOracle(2, 4)]):
        with pytest.raises(ValueError, match="dimension"):
            mlp_eval(cfg, x, ROOT_PATH, fns, oracle)
        with pytest.raises(ValueError, match="dimension"):
            engine._draw_depths(cfg, ROOT_PATH, oracle)


def test_seeds_must_be_integers_that_fit_in_64_bits():
    # each of these used to key the oracle of seed 1 (or 2) without complaint
    cfg = MlpConfig(n=1, M=2, horizon=1.0, t=0.0, d=2)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=quad_g)
    pts = np.array([[0.1, 0.2]])
    for bad in (1.7, True, np.float64(2.0), np.True_, 2**64 + 1, 2**63, -(2**63) - 1, "3"):
        with pytest.raises(ValueError, match="seed"):
            mlp_estimate_batch(cfg, pts, [1, bad], fns)
    seeds = [np.int64(5), 2**63 - 1, -(2**63), np.uint8(7)]
    want = [mlp_eval(cfg, pts, ROOT_PATH, fns, RandomOracle(int(seed), 2)) for seed in seeds]
    assert np.array_equal(mlp_estimate_batch(cfg, pts, seeds, fns), np.array(want))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 4),
    M=st.integers(1, 3),
    d=st.integers(1, 6),
    theta=st.sampled_from(THETAS),
    seeds=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6),
    N=st.integers(1, 4),
    bound=st.integers(1, 9),
)
@example(n=2, M=2, d=3, theta=THETAS[0], seeds=[], N=3, bound=engine.GROUP_ESTIMATES)
@example(
    n=1, M=1, d=2, theta=THETAS[0], seeds=list(range(engine.GROUP_ESTIMATES + 3)), N=1,
    bound=engine.GROUP_ESTIMATES,
)
def test_seed_groups_equal_per_seed_rows(n, M, d, theta, seeds, N, bound):
    cfg = MlpConfig(n=n, M=M, horizon=1.5, t=0.2, d=d)
    fns = ProblemFns(
        f=lambda v: np.sin(v) + 0.5 * v, g=lambda x: np.cos(x).sum(axis=-1) + quad_g(x)
    )
    pts = np.random.default_rng(N * 7 + d).uniform(-2.0, 2.0, size=(N, d))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "GROUP_ESTIMATES", bound)
        table = mlp_estimate_batch(cfg, pts, seeds, fns)
    assert table.shape == (len(seeds), N)
    for row, seed in zip(table, seeds):
        assert np.array_equal(row, mlp_eval(cfg, pts, ROOT_PATH, fns, RandomOracle(seed, d)))
    if seeds:
        oracles = [RandomOracle(seed, d) for seed in seeds]
        group = mlp_eval(cfg, pts, theta, fns, oracles)
        for row, oracle in zip(group, oracles):
            assert np.array_equal(row, mlp_eval(cfg, pts, theta, fns, oracle))


def test_seed_groups_bound_peak_memory():
    # one group holds GROUP_ESTIMATES // N seeds, so many groups peak like one
    cfg = MlpConfig(n=3, M=3, horizon=1.0, t=0.0, d=5)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=quad_g)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(128, 5))
    group = engine.GROUP_ESTIMATES // len(pts)

    def peak(seeds):
        tracemalloc.start()
        try:
            mlp_estimate_batch(cfg, pts, seeds, fns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(list(range(group)))
    many = peak(list(range(16 * group)))
    assert many < 1.25 * one, (one, many)
