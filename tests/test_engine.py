import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picardnets import (
    MlpConfig,
    ProblemFns,
    ROOT_PATH,
    RandomOracle,
    brownian_increment,
    mlp_estimate_batch,
    mlp_eval,
    uniform_time,
)
from picardnets import engine
from picardnets.engine import draw_tree
from picardnets.sampling import KIND_GAUSS, KIND_TIME


def quad_g(x):
    # one sequential sum per point, so a block's rows equal single-point calls bit for bit
    return np.sum(x * x, axis=-1)


def zero_f(v):
    return np.zeros_like(v)


def reference_eval(n, t, x, theta, cfg, fns, oracle):
    """The estimator written out from its definition, drawing as it recurses."""
    if n == 0:
        return 0.0
    horizon = cfg.horizon
    M = cfg.M

    acc_g = 0.0
    for k in range(1, M**n + 1):
        shift = brownian_increment(oracle, theta + (0, -k), horizon - t)
        acc_g += fns.g(x + shift)
    total = acc_g / M**n

    for i in range(n):
        acc_i = 0.0
        for k in range(1, M ** (n - i) + 1):
            branch = theta + (i, k)
            s = uniform_time(oracle, branch, t, horizon)
            shift = brownian_increment(oracle, branch, s - t)
            y = x + shift
            term = fns.f(reference_eval(i, s, y, branch, cfg, fns, oracle))
            if i >= 1:
                term -= fns.f(reference_eval(i - 1, s, y, theta + (-i, k), cfg, fns, oracle))
            acc_i += term
        total += (horizon - t) / M ** (n - i) * acc_i
    return total


def reference_draw_tree(n, t, theta, cfg, oracle, times):
    """The sample tree of one oracle drawn path by path, as the definition
    recurses, with the seed axis left out and only the draws its readers read:
    tier 0 is (scale, ()), and the tier-1 `below` is None, so no level-0
    subtree is drawn. `times` collects each drawn branch path's time."""
    if n == 0:
        return (), ()
    horizon = cfg.horizon
    M = cfg.M
    shifts = np.array(
        [brownian_increment(oracle, theta + (0, -k), horizon - t) for k in range(1, M**n + 1)]
    )
    tiers = [((horizon - t) / M**n, ())]
    for i in range(1, n):
        branches = []
        for k in range(1, M ** (n - i) + 1):
            branch = theta + (i, k)
            s = times[branch] = uniform_time(oracle, branch, t, horizon)
            shift = brownian_increment(oracle, branch, s - t)
            child = reference_draw_tree(i, s, branch, cfg, oracle, times)
            below = reference_draw_tree(i - 1, s, theta + (-i, k), cfg, oracle, times) if i >= 2 else None
            branches.append((shift, child, below))
        tiers.append(((horizon - t) / M ** (n - i), tuple(branches)))
    return shifts, tuple(tiers)


def assert_same_tree(got, want, j):
    """Seed j of a drawn tree has the reference's layout, floats and arrays equal by bytes."""
    (shifts, tiers), (want_shifts, want_tiers) = got, want
    if not want_tiers:
        assert got == ((), ())
        return
    assert shifts.shape[:2] == (len(want_shifts), 1) and shifts.shape[3] == want_shifts.shape[1]
    assert shifts[:, 0, j].tobytes() == want_shifts.tobytes()
    assert len(tiers) == len(want_tiers)
    for (scale, branches), (want_scale, want_branches) in zip(tiers, want_tiers):
        assert scale[j].tobytes() == np.float64(want_scale).tobytes()
        assert len(branches) == len(want_branches)
        for (shift, child, below), (wshift, wchild, wbelow) in zip(branches, want_branches):
            assert shift[j].tobytes() == wshift.tobytes()
            assert_same_tree(child, wchild, j)
            if wbelow is None:
                assert below is None
            else:
                assert_same_tree(below, wbelow, j)


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
def test_draw_tree_equals_the_per_path_recursion(monkeypatch, n, M, d, theta, t):
    # every drawn time, by seed and branch path, as the tree's block calls return it
    times = {}

    def recording_uniform_time(oracle, paths, start, horizon):
        s = uniform_time(oracle, paths, start, horizon)
        times.update(((oracle.seed, tuple(row)), value) for row, value in zip(paths.tolist(), s))
        return s

    monkeypatch.setattr(engine, "uniform_time", recording_uniform_time)
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=t, d=d)
    seeds = (3, -17, 2**63 - 1)
    group = draw_tree(cfg, theta, [RandomOracle(seed, d) for seed in seeds])
    want_times = {}
    for j, seed in enumerate(seeds):
        per_seed = {}
        want = reference_draw_tree(n, t, theta, cfg, RandomOracle(seed, d), per_seed)
        want_times.update(((seed, path), s) for path, s in per_seed.items())
        assert_same_tree(group, want, j)
        assert_same_tree(draw_tree(cfg, theta, RandomOracle(seed, d)), want, 0)
    assert {k: np.float64(v).tobytes() for k, v in times.items()} == {
        k: np.float64(v).tobytes() for k, v in want_times.items()
    }


def test_draw_tree_rejects_bad_paths():
    cfg = MlpConfig(n=1, M=1, horizon=1.0, t=0.0, d=1)
    for theta in [(2**63,), (-(2**63) - 1,), (1.5,)]:
        with pytest.raises(ValueError):
            draw_tree(cfg, theta, RandomOracle(0, 1))


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


class LoggingOracle(RandomOracle):
    def __init__(self, seed, d):
        super().__init__(seed, d)
        self.calls = []

    def uniform01(self, theta, kind, count):
        # a block of paths logs one (path, kind) per row
        rows = [tuple(row.tolist()) for row in theta] if isinstance(theta, np.ndarray) else [theta]
        self.calls.extend((row, kind) for row in rows)
        return super().uniform01(theta, kind, count)


def test_each_branch_draw_happens_exactly_once():
    # the time and displacement of branch (i, k) are shared by both nested
    # recursions, so no (path, kind) pair may ever be hashed twice, and the
    # sign-flipped relabel paths must not draw anything at their own node
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.0, d=1)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=lambda x: x[..., 0])
    oracle = LoggingOracle(3, 1)
    mlp_eval(cfg, np.array([0.0]), ROOT_PATH, fns, oracle)

    counts = Counter(oracle.calls)
    assert max(counts.values()) == 1
    for i, k in [(1, 1), (1, 2)]:
        assert ((0, i, k), KIND_TIME) in counts
        assert ((0, i, k), KIND_GAUSS) in counts
        assert all(theta != (0, -i, k) for theta, _ in oracle.calls)
    # a tier-0 branch's summand is f(0) whatever is drawn for it, so nothing is
    assert not [theta for theta, _ in oracle.calls if theta[-2] == 0 and theta[-1] >= 1]


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
    assert drawn_paths(n, M) == (paths, times)
    oracle = LoggingOracle(4, 2)
    draw_tree(MlpConfig(n=n, M=M, horizon=1.0, t=0.0, d=2), ROOT_PATH, oracle)
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


@pytest.mark.parametrize("n, M", [(3, 2), (2, 3), (4, 2)])
def test_tree_readers_equal_the_reference_recursion(n, M):
    # the drawn tree must key every draw exactly as the definition does, so a
    # mis-keyed path shows here even though compiler and estimator agree
    cfg = MlpConfig(n=n, M=M, horizon=1.5, t=0.2, d=2)
    fns = ProblemFns(
        f=lambda v: np.sin(v) + 0.5 * v, g=lambda x: np.cos(x).sum(axis=-1) + quad_g(x)
    )
    pts = np.array([[0.3, -1.1], [2.0, 0.5], [-0.7, 0.0]])
    seeds = [5, 8]
    want = np.array(
        [
            [reference_eval(n, cfg.t, x, ROOT_PATH, cfg, fns, RandomOracle(seed, 2)) for x in pts]
            for seed in seeds
        ]
    )
    for i, seed in enumerate(seeds):
        for j, x in enumerate(pts):
            assert mlp_eval(cfg, x, ROOT_PATH, fns, RandomOracle(seed, 2)) == want[i, j]
            one = mlp_eval(cfg, x[None, :], ROOT_PATH, fns, RandomOracle(seed, 2))
            assert one.shape == (1,) and one[0] == want[i, j]
        block = mlp_eval(cfg, pts, ROOT_PATH, fns, RandomOracle(seed, 2))
        assert block.shape == (3,)
        assert np.array_equal(block, want[i])
    assert np.array_equal(mlp_estimate_batch(cfg, pts, seeds, fns), want)
    theta = (0, 2, -3)
    assert mlp_eval(cfg, pts[0], theta, fns, RandomOracle(5, 2)) == reference_eval(
        n, cfg.t, pts[0], theta, cfg, fns, RandomOracle(5, 2)
    )


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
    with pytest.raises(ValueError, match="oracle"):
        mlp_eval(cfg, pts, ROOT_PATH, fns, [])


def test_oracle_dimension_must_match_the_problem():
    # a 1-D oracle would broadcast its shifts over every coordinate
    cfg = MlpConfig(n=2, M=2, horizon=1.0, t=0.0, d=3)
    fns = ProblemFns(f=lambda v: 0.1 * v, g=quad_g)
    x = np.array([0.5, -0.5, 1.0])
    for oracle in (RandomOracle(1, 1), [RandomOracle(1, 3), RandomOracle(2, 4)]):
        with pytest.raises(ValueError, match="dimension"):
            mlp_eval(cfg, x, ROOT_PATH, fns, oracle)
        with pytest.raises(ValueError, match="dimension"):
            draw_tree(cfg, ROOT_PATH, oracle)


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


THETAS = [(0, 5, -2), (), (2**63 - 1,), (-3, 0, 1, 4)]


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
