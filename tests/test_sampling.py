import hashlib
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from picardnets import (
    RandomOracle,
    box_point,
    box_points,
    brownian_increment,
    probe_point,
    theta_bytes,
    uniform_time,
)
from picardnets.sampling import KIND_BOX, KIND_GAUSS, KIND_PROBE, KIND_TIME, PathBlock


def test_theta_bytes_layout():
    assert theta_bytes(()) == struct.pack("<Q", 0)
    assert theta_bytes((0,)) == struct.pack("<Q", 1) + struct.pack("<q", 0)
    assert theta_bytes((3, -7)) == (
        struct.pack("<Q", 2) + struct.pack("<q", 3) + struct.pack("<q", -7)
    )


def test_theta_bytes_rejects_bad_entries():
    with pytest.raises(ValueError):
        theta_bytes((2**63,))
    with pytest.raises(ValueError):
        theta_bytes((-(2**63) - 1,))
    with pytest.raises(ValueError):
        theta_bytes((1.5,))
    # a bool is an int, but (True,) would key the draws of the path (1,)
    for theta in [(True,), (0, False), (np.True_,)]:
        with pytest.raises(ValueError):
            theta_bytes(theta)
        with pytest.raises(ValueError):
            RandomOracle(1, 1).uniform01(theta, KIND_TIME, 1)


INT64 = st.integers(-(2**63), 2**63 - 1)
THETAS = st.lists(INT64 | st.integers(-3, 3), max_size=5).map(tuple)


@st.composite
def theta_pairs(draw):
    """Two paths, often sharing a prefix or differing only in length."""
    a = draw(THETAS)
    how = draw(st.sampled_from(["any", "extend", "truncate", "last"]))
    if how == "extend":
        b = a + tuple(draw(st.lists(INT64 | st.integers(-3, 3), min_size=1, max_size=3)))
    elif how == "truncate":
        b = a[: draw(st.integers(0, max(len(a) - 1, 0)))]
    elif how == "last" and a:
        b = a[:-1] + (draw(INT64),)
    else:
        b = draw(THETAS)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(theta_pairs())
@example(((), (0,)))
@example(((0,), (0, 0)))
@example(((1,), (0, 1)))
@example(((0, -1), (0, 2**63 - 1)))
@example(((-1,), (2**63 - 1,)))
def test_distinct_theta_paths_encode_and_draw_differently(pair):
    a, b = pair
    assume(a != b)
    assert theta_bytes(a) != theta_bytes(b)
    oracle = RandomOracle(20_230_924, 3)
    for kind in (KIND_TIME, KIND_GAUSS):
        assert not np.array_equal(oracle.uniform01(a, kind, 3), oracle.uniform01(b, kind, 3))


def test_uniform01_matches_hand_rolled_digest():
    # independent reconstruction of the first block for one fixed case
    seed, theta, kind = 1234, (0, 2, -5), KIND_TIME
    oracle = RandomOracle(seed, d=3)
    msg = (
        struct.pack("<Q", 3)
        + struct.pack("<q", 0)
        + struct.pack("<q", 2)
        + struct.pack("<q", -5)
        + kind
        + struct.pack("<Q", 0)
    )
    digest = hashlib.blake2b(msg, digest_size=64, key=struct.pack("<q", seed)).digest()
    lanes = np.frombuffer(digest, dtype="<u8").astype(np.float64)
    want = (lanes + 0.5) / 2.0**64
    got = oracle.uniform01(theta, kind, 8)
    np.testing.assert_array_equal(got, want)


def test_uniform01_is_deterministic_and_keyed():
    a = RandomOracle(42, 2)
    b = RandomOracle(42, 2)
    c = RandomOracle(43, 2)
    theta = (0, 1, 1)
    np.testing.assert_array_equal(
        a.uniform01(theta, KIND_TIME, 13), b.uniform01(theta, KIND_TIME, 13)
    )
    assert not np.array_equal(
        a.uniform01(theta, KIND_TIME, 13), c.uniform01(theta, KIND_TIME, 13)
    )


def test_uniform01_streams_are_prefix_stable():
    oracle = RandomOracle(7, 1)
    theta = (0, -3)
    long = oracle.uniform01(theta, KIND_GAUSS, 21)
    short = oracle.uniform01(theta, KIND_GAUSS, 8)
    np.testing.assert_array_equal(long[:8], short)
    assert long.shape == (21,)
    assert oracle.uniform01(theta, KIND_GAUSS, 0).shape == (0,)


def test_uniform01_open_interval_and_kind_separation():
    oracle = RandomOracle(99, 4)
    theta = (0, 5)
    draws = {
        kind: oracle.uniform01(theta, kind, 64)
        for kind in (KIND_TIME, KIND_GAUSS, KIND_BOX, KIND_PROBE)
    }
    for u in draws.values():
        assert np.all(u > 0.0) and np.all(u < 1.0)
    kinds = list(draws)
    for i in range(len(kinds)):
        for j in range(i + 1, len(kinds)):
            assert not np.array_equal(draws[kinds[i]], draws[kinds[j]])


def test_path_separation():
    oracle = RandomOracle(5, 1)
    assert oracle.uniform01((0, 1), KIND_TIME, 4)[0] != oracle.uniform01((0, -1), KIND_TIME, 4)[0]
    # length-prefixed encoding keeps (1, 0) distinct from (1,) despite a shared prefix
    assert oracle.uniform01((1, 0), KIND_TIME, 1)[0] != oracle.uniform01((1,), KIND_TIME, 1)[0]


def test_gaussians_are_inverse_cdf_of_uniforms():
    oracle = RandomOracle(11, 3)
    theta = (0, 2)
    u = oracle.uniform01(theta, KIND_GAUSS, 10)
    np.testing.assert_array_equal(oracle.gaussians(theta, 10), ndtri(u))


def test_gaussian_moments_loose():
    oracle = RandomOracle(314, 1)
    draws = np.concatenate([oracle.gaussians((i,), 8) for i in range(2500)])
    n = draws.size
    assert abs(draws.mean()) < 3.0 / np.sqrt(n)
    assert abs(draws.std() - 1.0) < 3.0 / np.sqrt(n)


def test_oracle_rejects_seeds_outside_64_bits():
    # each of these used to key the oracle of another seed without complaint
    for bad in (1.7, True, np.float64(2.0), np.True_, 2**64 + 1, 2**63, -(2**63) - 1, "3"):
        with pytest.raises(ValueError, match="seed"):
            RandomOracle(bad, 1)
    # both ends of the range, and negative seeds, are first-class and distinct
    draws = [RandomOracle(seed, 1).uniform01((0,), KIND_TIME, 4) for seed in (2**63 - 1, -(2**63), -1)]
    assert len({d.tobytes() for d in draws}) == 3


def test_dimension_validation():
    with pytest.raises(ValueError):
        RandomOracle(0, 0)


def test_uniform_time_range_and_bounds():
    oracle = RandomOracle(17, 1)
    for k in range(50):
        s = uniform_time(oracle, (0, 1, k), 0.25, 1.5)
        assert 0.25 <= s <= 1.5
    with pytest.raises(ValueError):
        uniform_time(oracle, (0,), 2.0, 1.0)


def test_brownian_increment_scaling_is_exactly_sqrt():
    oracle = RandomOracle(23, 6)
    theta = (0, 3, -2)
    w1 = brownian_increment(oracle, theta, 1.0)
    w4 = brownian_increment(oracle, theta, 4.0)
    assert w1.shape == (6,)
    np.testing.assert_array_equal(w4, 2.0 * w1)
    np.testing.assert_array_equal(brownian_increment(oracle, theta, 0.0), np.zeros(6))
    with pytest.raises(ValueError):
        brownian_increment(oracle, theta, -0.5)


def test_box_stream_and_probe_stream():
    oracle = RandomOracle(31, 3)
    pts = box_points(oracle, 5, -1.0, 2.0)
    assert pts.shape == (5, 3)
    assert np.all(pts >= -1.0) and np.all(pts <= 2.0)
    for i in range(5):
        np.testing.assert_array_equal(pts[i], box_point(oracle, i, -1.0, 2.0))
    # probes use a reserved kind, so they never collide with box draws
    assert not np.array_equal(probe_point(oracle, 0, -1.0, 2.0), pts[0])
    assert box_points(oracle, 0, 0.0, 1.0).shape == (0, 3)
    with pytest.raises(ValueError):
        box_point(oracle, 0, 1.0, 1.0)


EDGE_ENTRIES = st.sampled_from([2**63 - 1, -(2**63 - 1), -(2**63), 0, 1, -1])


@st.composite
def path_blocks(draw):
    """A (K, L) block of paths with entries often at the int64 extremes."""
    rows = draw(st.integers(0, 5))
    length = draw(st.integers(0, 6))
    entry = EDGE_ENTRIES | INT64 | st.integers(-3, 3)
    return np.array(
        [[draw(entry) for _ in range(length)] for _ in range(rows)], dtype=np.int64
    ).reshape(rows, length)


@settings(max_examples=150, deadline=None)
@given(
    path_blocks(),
    st.sampled_from([0, 1, 8, 9, 17]),
    st.integers(1, 9),
    st.lists(st.floats(-2.0, 1.5), min_size=5, max_size=5),
)
def test_block_draws_equal_single_path_draws_row_for_row(paths, count, d, times):
    oracle = RandomOracle(-20_230_924, d)
    t = np.array(times[: len(paths)])
    s = np.where(np.arange(len(paths)) % 2 == 0, 0.0, np.abs(t))  # s = 0 in every other row
    for kind in (KIND_TIME, KIND_GAUSS, KIND_BOX):
        block = oracle.uniform01(paths, kind, count)
        assert block.shape == (len(paths), count)
        for j, row in enumerate(paths):
            assert block[j].tobytes() == oracle.uniform01(tuple(row), kind, count).tobytes()
    gauss = oracle.gaussians(paths, count)
    times_block = uniform_time(oracle, paths, t, 1.5)
    moves = brownian_increment(oracle, paths, s)
    assert times_block.shape == (len(paths),) and moves.shape == (len(paths), d)
    for j, row in enumerate(paths):
        path = tuple(int(v) for v in row)
        assert gauss[j].tobytes() == oracle.gaussians(path, count).tobytes()
        single = uniform_time(oracle, path, float(t[j]), 1.5)
        assert type(single) is float
        assert np.float64(single).tobytes() == times_block[j].tobytes()
        assert moves[j].tobytes() == brownian_increment(oracle, path, float(s[j])).tobytes()


@settings(max_examples=60, deadline=None)
@given(path_blocks(), st.lists(INT64, min_size=1, max_size=3), st.sampled_from([1, 8, 9, 17]))
def test_a_path_block_draws_what_the_plain_block_draws(paths, seeds, d):
    # the first draw of each (kind, count) keeps its messages and the second reads
    # them, under every oracle; d = 9 and 17 need two and three digests per path
    block = PathBlock(paths)
    assert not block.flags.writeable and block.tobytes() == paths.tobytes()
    oracles = [RandomOracle(seed, d) for seed in seeds]
    t = np.zeros((len(seeds), len(paths)))
    for _ in range(2):
        for oracle in oracles:
            for kind in (KIND_TIME, KIND_GAUSS):
                assert oracle.uniform01(block, kind, d).tobytes() == oracle.uniform01(paths, kind, d).tobytes()
        assert uniform_time(oracles, block, t, 1.0).tobytes() == uniform_time(oracles, paths, t, 1.0).tobytes()
        moves = brownian_increment(oracles, block, t + 0.5)
        assert moves.tobytes() == brownian_increment(oracles, paths, t + 0.5).tobytes()
    assert set(block.messages) == {(KIND_TIME, d), (KIND_GAUSS, d), (KIND_TIME, 1)}
    # a slice of the block is a new block of paths, encoded afresh
    tail = oracles[0].uniform01(block[1:], KIND_GAUSS, d)
    assert tail.tobytes() == oracles[0].uniform01(paths[1:], KIND_GAUSS, d).tobytes()


def test_block_rejects_bad_paths_and_times():
    oracle = RandomOracle(3, 2)
    good = np.array([[0, 1], [0, 2]], dtype=np.int64)
    bad_blocks = [
        good.astype(np.float64),
        good.astype(np.uint64),  # entries of 2**63 and above would wrap
        good[:, :, None],
        good[0],  # an array is always a block; one path is a tuple
    ]
    for paths in bad_blocks:
        with pytest.raises(ValueError):
            oracle.uniform01(paths, KIND_TIME, 1)
        with pytest.raises(ValueError):
            uniform_time(oracle, paths, np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            brownian_increment(oracle, paths, np.ones(2))
    with pytest.raises(ValueError):
        uniform_time(oracle, good, np.array([0.5, 1.25]), 1.0)
    with pytest.raises(ValueError):
        uniform_time(oracle, good, np.array([0.5, np.nan]), 1.0)
    with pytest.raises(ValueError):
        uniform_time(oracle, good, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        brownian_increment(oracle, good, np.array([1.0, -1e-300]))
    with pytest.raises(ValueError):
        brownian_increment(oracle, good, 1.0)


@settings(max_examples=100, deadline=None)
@given(path_blocks(), st.lists(INT64, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_seed_block_rows_equal_each_oracles_own_draws(paths, seeds, times_seed):
    # d = 9 needs two digests per path
    oracles = [RandomOracle(seed, 9) for seed in seeds]
    shape = (len(oracles), len(paths))
    t = np.random.default_rng(times_seed).uniform(-2.0, 1.5, size=shape)
    s = np.where(np.arange(len(paths)) % 2 == 0, 0.0, np.abs(t))  # s = 0 in every other column
    times = uniform_time(oracles, paths, t, 1.5)
    moves = brownian_increment(oracles, paths, s)
    assert times.shape == shape and moves.shape == (*shape, 9)
    for i, oracle in enumerate(oracles):
        assert times[i].tobytes() == uniform_time(oracle, paths, t[i], 1.5).tobytes()
        assert moves[i].tobytes() == brownian_increment(oracle, paths, s[i]).tobytes()
    # one path drawn for every oracle: (S,) times and (S, d) increments
    for j, row in enumerate(paths):
        path = tuple(int(v) for v in row)
        assert uniform_time(oracles, path, t[:, j], 1.5).tobytes() == times[:, j].tobytes()
        assert brownian_increment(oracles, path, s[:, j]).tobytes() == moves[:, j].tobytes()


def test_seed_block_rejects_bad_oracles_and_shapes():
    paths = np.array([[0, 1], [0, 2], [0, 3]], dtype=np.int64)
    pair = [RandomOracle(1, 2), RandomOracle(2, 2)]
    draws = [
        lambda oracles, v: uniform_time(oracles, paths, v, 1.0),
        lambda oracles, v: brownian_increment(oracles, paths, v),
    ]
    for draw in draws:
        assert draw(pair, np.zeros((2, 3))).shape[:2] == (2, 3)
        for oracles in [[], (), [RandomOracle(1, 2), RandomOracle(2, 3)]]:
            with pytest.raises(ValueError, match="oracle"):
                draw(oracles, np.zeros((len(oracles), 3)))
        for shape in [(), (3,), (2,), (3, 2), (1, 3), (2, 3, 1)]:
            with pytest.raises(ValueError, match="shape"):
                draw(pair, np.zeros(shape))
    # one path takes (S,) values
    for shape in [(), (1,), (2, 1)]:
        with pytest.raises(ValueError, match="shape"):
            uniform_time(pair, (0, 1), np.zeros(shape), 1.0)
        with pytest.raises(ValueError, match="shape"):
            brownian_increment(pair, (0, 1), np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_are_rejected(bad):
    # they used to give NaN or infinite times and increments
    oracle = RandomOracle(3, 2)
    pair = [oracle, RandomOracle(4, 2)]
    block = np.array([[0, 1], [0, 2]], dtype=np.int64)
    cases = [
        (oracle, (0, 1), bad),
        (oracle, block, np.array([0.5, bad])),
        (pair, block, np.array([[0.5, 0.5], [bad, 0.5]])),
        (pair, (0, 1), np.array([0.5, bad])),
    ]
    for oracles, paths, values in cases:
        with pytest.raises(ValueError):
            brownian_increment(oracles, paths, values)
        with pytest.raises(ValueError):
            uniform_time(oracles, paths, values, 1.0)
        with pytest.raises(ValueError):
            uniform_time(oracles, paths, np.zeros(np.shape(values)), bad)


def test_empty_block_draws_nothing():
    oracle = RandomOracle(3, 4)
    empty = np.zeros((0, 3), dtype=np.int64)
    assert uniform_time(oracle, empty, np.zeros(0), 1.0).shape == (0,)
    assert brownian_increment(oracle, empty, np.zeros(0)).shape == (0, 4)
    assert oracle.uniform01(empty, KIND_TIME, 9).shape == (0, 9)
