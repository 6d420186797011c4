import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import picardnets.calculus as calculus_mod
import picardnets.compiler as compiler_mod
from picardnets import (
    CompileInputs,
    Grid,
    LipschitzFn,
    MlpConfig,
    NetworkFn,
    ProblemFns,
    RandomOracle,
    affine,
    approx_net_relu,
    bound_depth,
    bound_params,
    bound_width,
    box_points,
    brownian_increment,
    compile_mlp,
    compose,
    default_identity,
    depth,
    dims,
    dumps_network,
    fan_in,
    interp_net_relu,
    leaky_relu,
    mlp_estimate_batch,
    mlp_eval,
    monomial_net,
    network,
    parallelize,
    param_count,
    parse_activation,
    prune_zero_blocks,
    realize,
    relu,
    report_json,
    repu,
    scalar_mul,
    shift_input,
    size_report,
    softplus,
    sum_diff_depth,
    sum_same_depth,
    uniform_time,
    verify_equivalence,
)
from picardnets.engine import _draw_depths
from references import reference_tree

RNG = np.random.default_rng(555)


def rand_net(widths):
    return network(
        *(
            (RNG.standard_normal((widths[k + 1], widths[k])) * 0.5, RNG.standard_normal(widths[k + 1]) * 0.1)
            for k in range(len(widths) - 1)
        )
    )


def make_inputs(act_tag="relu", n=2, M=2, d=2, seed=7, horizon=1.0):
    act = parse_activation(act_tag)
    return CompileInputs(
        n=n,
        M=M,
        horizon=horizon,
        d=d,
        g_net=rand_net((d, 3, 1)),
        f_net=rand_net((1, 2, 1)),
        j_net=default_identity(act),
        activation=act,
        oracle=RandomOracle(seed, d),
    )


def quad_inputs(n=2, M=2, d=2, seed=7):
    # exact squared-norm datum under repu:2 and a linear nonlinearity
    act = repu(2)
    return CompileInputs(
        n=n,
        M=M,
        horizon=1.0,
        d=d,
        g_net=compose(fan_in(1, d), parallelize([monomial_net(2)] * d)),
        f_net=affine([[0.1]], [0.0]),
        j_net=default_identity(act),
        activation=act,
        oracle=RandomOracle(seed, d),
    )


def test_level_zero_compiles_to_the_zero_map():
    inputs = make_inputs(n=0)
    net = compile_mlp(inputs, (0,), 0.5)
    assert dims(net) == (2, 1)
    xs = RNG.standard_normal((5, 2))
    np.testing.assert_array_equal(realize(net, relu(), xs), np.zeros((5, 1)))


def test_level_one_single_branch_matches_hand_expansion():
    inputs = make_inputs(n=1, M=1, d=2, seed=40)
    t = 0.25
    net = compile_mlp(inputs, (0,), t)
    act = inputs.activation

    oracle = RandomOracle(40, 2)
    shift = brownian_increment(oracle, (0, 0, -1), inputs.horizon - t)
    f0 = float(realize(inputs.f_net, act, np.array([0.0]))[0])
    for x in RNG.standard_normal((6, 2)):
        g_val = float(realize(inputs.g_net, act, x + shift)[0])
        want = g_val + (inputs.horizon - t) * f0
        got = float(realize(net, act, x)[0])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("act_tag", ["relu", "leaky_relu:0.3", "softplus", "repu:2"])
def test_compiled_network_matches_estimator(act_tag):
    inputs = make_inputs(act_tag, n=2, M=2, seed=13)
    report = verify_equivalence(inputs, (0,), 0.25, probes=10)
    assert report.passed, report
    assert report.max_residual <= 1e-10
    assert report.probe_count == 10


@pytest.mark.parametrize("probes", [0, -3])
def test_equivalence_needs_at_least_one_probe(probes):
    with pytest.raises(ValueError, match="probe"):
        verify_equivalence(make_inputs(), (0,), 0.25, probes=probes)


@pytest.mark.parametrize("act_tag", ["relu", "softplus"])
def test_equivalence_of_a_given_net_equals_a_fresh_compile(act_tag):
    inputs = make_inputs(act_tag, n=2, M=2, seed=21)
    net = compile_mlp(inputs, (0,), 0.25)
    given = verify_equivalence(inputs, (0,), 0.25, probes=7, compiled=net)
    assert given.passed
    assert report_json(given) == report_json(verify_equivalence(inputs, (0,), 0.25, probes=7))


def test_equivalence_fails_for_a_net_compiled_from_another_seed():
    inputs = make_inputs(n=2, M=2, seed=21)
    other = compile_mlp(replace(inputs, oracle=RandomOracle(22, inputs.d)), (0,), 0.25)
    assert not verify_equivalence(inputs, (0,), 0.25, probes=7, compiled=other).passed


def test_equivalence_rejects_a_net_of_the_wrong_dims():
    inputs = make_inputs(n=1, M=2, d=2)
    wider = compile_mlp(make_inputs(n=1, M=2, d=3), (0,), 0.25)
    two_outputs = network((np.ones((2, 2)), np.zeros(2)))
    for net in (wider, two_outputs):
        with pytest.raises(ValueError, match="R\\^2 to R"):
            verify_equivalence(inputs, (0,), 0.25, compiled=net)


def test_equivalence_with_exact_quadratic_datum():
    inputs = quad_inputs(n=3, M=2, d=2, seed=3)
    report = verify_equivalence(inputs, (0,), 0.0, probes=8)
    assert report.passed, report


def test_compiled_shape_ignores_time_path_and_seed():
    shapes = set()
    for seed, theta, t in [(1, (0,), 0.0), (9, (0,), 0.7), (1, (0, 2, 5), 0.3)]:
        inputs = quad_inputs(n=2, M=2, seed=seed)
        shapes.add(dims(compile_mlp(inputs, theta, t)))
    assert len(shapes) == 1


def test_size_report_and_frozen_bounds():
    inputs = quad_inputs(n=2, M=2, d=2)
    # filler width 4, datum depth 2, affine nonlinearity:
    #   depth bound: max(4, 2) + 2 * 0 = 4
    #   width bound: 4 * 6**2 = 144
    #   param bound: 2 * 4 * 4**2 * 6**4 = 165888
    assert bound_depth(inputs) == 4
    assert bound_width(inputs) == 144
    assert bound_params(inputs) == 165888
    net = compile_mlp(inputs, (0,), 0.25)
    report = size_report(inputs, net)
    assert report.within_bounds()
    assert report.params == param_count(net)
    assert report.dims == dims(net)
    parsed = json.loads(report_json(report))
    assert parsed["bound_params"] == 165888
    assert parsed["params"] == report.params


@pytest.mark.parametrize("act_tag", ["relu", "softplus"])
def test_size_bounds_hold_across_levels(act_tag):
    for n in (0, 1, 2, 3):
        inputs = make_inputs(act_tag, n=n, M=2, seed=n + 1)
        report = size_report(inputs, compile_mlp(inputs, (0,), 0.5))
        assert report.within_bounds(), (n, report)


def test_parameter_guard(monkeypatch):
    inputs = quad_inputs(n=2, M=2)
    monkeypatch.setattr(compiler_mod, "PARAM_BOUND_LIMIT", 1000)
    with pytest.raises(ValueError, match="allow_large"):
        compile_mlp(inputs, (0,), 0.25)
    net = compile_mlp(inputs, (0,), 0.25, allow_large=True)
    assert depth(net) >= 1


def test_compile_time_validation():
    inputs = quad_inputs()
    with pytest.raises(ValueError):
        compile_mlp(inputs, (0,), -0.1)
    with pytest.raises(ValueError):
        compile_mlp(inputs, (0,), 1.5)


def test_inputs_validation():
    act = relu()
    oracle = RandomOracle(0, 2)
    good = dict(
        n=1, M=1, horizon=1.0, d=2,
        g_net=rand_net((2, 3, 1)), f_net=rand_net((1, 2, 1)),
        j_net=default_identity(act), activation=act, oracle=oracle,
    )
    CompileInputs(**good)
    with pytest.raises(ValueError):
        CompileInputs(**{**good, "g_net": rand_net((3, 1))})  # wrong input width
    with pytest.raises(ValueError):
        CompileInputs(**{**good, "f_net": rand_net((2, 1))})
    with pytest.raises(ValueError):
        CompileInputs(**{**good, "j_net": rand_net((1, 2, 2, 1))})  # two hidden layers
    with pytest.raises(ValueError):
        CompileInputs(**{**good, "oracle": RandomOracle(0, 3)})
    with pytest.raises(ValueError):
        CompileInputs(**{**good, "horizon": -1.0})


def test_the_depth_filler_is_checked_once_where_compile_inputs_are_built(monkeypatch):
    # the filler is a property of the inputs: refused at construction at every level, n = 0
    # included, and never probed again by the compiler's padded sums
    bogus = network(([[1.0], [1.0]], [0.0, 0.0]), ([[0.5, 0.6]], [0.0]))
    for n in (0, 1, 3):
        good = make_inputs(n=n)
        with pytest.raises(ValueError, match="identity"):
            replace(good, j_net=bogus)
    for act in (relu(), softplus()):
        replace(good, j_net=monomial_net(1), activation=act)
    with pytest.raises(ValueError, match="identity"):  # it realizes 1.1 x there
        replace(good, j_net=monomial_net(1), activation=leaky_relu(0.1))

    inputs = make_inputs("relu", n=3, M=2)
    depths = _draw_depths(MlpConfig(n=3, M=2, horizon=1.0, t=0.0, d=2), (0,), inputs.oracle)
    probes = []
    original = calculus_mod.realize

    def counting(net, act, x):
        probes.append(act)
        return original(net, act, x)

    monkeypatch.setattr(calculus_mod, "realize", counting)
    compiler_mod._compile(depths, inputs, 0.0, False)
    assert probes == []
    # compile_mlp rebuilds its inputs around the pruned f and g, which probes once
    compile_mlp(inputs, (0,), 0.0)
    assert probes == [relu()]
    # the public sum_diff_depth checks its filler on every call
    nets = [affine([[1.0]], [0.0]), rand_net((1, 2, 1))]
    for _ in range(2):
        sum_diff_depth(nets, monomial_net(1), softplus())
    assert probes == [relu(), softplus(), softplus()]


def relu_datum_inputs(n, M, f_net, d=5):
    # the CLI's relu datum: the 161-knot interpolant of s^2 on [-8, 8], summed over coordinates
    act = relu()
    knots = np.linspace(-8.0, 8.0, 161)
    square = interp_net_relu(Grid(knots), knots**2)
    return CompileInputs(
        n=n,
        M=M,
        horizon=1.0,
        d=d,
        g_net=compose(fan_in(1, d), parallelize([square] * d)),
        f_net=f_net,
        j_net=default_identity(act),
        activation=act,
        oracle=RandomOracle(7, d),
    )


def sin_net():
    # what `interp-build --fn sin --q 2 --eps 0.5` builds: 17 units, one with a zero kink
    return approx_net_relu(LipschitzFn(np.sin, 1.0), 2.0, 0.5)[0]


# case -> (inputs, t, dims, params); the first three have a dense random f, and
# no shape depends on the random weights or the seed. Level-0 terms are one
# bias, so a constant f compiles to the datum-only shape of t = horizon.
LIVE_CASES = {
    "relu-2-2": (lambda: make_inputs("relu", n=2, M=2), 0.25, (2, 24, 6, 1), 229),
    "softplus-3-2": (lambda: make_inputs("softplus", n=3, M=2), 0.25, (2, 108, 26, 10, 1), 3_439),
    "relu-2-3": (lambda: make_inputs("relu", n=2, M=3), 0.25, (2, 54, 8, 1), 611),
    "sin-3-2": (lambda: relu_datum_inputs(3, 2, sin_net()), 0.0, (5, 28980, 166, 38, 1), 4_991_111),
    "zero-3-3": (lambda: relu_datum_inputs(3, 3, affine([[0.0]], [0.0])), 0.0, (5, 21735, 1), 152_146),
    "constant-3-3": (
        lambda: relu_datum_inputs(3, 3, affine([[0.0]], [0.3])), 0.0, (5, 21735, 1), 152_146
    ),
    # constant through a zero output layer, whose hidden units pruning cannot all drop
    "constant-hidden-3-3": (
        lambda: relu_datum_inputs(3, 3, network(([[1.0], [2.0]], [0.0, 0.1]), ([[0.0, 0.0]], [0.3]))),
        0.0,
        (5, 21735, 1),
        152_146,
    ),
    "horizon-3-3": (lambda: relu_datum_inputs(3, 3, affine([[0.1]], [0.0])), 1.0, (5, 21735, 1), 152_146),
    "sin-horizon-2-2": (lambda: relu_datum_inputs(2, 2, sin_net()), 1.0, (5, 3220, 1), 22_541),
}


@pytest.mark.parametrize("case", list(LIVE_CASES))
def test_compiled_networks_have_no_dead_units(case):
    # no hidden unit's outgoing weights are all zero, none computes a constant
    # (all-zero incoming weights), the estimator is still reproduced, and the
    # shape is the pinned one
    make, t, want_dims, want_params = LIVE_CASES[case]
    inputs = make()
    net = compile_mlp(inputs, (0,), t, allow_large=True)
    for w, _ in net.layers[1:]:
        assert np.all(np.any(w != 0.0, axis=0))
    for w, _ in net.layers[:-1]:
        assert np.all(np.any(w != 0.0, axis=1))
    report = verify_equivalence(inputs, (0,), t, compiled=net)
    assert report.passed, report
    assert dims(net) == want_dims
    assert param_count(net) == want_params


def test_prune_hand_built_case():
    # second hidden unit feeds the output with weight zero: it must disappear
    net = network(
        ([[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0]),
        ([[1.0, 0.0, 2.0]], [0.5]),
    )
    slim = prune_zero_blocks(net)
    assert dims(slim) == (1, 2, 1)
    xs = np.linspace(-2, 2, 9)[:, None]
    np.testing.assert_array_equal(realize(slim, relu(), xs), realize(net, relu(), xs))


def test_prune_keeps_at_least_one_unit():
    net = network(([[1.0]], [0.0]), ([[0.0]], [0.25]))
    slim = prune_zero_blocks(net)
    assert dims(slim) == (1, 1, 1)
    np.testing.assert_array_equal(
        realize(slim, relu(), np.array([[3.0]])), np.array([[0.25]])
    )


def test_estimator_equivalence_holds_at_the_horizon():
    # t = horizon degenerates every time integral; the estimate is g alone
    inputs = quad_inputs(n=2, M=2)
    report = verify_equivalence(inputs, (0,), 1.0, probes=5)
    assert report.passed


def test_compile_holds_about_its_output_and_the_sum_it_builds():
    # a compile holds its output plus the sums' first biases and heads, which the
    # output adopts: not one extra copy of the stacked layers, nor one per level.
    # A linear f keeps every term at the datum's depth; a relu f with hidden
    # units makes the f terms deeper, so the datum block is padded with the filler.
    padded_f = network(([[1.0], [-1.0]], [0.0, 0.5]), ([[0.3, -0.2]], [0.1]))
    for f_net, n, M, want_depth in ((affine([[0.1]], [0.0]), 3, 3, 2), (padded_f, 3, 2, 4)):
        inputs = relu_datum_inputs(n, M, f_net, d=3)
        tracemalloc.start()
        try:
            net = compile_mlp(inputs, (0,), 0.0, allow_large=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = sum(w.nbytes + b.nbytes for w, b in net.layers)
        assert depth(net) == want_depth
        assert peak <= 1.2 * output, (want_depth, peak, output)


def reference_compile(inputs, t):
    """compile_mlp as the public calculus ops build it, one stacked network per sum,
    from the sample tree drawn path by path."""
    cfg = MlpConfig(n=inputs.n, M=inputs.M, horizon=inputs.horizon, t=t, d=inputs.d)
    f_net, g_net = prune_zero_blocks(inputs.f_net), prune_zero_blocks(inputs.g_net)
    act, filler = inputs.activation, inputs.j_net
    f_zero = float(realize(f_net, act, np.zeros((1, 1)))[0, 0])
    f_constant = not all(np.any(w) for w, _ in f_net.layers)

    def build(tree):
        shifts, tiers = tree
        if not tiers:
            return affine(np.zeros((1, inputs.d)), np.zeros(1))

        def f_terms(pairs):
            terms = [shift_input(compose(f_net, build(node)), shift) for shift, node in pairs]
            return sum_diff_depth(terms, filler, act)

        blocks = [sum_same_depth([scalar_mul(1.0 / len(shifts), shift_input(g_net, s)) for s in shifts])]
        bias = tiers[0][0] * len(shifts) * f_zero
        level_terms, below_terms = [], []
        for i, (scale, branches) in enumerate(tiers[1:], start=1):
            if scale == 0.0 or f_constant:
                continue
            level_terms.append(scalar_mul(scale, f_terms((s, child) for s, child, _ in branches)))
            if i == 1:
                bias -= scale * len(branches) * f_zero
            else:
                below_terms.append(scalar_mul(-scale, f_terms((s, below) for s, _, below in branches)))
        blocks += [sum_diff_depth(terms, filler, act) for terms in (level_terms, below_terms) if terms]
        net = sum_diff_depth(blocks, filler, act)
        w, b = net.layers[-1]
        return network(*net.layers[:-1], (w, b + bias))

    return build(reference_tree(inputs.n, t, (0,), cfg, inputs.oracle, {}))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 3),
    M=st.integers(1, 3),
    d=st.integers(1, 4),
    act_tag=st.sampled_from(["relu", "leaky:0.1", "softplus", "repu:2"]),
    f_kind=st.sampled_from(["zero", "linear", "relu-net"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_bytes_equal_the_stacked_calculus(n, M, d, act_tag, f_kind, seed):
    # writing each stacked layer once, at the root, changes no bit of the network
    rng = np.random.default_rng(seed)
    act = parse_activation(act_tag)

    def rand(widths):
        return network(*((rng.standard_normal((b, a)), rng.standard_normal(b)) for a, b in zip(widths, widths[1:])))

    f_net = {
        "zero": lambda: affine([[0.0]], [0.0]),
        "linear": lambda: affine([[0.1]], [0.0]),
        "relu-net": lambda: rand((1, int(rng.integers(1, 4)), 1)),
    }[f_kind]()
    g_net = rand((d, *rng.integers(1, 5, int(rng.integers(1, 3))), 1))
    inputs = CompileInputs(
        n=n, M=M, horizon=1.0, d=d, g_net=g_net, f_net=f_net, j_net=default_identity(act),
        activation=act, oracle=RandomOracle(seed, d),
    )
    t = float(rng.uniform(0.0, 0.9))
    want = dumps_network(reference_compile(inputs, t), act)
    assert dumps_network(compile_mlp(inputs, (0,), t, allow_large=True), act) == want


# dumps_network sha256 of compiled nets, pinned when each level re-multiplied its
# shifts by the identity and re-stacked single operands; sharing them changes no bit
PINNED_SHA256 = {
    "relu": (
        lambda: affine([[0.1]], [0.0]),
        (2, 2576, 1),
        "d89e27dc7faa5fec22235e09917dc64eedcddc19c05086ce95ac4a509b82fac5",
    ),
    # the depth-2 datum block is padded to the depth-3 f terms
    "sin-padded": (sin_net, (2, 2576, 34, 1), "58878ff69c56edd9ff2e3246ddb640ed0b92c62f7d508d4b8a7872930d27ad48"),
}


@pytest.mark.parametrize("case", list(PINNED_SHA256))
def test_compiled_json_bytes_are_pinned(case):
    make_f, want_dims, want_sha = PINNED_SHA256[case]
    inputs = relu_datum_inputs(2, 2, make_f(), d=2)
    net = compile_mlp(inputs, (0,), 0.0, allow_large=True)
    assert dims(net) == want_dims
    assert hashlib.sha256(dumps_network(net, inputs.activation).encode()).hexdigest() == want_sha


def quadratic_fns(f):
    return ProblemFns(f=f, g=lambda x: np.sum(x * x, axis=-1))


def random_network_fns():
    # a random relu datum net (5, 24, 1) and a pointwise f net (1, 6, 1): a row of g can
    # move by an ulp with the size of the 64-row `realize` tile it falls in
    rng = np.random.default_rng(2026)

    def rand(widths, scale):
        return network(*((scale * rng.standard_normal((b, a)), scale * rng.standard_normal(b)) for a, b in zip(widths, widths[1:])))

    g_net, f_net = rand((5, 24, 1), 0.7), rand((1, 6, 1), 0.5)
    return ProblemFns(f=NetworkFn(f_net, relu(), pointwise=True), g=NetworkFn(g_net, relu()))


# sha256 of the float64 bytes of mlp_estimate_batch at horizon 1 on the first points of
# box_points(RandomOracle(2024, d), 16, -1, 1): (n, M, t, d), fns, seeds, points. With g =
# |x|^2 and f = 0.1 u no SIMD choice of numpy's moves a bit. The network pin moves when
# each depth's g calls are cut to the shifts of its highest level's nodes, so a change
# in how g calls block their rows shows.
PINNED_ESTIMATE_SHA256 = {
    "16 seeds x 1 point": (
        (4, 3, 0.0, 5), lambda: quadratic_fns(lambda u: 0.1 * u), range(1, 17), 1,
        "a7738f8bc016fdf87d19c8a00071f20b8ddbb0aa620b710cf84d13382b7bd48c",
    ),
    "1 seed x 16 points": (
        (4, 3, 0.0, 5), lambda: quadratic_fns(lambda u: 0.1 * u), [1], 16,
        "cb4832bb99e016e895acf7cf128d514a8283e1fc77874bd254a00da13846a598",
    ),
    "sin 4 seeds x 3 points": (
        (5, 2, 0.25, 9), lambda: quadratic_fns(lambda u: np.sin(u) + 0.1 * u), range(1, 5), 3,
        "663bb6e285f8f96e665ae50edfe5adbdd5d1b53f8d072989310f5c57e1db6338",
    ),
    "network 2 seeds x 5 points": (
        (3, 3, 0.0, 5), random_network_fns, [1, 2], 5,
        "0ab8ef683d1b24d5e20e92b54ebe3ea7d66873a3731187bf15ce51ac7ff65168",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_ESTIMATE_SHA256))
def test_estimates_are_pinned(case):
    (n, M, t, d), make_fns, seeds, count, want_sha = PINNED_ESTIMATE_SHA256[case]
    cfg = MlpConfig(n=n, M=M, horizon=1.0, t=t, d=d)
    points = box_points(RandomOracle(2024, d), 16, -1.0, 1.0)[:count]
    estimates = mlp_estimate_batch(cfg, points, seeds, make_fns())
    assert estimates.shape == (len(seeds), count) and estimates.dtype == np.float64
    assert hashlib.sha256(estimates.tobytes()).hexdigest() == want_sha
