import json
from dataclasses import replace

import numpy as np
import pytest

import picardnets.compiler as compiler_mod
from picardnets import (
    CompileInputs,
    Grid,
    LipschitzFn,
    MlpConfig,
    ProblemFns,
    RandomOracle,
    affine,
    approx_net_relu,
    bound_depth,
    bound_params,
    bound_width,
    brownian_increment,
    compile_mlp,
    compose,
    default_identity,
    depth,
    dims,
    fan_in,
    interp_net_relu,
    leaky_relu,
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
    size_report,
    uniform_time,
    verify_equivalence,
)

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
