import importlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import picardnets.calculus as calculus_mod
from picardnets import (
    activation_wrapper,
    affine,
    compose,
    depth,
    dims,
    extend,
    fan_in,
    fan_out,
    identity_affine,
    leaky_relu,
    linear_combination_same,
    monomial_net,
    network,
    parallelize,
    power,
    prune_zero_blocks,
    realize,
    relu,
    scalar_mul,
    shift_input,
    softplus,
    sum_diff_depth,
    sum_same_depth,
)

RNG = np.random.default_rng(20240911)


def rand_net(widths, rng=RNG):
    layers = []
    for k in range(len(widths) - 1):
        w = rng.standard_normal((widths[k + 1], widths[k]))
        b = rng.standard_normal(widths[k + 1])
        layers.append((w, b))
    return network(*layers)


# -- compose -------------------------------------------------------------


def test_shift_input_realizes_the_shifted_net():
    net = rand_net((3, 5, 2, 1))
    shift = RNG.standard_normal(3)
    xs = RNG.standard_normal((16, 3))
    act = softplus()
    shifted = shift_input(net, shift)
    np.testing.assert_allclose(realize(shifted, act, xs), realize(net, act, xs + shift), rtol=1e-12, atol=1e-12)
    assert dims(shifted) == dims(net)
    assert shifted.layers[0][0] is net.layers[0][0]
    assert all(w0 is w1 and b0 is b1 for (w0, b0), (w1, b1) in zip(shifted.layers[1:], net.layers[1:]))
    with pytest.raises(ValueError):
        shift_input(net, np.zeros(2))


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shift_input_equals_composing_an_affine_shift(widths, zero_share, seed):
    # w @ eye is w to the bit when w holds no -0.0, so sharing w changes nothing
    rng = np.random.default_rng(seed)

    def draw(shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        return np.where(rng.random(shape) < zero_share, 0.0, values)

    net = network(*((draw((widths[k + 1], widths[k])), draw(widths[k + 1])) for k in range(len(widths) - 1)))
    shift = draw(widths[0])
    composed = compose(net, affine(np.eye(widths[0]), shift))
    shifted = shift_input(net, shift)
    for (w0, b0), (w1, b1) in zip(composed.layers, shifted.layers):
        assert w0.tobytes() == w1.tobytes()
        assert b0.tobytes() == b1.tobytes()


@pytest.mark.parametrize("shapes", [[(1, 1)], [(2, 3), (1, 1), (4, 2)], [(3, 1), (1, 3), (2, 2), (1, 1)]])
def test_block_diag_equals_scipy(shapes):
    # the writer lays out pieces whose inputs are not shared block-diagonally
    blocks = [RNG.standard_normal(shape) for shape in shapes]
    want = scipy.linalg.block_diag(*blocks)
    got = np.zeros(want.shape)
    calculus_mod._stack([((a, None),) for a in blocks], 0, got, None, 0, 0, shared_input=False)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "outer_widths,inner_widths",
    [
        ((3, 2), (4, 3)),  # affine o affine
        ((3, 5, 2), (4, 3)),  # deep o affine
        ((3, 2), (4, 6, 3)),  # affine o deep
        ((3, 5, 5, 2), (4, 6, 3)),  # deep o deep
    ],
)
def test_compose_matches_function_composition(outer_widths, inner_widths):
    outer = rand_net(outer_widths)
    inner = rand_net(inner_widths)
    both = compose(outer, inner)
    assert depth(both) == depth(outer) + depth(inner) - 1
    assert dims(both) == dims(inner)[:-1] + dims(outer)[1:]
    act = softplus()
    xs = RNG.standard_normal((16, inner_widths[0]))
    want = realize(outer, act, realize(inner, act, xs))
    got = realize(both, act, xs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_compose_rejects_interface_mismatch():
    with pytest.raises(ValueError):
        compose(rand_net((3, 1)), rand_net((2, 2)))


def test_compose_with_affine_identity_is_a_no_op():
    net = rand_net((2, 4, 3))
    for wrapped in (compose(identity_affine(3), net), compose(net, identity_affine(2))):
        assert depth(wrapped) == depth(net)
        for (w0, b0), (w1, b1) in zip(net.layers, wrapped.layers):
            assert np.array_equal(w0, w1)
            assert np.array_equal(b0, b1)


# -- power / extend -------------------------------------------------------


def test_power_zero_is_the_affine_identity():
    net = rand_net((3, 5, 3))
    p0 = power(net, 0)
    assert depth(p0) == 1
    assert np.array_equal(p0.layers[0][0], np.eye(3))


def test_power_matches_iterated_application():
    net = rand_net((2, 3, 2))
    act = relu()
    xs = RNG.standard_normal((8, 2))
    want = xs
    for _ in range(3):
        want = realize(net, act, want)
    p3 = power(net, 3)
    assert depth(p3) == 3 * (depth(net) - 1) + 1
    np.testing.assert_allclose(realize(p3, act, xs), want, rtol=1e-12, atol=1e-12)


def test_power_rejects_rectangular_interfaces():
    with pytest.raises(ValueError):
        power(rand_net((2, 3)), 2)


def test_extend_reaches_requested_depth_without_changing_values():
    net = rand_net((3, 4, 1))
    filler = monomial_net(1)  # exact identity under relu
    act = relu()
    xs = RNG.standard_normal((32, 3))
    for target in (2, 3, 5, 8):
        padded = extend(target, filler, net)
        assert depth(padded) == target
        np.testing.assert_allclose(
            realize(padded, act, xs), realize(net, act, xs), rtol=1e-12, atol=1e-12
        )


def test_extend_gap_zero_keeps_layers():
    # composing the affine identity on top would only copy the last layer
    net = rand_net((3, 4, 1))
    assert extend(2, monomial_net(1), net) is net


def test_extend_rejects_bad_requests():
    net = rand_net((3, 4, 1))
    with pytest.raises(ValueError):
        extend(1, monomial_net(1), net)  # would need negative padding
    with pytest.raises(ValueError):
        extend(4, rand_net((1, 2)), net)  # filler without a hidden layer
    with pytest.raises(ValueError):
        extend(4, rand_net((2, 3, 2)), net)  # filler interface mismatch


# -- parallel stacking and fans -------------------------------------------


def test_parallelize_runs_blocks_independently():
    a = rand_net((2, 3, 1))
    b = rand_net((3, 2, 2))
    stacked = parallelize([a, b])
    assert dims(stacked) == (5, 5, 3)
    act = leaky_relu(0.2)
    xs = RNG.standard_normal((10, 5))
    got = realize(stacked, act, xs)
    np.testing.assert_allclose(got[:, :1], realize(a, act, xs[:, :2]), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got[:, 1:], realize(b, act, xs[:, 2:]), rtol=1e-12, atol=1e-12)


def test_parallelize_rejects_depth_mismatch():
    with pytest.raises(ValueError):
        parallelize([rand_net((2, 1)), rand_net((2, 3, 1))])


def test_fans_copy_and_add_blocks():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    out = realize(fan_out(2, 3), relu(), x[:2])
    np.testing.assert_array_equal(out, np.array([1.0, 2.0, 1.0, 2.0, 1.0, 2.0]))
    back = realize(fan_in(2, 2), relu(), x)
    np.testing.assert_array_equal(back, np.array([4.0, 6.0]))


# -- sums ------------------------------------------------------------------


def literal_sum(nets):
    """The defining composition, materialized in full."""
    width_in = dims(nets[0])[0]
    width_out = dims(nets[0])[-1]
    return compose(
        fan_in(width_out, len(nets)),
        compose(parallelize(list(nets)), fan_out(width_in, len(nets))),
    )


def assert_identical_layers(a, b):
    assert depth(a) == depth(b)
    for (w0, b0), (w1, b1) in zip(a.layers, b.layers):
        assert np.array_equal(w0, w1)
        assert np.array_equal(b0, b1)


def test_sum_same_depth_matches_literal_construction():
    # two operands: float addition of two terms is order-free, so the collapsed
    # assembly must agree with the composed definition to the last bit
    a = rand_net((3, 4, 2, 1))
    b = rand_net((3, 2, 5, 1))
    assert_identical_layers(sum_same_depth([a, b]), literal_sum([a, b]))

    # more operands: biases drawn from half-integers keep every partial sum
    # exact, so the agreement is again bit-for-bit regardless of add order
    def half_int_net(widths):
        layers = []
        for k in range(len(widths) - 1):
            w = RNG.standard_normal((widths[k + 1], widths[k]))
            b = RNG.integers(-8, 9, widths[k + 1]) / 2.0
            layers.append((w, b))
        return network(*layers)

    nets = [half_int_net((2, 3, 1)) for _ in range(4)]
    assert_identical_layers(sum_same_depth(nets), literal_sum(nets))


def test_sum_same_depth_realizes_the_sum():
    nets = [rand_net((2, 4, 3, 1)) for _ in range(3)]
    act = softplus()
    xs = RNG.standard_normal((12, 2))
    want = sum(realize(net, act, xs) for net in nets)
    got = realize(sum_same_depth(nets), act, xs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_sum_same_depth_single_operand_and_affine_case():
    # the sum of one operand is that operand, at every depth
    for widths in ((2, 1), (2, 3, 1), (2, 3, 4, 1)):
        net = rand_net(widths)
        assert_identical_layers(net, literal_sum([net]))
        assert sum_same_depth([net]) is net
    aff = [affine([[1.0, 2.0]], [0.5]), affine([[3.0, -1.0]], [0.25])]
    total = sum_same_depth(aff)
    assert depth(total) == 1
    np.testing.assert_array_equal(total.layers[0][0], np.array([[4.0, 1.0]]))
    np.testing.assert_array_equal(total.layers[0][1], np.array([0.75]))


def test_sum_same_depth_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        sum_same_depth([rand_net((2, 1)), rand_net((2, 3, 1))])
    with pytest.raises(ValueError):
        sum_same_depth([rand_net((2, 3, 1)), rand_net((3, 3, 1))])
    with pytest.raises(ValueError):
        sum_same_depth([])


def test_scalar_mul():
    net = rand_net((2, 3, 2))
    act = relu()
    xs = RNG.standard_normal((6, 2))
    np.testing.assert_allclose(
        realize(scalar_mul(-2.5, net), act, xs),
        -2.5 * realize(net, act, xs),
        rtol=1e-12,
        atol=1e-12,
    )


def test_linear_combination_same_matches_direct_formula():
    nets = [rand_net((3, 4, 1)) for _ in range(3)]
    act = softplus()
    weights = [0.5, -1.25, 2.0]
    scales = [1.0, 0.5, -2.0]
    shifts = [np.zeros(3), np.array([1.0, -1.0, 0.5]), 0.25]
    combo = linear_combination_same(weights, scales, shifts, nets)
    xs = RNG.standard_normal((10, 3))
    want = np.zeros((10, 1))
    for h, s, shift, net in zip(weights, scales, shifts, nets):
        want = want + h * realize(net, act, s * xs + np.broadcast_to(shift, (3,)))
    np.testing.assert_allclose(realize(combo, act, xs), want, rtol=1e-11, atol=1e-11)


def test_sum_diff_depth_pads_and_adds():
    act = relu()
    shallow = affine([[2.0, 1.0]], [0.5])
    deep = rand_net((2, 4, 3, 1))
    filler = monomial_net(1)
    total = sum_diff_depth([shallow, deep], filler, act)
    assert depth(total) == 3
    xs = RNG.standard_normal((20, 2))
    want = realize(shallow, act, xs) + realize(deep, act, xs)
    np.testing.assert_allclose(realize(total, act, xs), want, rtol=1e-12, atol=1e-12)


def test_sum_diff_depth_rejects_non_identity_filler():
    act = relu()
    bogus = network(([[1.0], [1.0]], [0.0, 0.0]), ([[0.5, 0.6]], [0.0]))
    with pytest.raises(ValueError, match="identity"):
        sum_diff_depth([affine([[1.0]], [0.0]), rand_net((1, 2, 1))], bogus, act)


def test_identity_filler_is_probed_once_per_activation(monkeypatch):
    # a filler that passed is not realized again under the same activation; a bad one is rejected every time
    probes = []
    original = calculus_mod.realize

    def counting(net, act, x):
        probes.append(act)
        return original(net, act, x)

    monkeypatch.setattr(calculus_mod, "realize", counting)
    filler = network(([[1.0], [-1.0]], [0.0, 0.0]), ([[1.0, -1.0]], [0.0]))  # identity under relu and softplus
    nets = [affine([[1.0]], [0.0]), rand_net((1, 2, 1))]
    for _ in range(3):
        sum_diff_depth(nets, filler, relu())
    sum_diff_depth(nets, filler, softplus())
    assert probes == [relu(), softplus()]
    bogus = network(([[1.0], [1.0]], [0.0, 0.0]), ([[0.5, 0.6]], [0.0]))
    for _ in range(2):
        with pytest.raises(ValueError, match="identity"):
            sum_diff_depth(nets, bogus, relu())


def test_sum_diff_depth_rejects_bad_filler_shape():
    act = relu()
    nets = [affine([[1.0]], [0.0]), rand_net((1, 2, 1))]
    with pytest.raises(ValueError):
        sum_diff_depth(nets, rand_net((1, 2, 2, 1)), act)  # two hidden layers
    with pytest.raises(ValueError):
        sum_diff_depth(nets, rand_net((2, 2)), act)  # not scalar


def test_activation_wrapper_applies_activation_once():
    act = softplus()
    xs = RNG.standard_normal((7, 3))
    got = realize(activation_wrapper(3), act, xs)
    np.testing.assert_allclose(got, act(xs), rtol=0, atol=0)


def test_operations_copy_no_array(monkeypatch):
    # every array an operation allocates is read-only and owned, so Network adopts it;
    # carried layers are shared; only caller-owned data (affine's w and b) is copied
    network_mod = importlib.import_module("picardnets.network")
    freeze = network_mod._freeze
    copied = []

    def counting(a):
        out = freeze(a)
        if out is not a:
            copied.append(out.shape)
        return out

    a, b, square, flat = (rand_net(w) for w in ((2, 3, 4, 1), (2, 5, 2, 1), (1, 2, 1), (2, 1)))
    inner = rand_net((2, 2))
    filler = monomial_net(1)
    # the middle hidden unit feeds the output with weight zero
    dead = network(([[1.0], [2.0], [3.0]], [0.0, 0.0, 0.0]), ([[1.0, 0.0, 2.0]], [0.5]))
    monkeypatch.setattr(network_mod, "_freeze", counting)
    results = [
        compose(a, inner),
        scalar_mul(-1.5, a),
        sum_same_depth([a, b]),
        sum_same_depth([flat] * 3),
        parallelize([a, b]),
        extend(5, filler, a),
        extend(3, filler, a),
        power(square, 3),
        fan_in(2, 3),
        fan_out(2, 3),
        identity_affine(3),
        activation_wrapper(2),
        sum_diff_depth([a, flat], filler, relu()),
        linear_combination_same([0.5, 2.0], [1.0, -1.0], [0.0, 1.0], [b, b]),
        prune_zero_blocks(dead),
        shift_input(a, np.array([0.5, -1.0])),
    ]
    # the shifts are the caller's values: a (2,) block each for linear_combination_same
    assert copied == [(2,), (2,)]
    assert all(not w.flags.writeable for net in results for w, _ in net.layers)
