import numpy as np
import pytest

from picardnets import Activation, leaky_relu, parse_activation, relu, repu, softplus


def test_relu_values():
    act = relu()
    np.testing.assert_array_equal(
        act(np.array([-2.0, 0.0, 3.0])), np.array([0.0, 0.0, 3.0])
    )


def test_leaky_values_and_validation():
    act = leaky_relu(0.25)
    np.testing.assert_array_equal(
        act(np.array([-4.0, 2.0])), np.array([-1.0, 2.0])
    )
    with pytest.raises(ValueError):
        leaky_relu(1.0)  # a slope of one makes the two-sided identity singular
    with pytest.raises(ValueError):
        leaky_relu(-0.1)
    with pytest.raises(ValueError):
        leaky_relu(float("inf"))


def test_repu_values_and_validation():
    act = repu(3)
    np.testing.assert_array_equal(
        act(np.array([-2.0, 0.5])), np.array([0.0, 0.125])
    )
    with pytest.raises(ValueError):
        repu(1)
    with pytest.raises(ValueError):
        Activation("repu", gamma=2.5)


def test_softplus_is_stable_at_extremes():
    act = softplus()
    xs = np.array([-745.0, -35.0, 0.0, 35.0, 745.0])
    got = act(xs)
    assert np.all(np.isfinite(got))
    assert got[2] == pytest.approx(np.log(2.0))
    # saturates to the identity for large arguments
    assert got[4] == pytest.approx(745.0)
    assert got[0] >= 0.0


def test_tags_round_trip_through_parse():
    for act in (relu(), leaky_relu(0.3), repu(4), softplus()):
        back = parse_activation(act.tag())
        assert back == act


def test_parse_accepts_leaky_alias_and_rejects_junk():
    assert parse_activation("leaky:0.5") == leaky_relu(0.5)
    with pytest.raises(ValueError):
        parse_activation("gelu")
    with pytest.raises(ValueError):
        parse_activation("repu:x")
    for tag in ("relu:junk", "relu:", "relu:0.1", "softplus:3", "softplus:"):
        with pytest.raises(ValueError, match="no argument"):
            parse_activation(tag)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Activation("swish")
