"""Tests for indemnity schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layeropt import (
    IndemnitySchedule,
    Layer,
    full_cession,
    schedule_from_layers,
    truncated_stop_loss,
    zero_schedule,
)


class TestTruncatedStopLoss:
    def test_inside_layer(self):
        s = truncated_stop_loss(1.0, 3.0)
        assert s.evaluate(2.0) == pytest.approx(1.0)

    def test_above_detachment_pays_width(self):
        s = truncated_stop_loss(1.0, 3.0)
        assert s.evaluate(10.0) == pytest.approx(2.0)

    def test_unbounded_from_zero_is_identity(self):
        s = truncated_stop_loss(0.0)
        for x in (0.0, 1.0, 5.0, 100.0):
            assert s.evaluate(x) == pytest.approx(x)

    def test_rejects_empty_layer(self):
        with pytest.raises(ValueError):
            truncated_stop_loss(3.0, 3.0)
        with pytest.raises(ValueError):
            truncated_stop_loss(3.0, 1.0)

    @pytest.mark.parametrize("a, b", [(0.0, 2.0), (1.5, 4.0), (0.0, math.inf), (2.5, math.inf)])
    def test_is_the_one_layer_schedule(self, a, b):
        assert truncated_stop_loss(a, b) == schedule_from_layers([Layer(a, b)])


class TestEvaluate:
    def test_zero_schedule(self):
        s = zero_schedule()
        assert s.evaluate(17.3) == 0.0
        assert s.is_zero

    def test_identity_schedule(self):
        assert full_cession().evaluate(5.0) == pytest.approx(5.0)

    def test_two_layer_partial(self):
        s = schedule_from_layers([Layer(1.0, 2.0), Layer(4.0, 5.0)])
        assert s.evaluate(4.5) == pytest.approx(1.5)

    def test_vectorized(self):
        s = truncated_stop_loss(1.0, 3.0)
        np.testing.assert_allclose(s.evaluate([0.5, 2.0, 8.0]), [0.0, 1.0, 2.0])


class TestLayers:
    def test_single_layer_readback(self):
        assert truncated_stop_loss(1.0, 3.0).layers() == [Layer(1.0, 3.0)]

    def test_zero_schedule_has_no_layers(self):
        assert zero_schedule().layers() == []

    def test_multi_layer_readback(self):
        s = IndemnitySchedule((0.0, 1.0, 2.0, 4.0), (0.0, 1.0, 0.0, 1.0))
        assert s.layers() == [Layer(1.0, 2.0), Layer(4.0, math.inf)]

    def test_fractional_slope_rejected(self):
        s = IndemnitySchedule((0.0, 1.0), (0.5, 0.0))
        with pytest.raises(ValueError, match="bang-bang"):
            s.layers()

    def test_round_trip_from_layers(self):
        layers = [Layer(0.5, 1.5), Layer(2.0, math.inf)]
        assert schedule_from_layers(layers).layers() == layers

    def test_touching_layers_merge(self):
        s = schedule_from_layers([Layer(1.0, 2.0), Layer(2.0, 3.0)])
        assert s.layers() == [Layer(1.0, 3.0)]


class TestCanonicalForm:
    def test_adjacent_equal_slopes_merge(self):
        a = IndemnitySchedule((0.0, 1.0, 2.0), (0.0, 0.0, 1.0))
        b = IndemnitySchedule((0.0, 2.0), (0.0, 1.0))
        assert a == b
        assert a.breakpoints == (0.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="first breakpoint"):
            IndemnitySchedule((1.0, 2.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="slopes"):
            IndemnitySchedule((0.0, 1.0), (0.0, 1.5))
        with pytest.raises(ValueError, match="strictly increasing"):
            IndemnitySchedule((0.0, 1.0, 1.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            IndemnitySchedule((0.0, math.nan, 2.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            IndemnitySchedule((0.0, 1.0, math.inf), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="slopes"):
            IndemnitySchedule((0.0,), (math.nan,))
        with pytest.raises(ValueError, match="slopes"):
            IndemnitySchedule((0.0, 1.0, 2.0), (0.0, math.nan, 0.0))


class TestRescale:
    def test_stop_loss_maps_to_stop_loss(self):
        assert truncated_stop_loss(1.0, 3.0).rescale(2.0) == truncated_stop_loss(2.0, 6.0)

    def test_identity_factor(self):
        s = truncated_stop_loss(1.0, 3.0)
        assert s.rescale(1.0) == s

    def test_round_trip(self):
        s = IndemnitySchedule((0.0, 0.7, 1.9, 3.1), (0.2, 1.0, 0.0, 0.6))
        back = s.rescale(5.0).rescale(1.0 / 5.0)
        np.testing.assert_allclose(back.breakpoints, s.breakpoints, atol=1e-12)
        assert back.slopes == s.slopes


@given(
    a=st.floats(0.0, 50.0),
    width=st.floats(1e-6, 50.0),
    x=st.floats(0.0, 200.0),
)
@settings(max_examples=300, deadline=None)
def test_stop_loss_matches_clamped_formula(a, width, x):
    b = a + width
    expected = min(max(x - a, 0.0), b - a)
    assert truncated_stop_loss(a, b).evaluate(x) == pytest.approx(expected, abs=1e-9)


@given(
    bps=st.lists(st.floats(0.01, 20.0), min_size=1, max_size=6, unique=True),
    slopes=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7),
)
@settings(max_examples=200, deadline=None)
def test_schedules_are_monotone_lipschitz_and_bounded(bps, slopes):
    points = tuple([0.0] + sorted(bps))
    schedule = IndemnitySchedule(points, tuple(slopes[: len(points)]) + (0.0,) * max(0, len(points) - len(slopes)))
    xs = np.linspace(0.0, 25.0, 400)
    vals = np.asarray(schedule.evaluate(xs))
    diffs = np.diff(vals)
    steps = np.diff(xs)
    assert np.all(diffs >= -1e-12)
    assert np.all(diffs <= steps + 1e-12)
    assert np.all(vals >= -1e-12)
    assert np.all(vals <= xs + 1e-12)


def test_empty_layer_list_is_the_shared_zero_schedule():
    assert schedule_from_layers([]) is zero_schedule()
    assert full_cession() == IndemnitySchedule((0.0,), (1.0,))


@st.composite
def disjoint_layers(draw):
    """Layers in increasing order: some adjacent, the first possibly at 0, the last possibly unbounded."""
    cursor, layers = 0.0, []
    for _ in range(draw(st.integers(0, 5))):
        attachment = cursor + draw(st.just(0.0) | st.floats(0.01, 10.0))
        cursor = attachment + draw(st.floats(0.01, 10.0))
        layers.append(Layer(attachment, cursor))
    if layers and draw(st.booleans()):
        layers[-1] = Layer(layers[-1].attachment, math.inf)
    return layers


def _merge_adjacent(layers):
    out = []
    for layer in layers:
        if out and out[-1].detachment == layer.attachment:
            out[-1] = Layer(out[-1].attachment, layer.detachment)
        else:
            out.append(layer)
    return out


@given(layers=disjoint_layers(), order=st.randoms(), xs=st.lists(st.floats(0.0, 110.0), min_size=1, max_size=5))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_schedule_from_layers_pays_the_sum_of_its_layers(layers, order, xs):
    shuffled = list(layers)
    order.shuffle(shuffled)
    schedule = schedule_from_layers(shuffled)
    assert schedule.layers() == _merge_adjacent(layers)
    for x in xs:
        expected = sum(min(max(x - l.attachment, 0.0), l.detachment - l.attachment) for l in layers)
        assert schedule.evaluate(x) == pytest.approx(expected, abs=1e-9)
    # the segments tile [0, inf) with the stored breakpoints and slopes
    starts, ends, slopes = zip(*schedule.segments())
    assert starts == schedule.breakpoints and slopes == schedule.slopes
    assert ends == starts[1:] + (math.inf,)
