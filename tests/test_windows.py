"""Windowing: alignment, padding, normalization of targets."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattsplit.series import PowerSeries, denormalize, normalize
from wattsplit.states import ApplianceStateModel, label_states
from wattsplit.windows import WindowConfig, input_window, make_windows, shared_rows


def simple_model(mean=50.0, std=100.0):
    return ApplianceStateModel("appliance", [0.0, 150.0], mean, std)


def make_pair(n, rng, period=6):
    app = np.where(rng.random(n) < 0.3, 150.0, 0.0)
    mains = app + rng.uniform(0, 30, n)
    return (PowerSeries(0, period, mains), PowerSeries(0, period, app))


class TestWindowConfig:
    def test_input_length(self):
        assert WindowConfig(32, 200).input_length == 432
        assert WindowConfig(64, 400).input_length == 864

    def test_validation(self):
        with pytest.raises(ValueError, match="s must"):
            WindowConfig(0, 10)
        with pytest.raises(ValueError, match="w must"):
            WindowConfig(4, -1)

    def test_zero_context_allowed(self):
        assert WindowConfig(4, 0).input_length == 4


class TestInputWindow:
    def test_interior_copies_values(self):
        vals = np.arange(20, dtype=float)
        out = input_window(vals, 5, WindowConfig(4, 3), pad_value=-9.0)
        np.testing.assert_array_equal(out, np.arange(2, 12, dtype=float))

    def test_left_edge_pads(self):
        vals = np.arange(10, dtype=float)
        out = input_window(vals, 0, WindowConfig(3, 2), pad_value=-9.0)
        np.testing.assert_array_equal(out, [-9, -9, 0, 1, 2, 3, 4])

    def test_right_edge_pads(self):
        vals = np.arange(6, dtype=float)
        out = input_window(vals, 3, WindowConfig(3, 2), pad_value=-9.0)
        np.testing.assert_array_equal(out, [1, 2, 3, 4, 5, -9, -9])

    def test_both_edges_pad(self):
        vals = np.arange(3, dtype=float)
        out = input_window(vals, 0, WindowConfig(3, 2), pad_value=-9.0)
        np.testing.assert_array_equal(out, [-9, -9, 0, 1, 2, -9, -9])
        empty = input_window(np.array([]), 0, WindowConfig(1, 1), pad_value=-9.0)
        np.testing.assert_array_equal(empty, [-9, -9, -9])

    def test_negative_start_pads_rather_than_wraps(self):
        vals = np.arange(10, dtype=float)
        out = input_window(vals, -4, WindowConfig(3, 2), pad_value=-9.0)
        np.testing.assert_array_equal(out, [-9, -9, -9, -9, -9, -9, 0])
        far = input_window(vals, -50, WindowConfig(3, 2), pad_value=-9.0)
        np.testing.assert_array_equal(far, np.full(7, -9.0))

    def test_array_of_starts_stacks_scalar_calls(self):
        vals = np.arange(12, dtype=float)
        cfg = WindowConfig(3, 2)
        starts = np.array([[-6, -1, 0], [4, 9, 15]])
        out = input_window(vals, starts, cfg, pad_value=-9.0)
        assert out.shape == (2, 3, cfg.input_length)
        for idx in np.ndindex(starts.shape):
            np.testing.assert_array_equal(
                out[idx], input_window(vals, int(starts[idx]), cfg, pad_value=-9.0))


class TestSharedRows:
    @pytest.mark.parametrize("starts,period,row_count", [
        ([0, 1, 2, 3, 4, 5], 1, 1),
        ([0, 3, 6, 9, 12, 14], 2, 2),     # one row of even and one of odd starts
        ([0, 4, 8, 12, 15], 2, 2),        # an odd tail gets its own row
        ([0, 3, 6, 9, 12, 14], 4, 5),     # 0 and 12 (0 mod 4) are 12 apart
        ([0, 11, 22, 33], 1, 4),          # gaps wider than a window share nothing
        ([0, 10, 20], 5, 1),              # touching windows share a row
        ([7], 4, 1),
    ])
    def test_every_window_is_read_from_its_row(self, starts, period, row_count):
        cfg = WindowConfig(4, 3)  # input length 10
        vals = np.arange(40, dtype=float)
        row_starts, rows, offsets, extent = shared_rows(np.array(starts), cfg, period)
        assert len(row_starts) == row_count
        assert np.all(offsets % period == 0)
        assert offsets.max() == extent
        spans = input_window(vals, row_starts, WindowConfig(extent + cfg.s, cfg.w), -9.0)
        for b, start in enumerate(starts):
            np.testing.assert_array_equal(
                spans[rows[b], offsets[b] : offsets[b] + cfg.input_length],
                input_window(vals, start, cfg, -9.0))


class TestMakeWindows:
    def test_alignment_of_input_and_target(self, rng):
        mains, app = make_pair(100, rng)
        model = simple_model()
        cfg = WindowConfig(8, 5)
        examples = list(make_windows(mains, app, model, cfg, stride=8))
        assert len(examples) == 12  # starts 0, 8, ..., 88

        ex = examples[2]  # starts at 16: input position w covers mains[16]
        expected = (mains.values[16] - model.norm_mean) / model.norm_std
        assert ex.input[cfg.w] == pytest.approx(expected, rel=1e-12)

    def test_targets_denormalize_to_source_exactly(self, rng):
        mains, app = make_pair(64, rng)
        model = simple_model()
        for ex, start in zip(make_windows(mains, app, model, WindowConfig(8, 4)),
                             range(0, 57, 8)):
            back = denormalize(ex.target_power, model.norm_mean, model.norm_std)
            np.testing.assert_allclose(back, app.values[start:start + 8], atol=1e-9)

    def test_padding_is_normalized_zero_watts(self, rng):
        mains, app = make_pair(20, rng)
        model = simple_model()
        cfg = WindowConfig(4, 6)
        first = next(iter(make_windows(mains, app, model, cfg, stride=4)))
        pad = (0.0 - model.norm_mean) / model.norm_std
        np.testing.assert_array_equal(first.input[:6], np.full(6, pad))

    def test_state_rows_one_hot(self, rng):
        mains, app = make_pair(48, rng)
        examples = list(make_windows(mains, app, simple_model(), WindowConfig(6, 2)))
        for ex in examples:
            assert ex.target_states.shape == (6, 2)
            np.testing.assert_array_equal(ex.target_states.sum(axis=1), np.ones(6))

    def test_shorter_than_s_yields_nothing(self, rng):
        mains, app = make_pair(5, rng)
        assert list(make_windows(mains, app, simple_model(), WindowConfig(8, 2))) == []

    def test_misaligned_series_rejected(self, rng):
        mains, app = make_pair(40, rng)
        shifted = PowerSeries(6, app.period, app.values)
        with pytest.raises(ValueError, match="misaligned"):
            list(make_windows(mains, shifted, simple_model(), WindowConfig(4, 2)))
        short = PowerSeries(0, app.period, app.values[:-1])
        with pytest.raises(ValueError, match="misaligned"):
            list(make_windows(mains, short, simple_model(), WindowConfig(4, 2)))

    def test_missing_values_rejected(self):
        vals = np.array([1.0, np.nan, 2.0, 3.0])
        mains = PowerSeries(0, 6, vals)
        app = PowerSeries(0, 6, np.zeros(4))
        with pytest.raises(ValueError, match="missing"):
            list(make_windows(mains, app, simple_model(), WindowConfig(2, 1)))

    @settings(max_examples=60, deadline=None)
    @given(total=st.integers(0, 60), s=st.integers(1, 12), w=st.integers(0, 8),
           stride=st.integers(1, 15), seed=st.integers(0, 2**16))
    def test_examples_are_the_per_window_gathers(self, total, s, w, stride, seed):
        mains, app = make_pair(total, np.random.default_rng(seed))
        model, cfg = simple_model(), WindowConfig(s, w)
        examples = list(make_windows(mains, app, model, cfg, stride=stride))
        assert len(examples) == ((total - s) // stride + 1 if total >= s else 0)
        mains_norm = normalize(mains, model.norm_mean, model.norm_std)
        app_norm = normalize(app, model.norm_mean, model.norm_std)
        labels = label_states(app, model)
        pad = normalize(np.zeros(1), model.norm_mean, model.norm_std)[0]
        for ex, start in zip(examples, range(0, total, stride)):
            assert ex.input.tobytes() == input_window(mains_norm, start, cfg, pad).tobytes()
            assert ex.target_power.tobytes() == app_norm[start : start + s].tobytes()
            assert ex.target_states.tobytes() == labels[start : start + s].tobytes()

    def test_stride_spacing(self, rng):
        mains, app = make_pair(40, rng)
        examples = list(make_windows(mains, app, simple_model(), WindowConfig(4, 0),
                                     stride=10))
        assert len(examples) == 4  # starts 0, 10, 20, 30
        np.testing.assert_array_equal(
            examples[1].input,
            (mains.values[10:14] - 50.0) / 100.0)
