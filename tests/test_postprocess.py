"""Post-processing: hard gate, gumbel noise, median filter, overlap merge."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import combine_scalar, median_filter_scalar
from wattsplit.model import combine
from wattsplit.postprocess import (FilterConfig, combine_hard, hard_gate, median_filter,
                                   reconcile_overlaps, sample_gumbel, window_cover)


def one_hot(indices, l):
    return np.eye(l)[np.asarray(indices)]


def merge(windows, total):
    """Per-position mean of (start, values) windows of one length, each
    added by its own ``reconcile_overlaps`` call as a batch of one."""
    sums, starts = None, []
    for start, vals in windows:
        batch = np.asarray(vals, dtype=np.float64)[None]
        if sums is None:
            sums = np.zeros((total,) + batch.shape[2:])
        reconcile_overlaps(sums, [start], batch)
        starts.append(start)
    cover = window_cover(starts, batch.shape[1], total)
    return sums / cover.reshape((-1,) + (1,) * (sums.ndim - 1))


class TestFilterConfig:
    def test_window_must_be_odd_and_at_least_three(self):
        for bad in (1, 2, 4, 0):
            with pytest.raises(ValueError, match="median_window"):
                FilterConfig(median_window=bad)
        assert FilterConfig().median_window == 5


class TestHardGate:
    def test_tie_goes_to_lowest_index(self):
        np.testing.assert_array_equal(one_hot(hard_gate(np.array([0.5, 0.5])), 2),
                                      [1.0, 0.0])

    def test_rows(self):
        rows = np.array([[0.2, 0.8], [0.9, 0.1]])
        np.testing.assert_array_equal(one_hot(hard_gate(rows), 2), [[0, 1], [1, 0]])

    def test_idempotent(self, rng):
        probs = rng.dirichlet(np.ones(4), size=50)
        once = one_hot(hard_gate(probs), 4)
        np.testing.assert_array_equal(once, one_hot(hard_gate(once), 4))

    def test_batch_matches_per_window_calls(self, rng):
        probs = rng.dirichlet(np.ones(3), size=(5, 7))
        np.testing.assert_array_equal(hard_gate(probs),
                                      np.stack([hard_gate(p) for p in probs]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hard_gate(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            hard_gate(np.float64(1.0))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            hard_gate(np.array([0.9, 0.9]))

    @given(st.integers(0, 6))
    def test_output_is_one_hot_of_argmax(self, hot):
        row = np.full(7, 0.1)
        row[hot] = 0.4
        row = row / row.sum()
        out = one_hot(hard_gate(row), 7)
        assert out[hot] == 1.0 and out.sum() == 1.0


class TestSampleGumbel:
    # argmax(logits + g) draws index i with probability softmax(logits)[i]
    # when g is standard gumbel noise (the gumbel-max trick)
    def test_gumbel_max_tracks_dominant_logit(self, rng):
        logits = np.array([5.0, 0.0, 0.0])
        hits = sum(int(np.argmax(logits + sample_gumbel((1, 3), rng)) == 0)
                   for _ in range(100))
        assert hits >= 99

    def test_gumbel_max_over_equal_logits_is_uniform(self, rng):
        draws = np.argmax(sample_gumbel((10_000, 3), rng), axis=-1)
        freq = np.bincount(draws, minlength=3) / 10_000
        np.testing.assert_allclose(freq, 1.0 / 3.0, atol=0.03)

    def test_deterministic_given_generator_state(self):
        a = sample_gumbel((4, 3), np.random.default_rng(3))
        b = sample_gumbel((4, 3), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_finite_at_uniform_zero(self):
        class ZeroUniform:
            def random(self, shape):
                return np.zeros(shape)

        g = sample_gumbel((2, 3), ZeroUniform())
        assert g.shape == (2, 3)
        assert np.all(np.isfinite(g))


class TestMedianFilter:
    def test_isolated_spike_removed(self):
        out = one_hot(median_filter([0, 0, 1, 0, 0], FilterConfig(median_window=3)), 2)
        np.testing.assert_array_equal(out, one_hot([0, 0, 0, 0, 0], 2))

    def test_matches_brute_force_binary(self, rng):
        idx = (rng.random(1000) < 0.3).astype(int)
        states = one_hot(idx, 2)
        for window in (3, 5, 7):
            out = one_hot(median_filter(idx, FilterConfig(median_window=window)), 2)
            np.testing.assert_array_equal(out, median_filter_scalar(states, window))

    def test_matches_brute_force_multistate(self, rng):
        idx = rng.integers(0, 4, size=500)
        states = one_hot(idx, 4)
        out = one_hot(median_filter(idx, FilterConfig(median_window=5)), 4)
        np.testing.assert_array_equal(out, median_filter_scalar(states, 5))

    def test_never_introduces_absent_state(self, rng):
        for _ in range(50):
            idx = rng.integers(1, 4, size=40)  # OFF never occurs
            out = one_hot(median_filter(idx, FilterConfig(median_window=5)), 4)
            assert not np.any(out[:, 0]), "invented the OFF state"

    def test_window_wider_than_sequence(self):
        out = one_hot(median_filter([1, 1, 0], FilterConfig(median_window=7)), 2)
        # edge windows shrink: positions keep their local majority
        np.testing.assert_array_equal(out.argmax(axis=1), [1, 1, 0])

    def test_idempotent_at_window_three_on_impulse_noise(self, rng):
        # One pass of a window-3 median is a fixpoint when impulses are
        # isolated (oscillations like 0,1,0,1,0 need two passes, so the
        # property is scoped to spikes separated by stable signal).
        cfg = FilterConfig(median_window=3)
        for _ in range(20):
            seq = np.zeros(200, dtype=int)
            spikes = np.sort(rng.choice(200, size=12, replace=False))
            spikes = spikes[np.concatenate(([True], np.diff(spikes) >= 3))]
            seq[spikes] = 1
            once = one_hot(median_filter(seq, cfg), 2)
            np.testing.assert_array_equal(
                once, one_hot(median_filter(np.argmax(once, axis=1), cfg), 2))
            # interior spikes are gone after the single pass
            assert not np.any(once[1:-1, 1])

    def test_run_signals_are_fixpoints(self, rng):
        # sequences whose runs are at least as long as the window pass through
        for window in (3, 5):
            seq = np.repeat(rng.integers(0, 3, size=20), window)
            states = one_hot(seq, 3)
            out = one_hot(median_filter(seq, FilterConfig(median_window=window)), 3)
            np.testing.assert_array_equal(out, states)

    def test_batch_filters_each_sequence_on_its_own(self, rng):
        # a batch of windows is filtered along each window's own time axis,
        # with the shrinking edge windows of every sequence
        idx = rng.integers(0, 3, size=(6, 9))
        states = one_hot(idx, 3)
        out = one_hot(median_filter(idx, FilterConfig(median_window=5)), 3)
        assert out.shape == states.shape
        for got, seq in zip(out, states):
            np.testing.assert_array_equal(got, median_filter_scalar(seq, 5))

    def test_requires_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            median_filter(np.array([[0.5, 0.5]]), FilterConfig())

    def test_requires_a_time_axis(self):
        with pytest.raises(ValueError, match="shape"):
            median_filter(np.argmax(np.array([0.0, 1.0]), axis=-1), FilterConfig())

    def test_constant_input_unchanged(self):
        states = one_hot([2] * 20, 3)
        np.testing.assert_array_equal(one_hot(median_filter([2] * 20, FilterConfig()), 3),
                                      states)


class TestCombineHard:
    def test_selects_ratings(self):
        ratings = np.array([0.0, 150.0, 400.0])
        np.testing.assert_array_equal(combine_hard(ratings, [0, 2, 1, 0]),
                                      [0.0, 400.0, 150.0, 0.0])

    def test_range_is_rating_set(self, rng):
        ratings = rng.normal(size=5)
        out = combine_hard(ratings, rng.integers(0, 5, size=200))
        assert set(np.unique(out)) <= set(ratings)

    def test_agrees_with_soft_combine(self, rng):
        ratings = rng.normal(size=4)
        idx = rng.integers(0, 4, size=30)
        soft = combine(ratings, one_hot(idx, 4)).values
        np.testing.assert_allclose(combine_hard(ratings, idx), soft, atol=1e-12)

    def test_soft_rows_rejected(self):
        with pytest.raises(ValueError, match="one-hot"):
            combine_hard(np.array([0.0, 1.0]), np.array([[0.4, 0.6]]))

    def test_batch_selects_each_windows_ratings(self, rng):
        ratings = rng.normal(size=(5, 3))
        idx = rng.integers(0, 3, size=(5, 8))
        out = combine_hard(ratings, idx)
        assert out.shape == (5, 8)
        for got, r, rows in zip(out, ratings, one_hot(idx, 3)):
            np.testing.assert_array_equal(got, combine_scalar(r, rows))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="ratings"):
            # indices carry no state count: a state beyond the ratings
            combine_hard(np.array([0.0, 1.0, 2.0]), [0, 3])
        with pytest.raises(ValueError, match="ratings"):
            combine_hard(np.zeros((3, 2)), [[0, 1]] * 2)


class TestCombineOracle:
    def test_matches_scalar_loop(self, rng):
        ratings = rng.normal(size=4)
        probs = rng.dirichlet(np.ones(4), size=12)
        np.testing.assert_allclose(combine(ratings, probs).values,
                                   combine_scalar(ratings, probs), rtol=1e-12)


class TestReconcileOverlaps:
    def test_single_cover_identity(self):
        out = merge([(0, np.array([1.0, 2.0])),
                     (2, np.array([3.0, 4.0]))], 4)
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_overlap_means(self):
        out = merge([(0, np.array([1.0, 1.0, 1.0])),
                     (1, np.array([3.0, 3.0, 3.0]))], 4)
        np.testing.assert_array_equal(out, [1.0, 2.0, 2.0, 3.0])

    def test_uncovered_position_named(self):
        with pytest.raises(ValueError, match="position 2"):
            merge([(0, np.array([1.0, 2.0])),
                   (3, np.array([4.0, 5.0]))], 5)

    def test_out_of_bounds_window(self):
        with pytest.raises(ValueError, match="exceeds"):
            merge([(3, np.array([1.0, 2.0]))], 4)

    def test_rows_merge_per_column(self):
        out = merge([(0, np.array([[1.0, 0.0], [1.0, 0.0]])),
                     (1, np.array([[3.0, 1.0], [3.0, 1.0]]))], 3)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [2.0, 0.5], [3.0, 1.0]])

    def test_trailing_shape_must_agree(self):
        with pytest.raises(ValueError, match=r"expected \(s,\) \+ \(3,\)"):
            merge([(0, np.zeros((2, 3))), (2, np.zeros(2))], 4)
        with pytest.raises(ValueError, match="values shape"):
            merge([(0, np.float64(1.0))], 1)

    @pytest.mark.parametrize("columns", [(), (3,)])
    def test_batch_sums_are_bitwise_a_loop_over_windows(self, rng, columns):
        # at stride 1 up to s windows cover a position, and a split into
        # two batches falls between windows that share positions
        s, total = 8, 60
        starts = np.arange(total - s + 1)
        values = rng.normal(scale=1e3, size=(len(starts), s) + columns)
        want = np.zeros((total,) + columns)
        for start, vals in zip(starts, values):
            want[start : start + s] += vals
        got = np.zeros((total,) + columns)
        for batch in (slice(0, 21), slice(21, None)):
            reconcile_overlaps(got, starts[batch], values[batch])
        assert got.tobytes() == want.tobytes()

    def test_integer_sums_count_state_votes(self):
        votes = np.zeros((5, 3), dtype=np.int32)
        reconcile_overlaps(votes, [0, 2], np.array([[2, 2, 0], [1, 2, 2]]))
        np.testing.assert_array_equal(
            votes, [[0, 0, 1], [0, 0, 1], [1, 1, 0], [0, 0, 1], [0, 0, 1]])

    def test_vote_beyond_the_state_columns_rejected(self):
        with pytest.raises(ValueError, match="state index 3"):
            reconcile_overlaps(np.zeros((4, 3), dtype=np.int32), [0], np.array([[0, 3]]))
        with pytest.raises(ValueError, match="integer state indices"):
            reconcile_overlaps(np.zeros((4, 3), dtype=np.int32), [0], np.array([[0.0, 1.0]]))

    def test_cover_counts_windows_per_position(self):
        np.testing.assert_array_equal(window_cover([0, 1, 3], 3, 6), [1, 2, 2, 2, 1, 1])
        np.testing.assert_array_equal(window_cover([0, 0], 2, 2), [2, 2])
        with pytest.raises(ValueError, match=r"within \[0, 4\)"):
            window_cover([2], 3, 4)

    def test_sums_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            reconcile_overlaps(np.zeros((4, 2))[:, 0], [0], np.ones((1, 2)))

    @given(st.integers(1, 5), st.integers(5, 30))
    @settings(max_examples=30)
    def test_mean_of_constant_windows_is_constant(self, stride, total):
        rng = np.random.default_rng(0)
        windows = []
        s = min(5, total)
        starts = list(range(0, total - s + 1, stride))
        if starts[-1] != total - s:
            starts.append(total - s)
        for st_ in starts:
            windows.append((st_, np.full(s, 7.5)))
        out = merge(windows, total)
        np.testing.assert_allclose(out, 7.5)
