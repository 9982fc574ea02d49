"""Training loop and sliding-window inference pipeline."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import combine_scalar, median_filter_scalar
from wattsplit import trainer
from wattsplit.model import (DEFAULT_CONV_STACK, ConvLayerSpec, DisaggNet, NetConfig,
                             total_loss)
from wattsplit.postprocess import FilterConfig
from wattsplit.presets import window_for
from wattsplit.series import PowerSeries
from wattsplit.states import ApplianceStateModel
from wattsplit.trainer import (
    VARIANTS,
    DisaggregationResult,
    TrainConfig,
    TrainReport,
    disaggregate,
    train,
)
from wattsplit.windows import WindowConfig, WindowedExample, input_window

S, W, L = 4, 3, 3
INPUT_LEN = S + 2 * W


TINY_STACK = (ConvLayerSpec(3, 3), ConvLayerSpec(4, 3))
# total stride 2: windows at odd offsets from each other cannot share a row
STRIDED_STACK = (ConvLayerSpec(3, 3), ConvLayerSpec(4, 3, 2))


def tiny_net(seed=0, conv_stack=TINY_STACK) -> DisaggNet:
    return DisaggNet(NetConfig(
        window=WindowConfig(s=S, w=W),
        state_count=L,
        conv_stack=conv_stack,
        hidden=8,
        seed=seed,
    ))


def make_examples(n, seed=1, consistent=False) -> list[WindowedExample]:
    """Random examples; `consistent` ties each target power to its state's
    rating, as real windowed data does, so a single example is exactly
    fittable (timesteps sharing a state share one rating)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        idx = rng.integers(0, L, size=S)
        if consistent:
            ratings = rng.normal(size=L) * 0.5
            power = ratings[idx]
        else:
            power = rng.normal(size=S) * 0.5
        out.append(WindowedExample(
            input=rng.normal(size=INPUT_LEN),
            target_power=power,
            target_states=np.eye(L)[idx],
        ))
    return out


def param_bytes(net: DisaggNet) -> bytes:
    return b"".join(p.tensor.values.tobytes() for p in net.parameters())


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

class TestTrainConfig:
    @pytest.mark.parametrize("kwargs,msg", [
        (dict(batch_size=0), "batch_size"),
        (dict(learning_rate=0.0), "learning_rate"),
        (dict(epochs=-1), "epochs"),
        (dict(lambda_power=-0.5), "lambda_power"),
        (dict(variant="soft"), "variant"),
    ])
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            TrainConfig(**kwargs)

    def test_variant_roster(self):
        assert VARIANTS == ("plain", "median", "hard", "hard_median")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TestTrain:
    def test_single_example_overfits(self):
        net = tiny_net()
        examples = make_examples(1, consistent=True)
        cfg = TrainConfig(batch_size=1, epochs=500, seed=0)
        _, report = train(net, examples, cfg)
        first, last = report.epochs[0], report.epochs[-1]
        assert last.loss_output < 1e-4
        assert last.loss_total < 0.05 * first.loss_total

    def test_loss_trends_down_on_small_set(self):
        net = tiny_net()
        _, report = train(net, make_examples(8), TrainConfig(epochs=40, seed=2))
        assert report.epochs[-1].loss_total < report.epochs[0].loss_total

    def test_empty_stream_leaves_model_untouched(self):
        net = tiny_net()
        before = param_bytes(net)
        _, report = train(net, [], TrainConfig())
        assert param_bytes(net) == before
        assert report.epochs == []
        assert net.epochs_seen == 0

    def test_zero_epochs_leaves_model_untouched(self):
        net = tiny_net()
        before = param_bytes(net)
        _, report = train(net, make_examples(4), TrainConfig(epochs=0))
        assert param_bytes(net) == before
        assert report.epochs == []

    def test_epochs_seen_accumulates(self):
        net = tiny_net()
        train(net, make_examples(4), TrainConfig(epochs=3))
        train(net, make_examples(4), TrainConfig(epochs=2))
        assert net.epochs_seen == 5

    def test_deterministic_for_fixed_seed(self):
        runs = []
        for _ in range(2):
            net = tiny_net(seed=7)
            train(net, make_examples(6), TrainConfig(epochs=4, seed=3))
            runs.append(param_bytes(net))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("variant", ["plain", "hard"])
    def test_training_leaves_no_reference_cycles(self, variant):
        import gc
        net, examples = tiny_net(), make_examples(6)
        gc.collect()
        gc.disable()
        try:
            train(net, examples, TrainConfig(epochs=2, batch_size=4, variant=variant,
                                             lambda_power=0.5),
                  centroid_targets=np.zeros(L))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_each_subnetwork_is_laid_out_in_one_vector(self):
        net = tiny_net()
        train(net, make_examples(6), TrainConfig(epochs=1, batch_size=4))
        for sub in (net.power_net, net.state_net):
            bases = {id(p.tensor.values.base) for p in sub.params}
            assert len(bases) == 1
            assert all(p.tensor.grad is None and p.tensor.grad_view is None
                       for p in sub.params)
        assert net.power_net.params[0].tensor.values.base is not \
            net.state_net.params[0].tensor.values.base

    def test_seed_changes_shuffle_order(self):
        outs = []
        for seed in (0, 1):
            net = tiny_net(seed=7)
            train(net, make_examples(6), TrainConfig(epochs=4, seed=seed))
            outs.append(param_bytes(net))
        assert outs[0] != outs[1]

    def test_first_epoch_stats_match_direct_loss(self):
        # with one full batch and no shuffling, the first epoch logs the loss
        # of the initial parameters
        examples = make_examples(5)
        net_a = tiny_net(seed=4)
        inputs = np.stack([ex.input for ex in examples])
        targets = np.stack([ex.target_power for ex in examples])
        states = np.stack([ex.target_states for ex in examples])
        loss, out_term, state_term = total_loss(
            net_a.forward_tensors(inputs), targets, states)
        net_b = tiny_net(seed=4)
        _, report = train(net_b, examples,
                          TrainConfig(batch_size=8, epochs=1, shuffle=False))
        rec = report.epochs[0]
        assert rec.loss_total == float(loss.values)
        assert rec.loss_output == float(out_term.values)
        assert rec.loss_state == float(state_term.values)

    def test_plain_variant_ignores_gumbel_seed(self):
        # without shuffling, plain training consumes no randomness at all
        outs = []
        for seed in (0, 99):
            net = tiny_net(seed=7)
            train(net, make_examples(6),
                  TrainConfig(epochs=3, seed=seed, shuffle=False))
            outs.append(param_bytes(net))
        assert outs[0] == outs[1]

    def test_hard_variant_trains_differently(self):
        plain, hard = tiny_net(seed=7), tiny_net(seed=7)
        examples = make_examples(6)
        train(plain, examples, TrainConfig(epochs=3, seed=0, variant="plain"))
        train(hard, examples, TrainConfig(epochs=3, seed=0, variant="hard"))
        assert param_bytes(plain) != param_bytes(hard)

    def test_hard_and_hard_median_train_identically(self):
        # the median filter never enters the gradient path, so both hard
        # modes produce the same parameters
        a, b = tiny_net(seed=7), tiny_net(seed=7)
        examples = make_examples(6)
        train(a, examples, TrainConfig(epochs=3, seed=0, variant="hard"))
        train(b, examples, TrainConfig(epochs=3, seed=0, variant="hard_median"))
        assert param_bytes(a) == param_bytes(b)

    def test_lambda_power_adds_rating_pull(self):
        centroids = np.array([0.0, 0.4, 0.9])
        net = tiny_net()
        _, report = train(net, make_examples(4),
                          TrainConfig(epochs=1, lambda_power=0.5, shuffle=False),
                          centroid_targets=centroids)
        rec = report.epochs[0]
        assert rec.loss_total > rec.loss_output + rec.loss_state

    def test_lambda_power_requires_centroids(self):
        with pytest.raises(ValueError, match="centroid_targets"):
            train(tiny_net(), make_examples(2), TrainConfig(lambda_power=0.1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_loss_aborts_with_location(self):
        examples = make_examples(2)
        examples[0] = WindowedExample(
            input=examples[0].input,
            target_power=np.full(S, 1e200),  # squared error overflows
            target_states=examples[0].target_states,
        )
        with pytest.raises(RuntimeError, match=r"non-finite loss at epoch 1, batch 0"):
            train(tiny_net(), examples, TrainConfig(batch_size=4, shuffle=False))

    @pytest.mark.parametrize("index, field, bad", [
        (0, "input", np.zeros(INPUT_LEN + 1)),
        (2, "target_states", np.zeros((S, L + 1))),
    ], ids=["input-at-0", "target-states-at-2"])
    def test_bad_example_shapes_are_named(self, index, field, bad):
        examples = make_examples(4)
        examples[index] = dataclasses.replace(examples[index], **{field: bad})
        with pytest.raises(ValueError, match=f"example {index}: "):
            train(tiny_net(), examples, TrainConfig(epochs=1))

    def test_report_csv_round_trips(self, tmp_path):
        _, report = train(tiny_net(), make_examples(4), TrainConfig(epochs=3))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss_total,loss_output,loss_state"
        assert len(lines) == 4
        for rec, line in zip(report.epochs, lines[1:]):
            epoch, total, out, state = line.split(",")
            assert int(epoch) == rec.epoch
            assert float(total) == rec.loss_total  # repr round trip is exact
            assert float(out) == rec.loss_output
            assert float(state) == rec.loss_state
        assert report.wall_time_s > 0


# ---------------------------------------------------------------------------
# disaggregate
# ---------------------------------------------------------------------------

def heater_model() -> ApplianceStateModel:
    return ApplianceStateModel(
        name="heater",
        centroids=np.array([0.0, 80.0, 150.0]),
        norm_mean=50.0,
        norm_std=60.0,
    )


def make_mains(total=96, seed=5) -> PowerSeries:
    rng = np.random.default_rng(seed)
    return PowerSeries(0, 6, rng.uniform(0.0, 200.0, size=total))


class TestDisaggregate:
    def test_result_shape_and_metadata(self):
        net, mains, sm = tiny_net(), make_mains(), heater_model()
        res = disaggregate(net, mains, sm, variant="plain")
        assert isinstance(res, DisaggregationResult)
        assert res.appliance == "heater"
        assert len(res.estimate) == len(mains)
        assert res.estimate.start_time == mains.start_time
        assert res.estimate.period == mains.period
        assert res.states.shape == (len(mains), L)

    def test_estimate_is_clamped_nonnegative(self):
        res = disaggregate(tiny_net(), make_mains(), heater_model())
        assert np.all(res.estimate.values >= 0.0)

    def test_plain_states_are_soft_distributions(self):
        res = disaggregate(tiny_net(), make_mains(), heater_model(), "plain")
        np.testing.assert_allclose(res.states.sum(axis=1), 1.0, atol=1e-9)
        assert np.any((res.states > 0) & (res.states < 1))

    @pytest.mark.parametrize("variant", ["median", "hard", "hard_median"])
    def test_gated_states_are_one_hot(self, variant):
        res = disaggregate(tiny_net(), make_mains(), heater_model(), variant)
        assert set(np.unique(res.states)) <= {0.0, 1.0}
        np.testing.assert_array_equal(res.states.sum(axis=1), 1.0)

    def test_hard_estimates_come_from_rating_set(self):
        # non-overlapping exact cover: every output is one clamped,
        # denormalized predicted rating
        net, sm = tiny_net(), heater_model()
        mains = make_mains(total=5 * S)
        res = disaggregate(net, mains, sm, variant="hard")
        allowed = set()
        norm = sm.normalize(mains.values)
        pad = sm.normalize(0.0)
        for st in range(0, len(mains), S):
            window = input_window(norm, st, net.config.window, pad)
            ratings = net.predict(window[None]).ratings[0]
            for r in ratings:
                allowed.add(round(max(sm.denormalize(r), 0.0), 9))
        for v in res.estimate.values:
            assert round(v, 9) in allowed

    def test_tail_window_covers_every_sample(self):
        # length not divisible by the stride still yields a full-length series
        mains = make_mains(total=4 * S + 3)
        res = disaggregate(tiny_net(), mains, heater_model(), "hard")
        assert len(res.estimate) == len(mains)
        assert np.all(np.isfinite(res.estimate.values))

    def test_overlapping_stride_runs(self):
        res = disaggregate(tiny_net(), make_mains(), heater_model(),
                           "plain", stride=1)
        assert len(res.estimate) == 96

    def test_small_batches_match_large(self, monkeypatch):
        net, mains, sm = tiny_net(), make_mains(), heater_model()
        batches = []
        forward = net.forward_tensors
        monkeypatch.setattr(net, "forward_tensors",
                            lambda inputs, rows, offsets: batches.append(len(rows))
                            or forward(inputs, rows, offsets))
        monkeypatch.setattr(trainer, "INFER_BATCH_WINDOWS", 2)
        a = disaggregate(net, mains, sm, "plain")
        assert batches == [2] * 12  # 96 samples, 24 windows
        monkeypatch.setattr(trainer, "INFER_BATCH_WINDOWS", 256)
        b = disaggregate(net, mains, sm, "plain")
        assert batches[12:] == [24]
        assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
        assert a.states.tobytes() == b.states.tobytes()

    def test_inference_never_mutates_parameters(self):
        net, mains, sm = tiny_net(), make_mains(), heater_model()
        before = param_bytes(net)
        for variant in VARIANTS:
            disaggregate(net, mains, sm, variant)
        assert param_bytes(net) == before

    def test_inference_is_deterministic(self):
        net, mains, sm = tiny_net(), make_mains(), heater_model()
        a = disaggregate(net, mains, sm, "hard_median")
        b = disaggregate(net, mains, sm, "hard_median")
        assert a.estimate.values.tobytes() == b.estimate.values.tobytes()
        assert a.states.tobytes() == b.states.tobytes()

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            disaggregate(tiny_net(), make_mains(), heater_model(), "soft")

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="shorter than"):
            disaggregate(tiny_net(), make_mains(total=S - 1), heater_model())

    def test_rejects_missing_values(self):
        mains = make_mains()
        mains.values[10] = np.nan
        with pytest.raises(ValueError, match="missing"):
            disaggregate(tiny_net(), mains, heater_model())

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            disaggregate(tiny_net(), make_mains(), heater_model(), stride=0)

    def test_rejects_stride_beyond_window_before_any_forward_pass(self):
        net, mains, sm = tiny_net(), make_mains(), heater_model()
        calls = []
        forward = net.forward_tensors

        def watched(*args, **kwargs):
            calls.append(args)
            return forward(*args, **kwargs)
        net.forward_tensors = watched
        disaggregate(net, mains, sm, stride=S)
        assert len(calls) == 1  # the watch sees the forward pass
        calls.clear()
        with pytest.raises(ValueError, match=rf"stride.*s={S}.*got {S + 1}"):
            disaggregate(net, mains, sm, stride=S + 1)
        assert calls == []


def per_window_oracle(net, mains, sm, variant, stride, median_window=5):
    """``disaggregate`` one window at a time: single-window ``predict``
    calls, the scalar oracles for combine and the median filter, and a
    plain loop for the overlap merge."""
    s, l = net.config.window.s, net.config.state_count
    total = len(mains)
    starts = list(range(0, total - s + 1, stride))
    if starts[-1] != total - s:
        starts.append(total - s)
    norm = sm.normalize(mains.values)
    pad = sm.normalize(0.0)
    power_sum, state_sum, cover = np.zeros(total), np.zeros((total, l)), np.zeros(total)
    for st in starts:
        out = net.predict(input_window(norm, st, net.config.window, pad)[None])
        rows, ratings = out.state_probs[0], out.ratings[0]
        if variant != "plain":
            rows = np.eye(l)[np.argmax(rows, axis=1)]
            if variant in ("median", "hard_median"):
                rows = median_filter_scalar(rows, median_window)
        for t in range(s):
            power_sum[st + t] += combine_scalar(ratings, rows)[t]
            state_sum[st + t] += rows[t]
            cover[st + t] += 1
    estimate = np.maximum(sm.denormalize(power_sum / cover), 0.0)
    states = state_sum / cover[:, None]
    if variant != "plain":
        states = np.eye(l)[np.argmax(states, axis=1)]
        if variant in ("median", "hard_median"):
            states = median_filter_scalar(states, median_window)
    return estimate, states, len(starts)


class TestDisaggregateMatchesPerWindowOracle:
    # 45 samples: stride 3 and stride s=4 both need a tail window, and no
    # batch size here divides the window count
    CASES = [(1, 4), (3, 4), (None, 5)]

    @staticmethod
    def check(monkeypatch, net, variant, stride, batch_size):
        mains, sm = make_mains(total=45, seed=8), heater_model()
        monkeypatch.setattr(trainer, "INFER_BATCH_WINDOWS", batch_size)
        res = disaggregate(net, mains, sm, variant, stride=stride,
                           filter_cfg=FilterConfig(median_window=3))
        estimate, states, windows = per_window_oracle(
            net, mains, sm, variant, stride or S, median_window=3)
        assert windows % batch_size != 0
        np.testing.assert_allclose(res.estimate.values, estimate, rtol=1e-12, atol=1e-9)
        if variant == "plain":
            np.testing.assert_allclose(res.states, states, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(res.states, states)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("stride,batch_size", CASES)
    def test_batched_pipeline_matches(self, monkeypatch, variant, stride, batch_size):
        self.check(monkeypatch, tiny_net(seed=3), variant, stride, batch_size)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("stride,batch_size", CASES)
    def test_strided_conv_stack_matches(self, monkeypatch, variant, stride, batch_size):
        # total conv stride 2: at strides 1 and 3 a batch holds windows of
        # both parities, which read separate rows
        self.check(monkeypatch, tiny_net(seed=3, conv_stack=STRIDED_STACK), variant,
                   stride, batch_size)

    @staticmethod
    def check_bitwise(monkeypatch, net, variant, stride, total, batch):
        """``disaggregate`` against a sequential per-window merge over the
        windows' batched ``predict``, bit for bit; windows ``batch - 1`` and
        ``batch`` overlap, so a batch boundary splits the windows over some
        positions."""
        mains, sm = make_mains(total=total, seed=9), heater_model()
        monkeypatch.setattr(trainer, "INFER_BATCH_WINDOWS", batch)
        res = disaggregate(net, mains, sm, variant, stride=stride)
        s = net.config.window.s
        norm = sm.normalize(mains.values)
        pad = sm.normalize(0.0)
        starts = list(range(0, total - s + 1, stride))
        if starts[-1] != total - s:
            starts.append(total - s)
        assert starts[batch] - starts[batch - 1] < s
        filtered = variant in ("median", "hard_median")
        power_sum, state_sum, cover = np.zeros(total), np.zeros((total, L)), np.zeros(total)
        for lo in range(0, len(starts), batch):
            chunk = starts[lo : lo + batch]
            out = net.predict(input_window(norm, np.array(chunk), net.config.window, pad))
            for st, probs, ratings, combined in zip(chunk, out.state_probs, out.ratings,
                                                    out.combined):
                rows, values = probs, combined
                if variant != "plain":
                    rows = np.eye(L)[np.argmax(probs, axis=1)]
                    if filtered:
                        rows = median_filter_scalar(rows, 5)
                    values = combine_scalar(ratings, rows)
                power_sum[st : st + s] += values
                state_sum[st : st + s] += rows
                cover[st : st + s] += 1
        estimate = np.maximum(sm.denormalize(power_sum / cover), 0.0)
        states = state_sum / cover[:, None]
        if variant != "plain":
            states = np.eye(L)[np.argmax(states, axis=1)]
            if filtered:
                states = median_filter_scalar(states, 5)
        assert res.estimate.values.tobytes() == estimate.tobytes()
        assert res.states.tobytes() == states.tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("stride", [16, 1])
    def test_demo_size_is_bitwise_per_window_predict(self, monkeypatch, variant, stride):
        # the canned demo's net at its inference stride, and at stride 1,
        # where up to 32 windows cover a position. Batches of 100 windows
        # split the windows over some positions. Sharing each batch's conv
        # pass and merging each batch in one step change no bit of a
        # sequential per-window merge over the windows' batched ``predict``.
        net = DisaggNet(NetConfig(WindowConfig(32, 40), L, ((16, 9), (16, 7), (24, 5)),
                                  hidden=96, seed=4))
        self.check_bitwise(monkeypatch, net, variant, stride, total=3011, batch=100)

    @pytest.mark.parametrize("variant", ["plain", "hard_median"])
    @pytest.mark.parametrize("stride", [16, 1])
    def test_paper_size_stack_is_bitwise_per_window_predict(self, monkeypatch, variant,
                                                            stride):
        # the paper-size window and conv stack (432 input samples, 5 layers
        # up to 50 channels) with a small dense layer
        net = DisaggNet(NetConfig(window_for("ukdale"), L, DEFAULT_CONV_STACK,
                                  hidden=8, seed=4))
        self.check_bitwise(monkeypatch, net, variant, stride, total=900 if stride > 1 else 400,
                           batch=40)

    @pytest.mark.parametrize("stride,total", [(16, 3011), (2, 1000)])
    def test_strided_demo_stack_is_bitwise_per_window_predict(self, monkeypatch, stride,
                                                              total):
        # a stride-2 middle layer: total conv stride 2, 45 conv outputs per window
        net = DisaggNet(NetConfig(WindowConfig(32, 40), L, ((16, 9), (16, 8, 2), (24, 5)),
                                  hidden=96, seed=4))
        self.check_bitwise(monkeypatch, net, "hard_median", stride, total, batch=100)
