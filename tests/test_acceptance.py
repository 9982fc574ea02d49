"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints one `[A<n>] ... PASS/FAIL` line on the real terminal
(bypassing pytest capture) so a full run leaves an auditable scorecard.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from wattsplit import autodiff as ad
from wattsplit.cli import main as cli_main
from wattsplit.demo import run_demo, state_accuracy, transition_count
from wattsplit.model import (ConvLayerSpec, DisaggNet, NetConfig, combine,
                             total_loss)
from wattsplit.postprocess import FilterConfig, hard_gate, median_filter
from wattsplit.presets import window_for
from wattsplit.checkpoint import load_checkpoint
from wattsplit.metrics import mae
from wattsplit.trainer import TrainConfig, train
from wattsplit.windows import WindowConfig, WindowedExample

from conftest import (central_difference, combine_scalar, cross_entropy_scalar,
                      mae_scalar, median_filter_scalar, relative_error, write_scenario)


@pytest.fixture
def scorecard(capfd):
    """Emit one uncaptured PASS/FAIL line per criterion.

    A test appends its measured numbers to ``detail`` before it asserts on
    them, so a FAIL line carries the numbers too.
    """

    @contextmanager
    def criterion(tag: str):
        detail: list[str] = []
        try:
            yield detail
        except BaseException:
            with capfd.disabled():
                print(f"[{tag}] {'; '.join(detail) or 'criterion'}: FAIL")
            raise
        with capfd.disabled():
            print(f"[{tag}] {'; '.join(detail)}: PASS")

    return criterion


# ---------------------------------------------------------------------------
# A1: exhaustive finite-difference gradient suite
# ---------------------------------------------------------------------------

GRAD_CONFIG = NetConfig(
    window=WindowConfig(s=4, w=3),
    state_count=3,
    conv_stack=(ConvLayerSpec(3, 3), ConvLayerSpec(4, 3)),
    hidden=8,
    seed=0,
)


def _grad_examples(n=6, seed=55):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        idx = rng.integers(0, 3, size=4)
        ratings = rng.normal(size=3) * 0.5
        out.append(WindowedExample(rng.normal(size=10), ratings[idx], np.eye(3)[idx]))
    return out


def _relu_margin(model: DisaggNet, inputs: np.ndarray) -> float:
    """Rebuild both subnet forwards from the public ops and return the
    smallest |pre-activation| feeding a relu. Finite differences are only
    meaningful when every relu input is far from its kink relative to the
    step size; this also cross-checks the wiring against the model's own
    forward pass."""
    params = {p.name: p.tensor for p in model.parameters()}
    margin = np.inf
    outs = {}
    for prefix in ("power", "state"):
        h = ad.Tensor(inputs[:, :, None])
        for i, layer in enumerate(model.config.conv_stack):
            pre = ad.conv1d(h, params[f"{prefix}/conv{i}/kernels"],
                            params[f"{prefix}/conv{i}/bias"], stride=layer.stride)
            margin = min(margin, float(np.min(np.abs(pre.values))))
            h = ad.relu(pre)
        n = inputs.shape[0]
        h = ad.window_gather(h, np.arange(n), np.zeros(n, dtype=np.int64), h.shape[1])
        pre = ad.dense(h, params[f"{prefix}/fc/weights"], params[f"{prefix}/fc/bias"])
        margin = min(margin, float(np.min(np.abs(pre.values))))
        h = ad.relu(pre)
        outs[prefix] = ad.dense(h, params[f"{prefix}/head/weights"],
                                params[f"{prefix}/head/bias"]).values
    fwd = model.forward_tensors(inputs)
    assert np.array_equal(outs["power"], fwd.ratings.values)
    assert np.array_equal(outs["state"].reshape(fwd.state_logits.values.shape),
                          fwd.state_logits.values)
    return margin


def test_a1_gradient_suite(scorecard):
    with scorecard("A1") as detail:
        started = time.perf_counter()
        examples = _grad_examples()
        inputs = np.stack([ex.input for ex in examples])
        targets = np.stack([ex.target_power for ex in examples])
        states = np.stack([ex.target_states for ex in examples])
        centroids = np.array([0.0, 0.4, 0.9])

        def check_all_params(model: DisaggNet) -> float:
            def loss_value() -> float:
                fwd = model.forward_tensors(inputs)
                loss, _, _ = total_loss(fwd, targets, states,
                                        lambda_power=0.5,
                                        centroid_targets=centroids)
                return float(loss.values)

            fwd = model.forward_tensors(inputs)
            loss, _, _ = total_loss(fwd, targets, states, lambda_power=0.5,
                                    centroid_targets=centroids)
            loss.backward()
            worst = 0.0
            for p in model.parameters():
                analytic = p.tensor.grad.copy()
                numeric = central_difference(lambda _: loss_value(),
                                             p.tensor.values)
                err = relative_error(analytic, numeric)
                assert err < 1e-4, f"{p.name}: relative error {err:.2e}"
                worst = max(worst, err)
                p.tensor.grad = None
            return worst

        model = DisaggNet(GRAD_CONFIG)
        margin_init = _relu_margin(model, inputs)
        assert margin_init > 1e-3, f"relu margin {margin_init:.2e} at init"
        worst_init = check_all_params(model)
        # ten optimizer steps (one full batch per epoch), then re-check
        train(model, examples,
              TrainConfig(batch_size=len(examples), epochs=10, shuffle=False,
                          lambda_power=0.5),
              centroid_targets=centroids)
        margin_after = _relu_margin(model, inputs)
        assert margin_after > 1e-3, f"relu margin {margin_after:.2e} after steps"
        worst_after = check_all_params(model)
        elapsed = time.perf_counter() - started
        n_params = sum(p.tensor.values.size for p in model.parameters())
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
        detail.append(
            f"finite differences on all {n_params} parameters of both "
            f"subnetworks: max rel err {worst_init:.2e} at init, "
            f"{worst_after:.2e} after 10 steps (tol 1e-4), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A2: brute-force / scalar-loop oracle suite, >= 100 instances each
# ---------------------------------------------------------------------------

def test_a2_oracle_suite(scorecard):
    with scorecard("A2") as detail:
        rng = np.random.default_rng(2024)

        for trial in range(100):
            t_len = int(rng.integers(3, 40))
            l = int(rng.integers(2, 5))
            window = int(rng.choice([3, 5, 7]))
            rows = np.eye(l)[rng.integers(0, l, size=t_len)]
            got = np.eye(l)[median_filter(np.argmax(rows, axis=1),
                                          FilterConfig(median_window=window))]
            want = median_filter_scalar(rows, window)
            assert np.array_equal(got, want), f"median trial {trial}"

        for trial in range(100):
            n = int(rng.integers(1, 200))
            truth = rng.uniform(0, 2000, size=n)
            est = rng.uniform(0, 2000, size=n)
            assert abs(mae(truth, est) - mae_scalar(truth, est)) < 1e-9, \
                f"mae trial {trial}"

        for trial in range(100):
            n_rows, l = int(rng.integers(1, 12)), int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(l), size=n_rows)
            targets = np.eye(l)[rng.integers(0, l, size=n_rows)]
            got = float(ad.cross_entropy_loss(probs, targets).values)
            want = cross_entropy_scalar(probs, targets)
            assert abs(got - want) < 1e-9, f"cross entropy trial {trial}"

        for trial in range(100):
            s, l = int(rng.integers(1, 16)), int(rng.integers(2, 5))
            ratings = rng.normal(size=l)
            probs = rng.dirichlet(np.ones(l), size=s)
            got = combine(ratings, probs).values
            want = combine_scalar(ratings, probs)
            assert np.allclose(got, want, atol=1e-12), f"combine trial {trial}"

        detail.append("median_filter, mae, cross_entropy, combine each match "
                      "their brute-force oracle on 100 random instances")


# ---------------------------------------------------------------------------
# A3/A4/A6/A8 share one end-to-end run of the canned experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def demo_outcome():
    started = time.perf_counter()
    outcome = run_demo()
    return outcome, time.perf_counter() - started


def _spikes(indices: np.ndarray) -> int:
    """Brute-force scan for isolated single-sample state spikes."""
    count = 0
    for t in range(1, len(indices) - 1):
        if indices[t - 1] == indices[t + 1] != indices[t]:
            count += 1
    return count


def test_a3_synthetic_end_to_end(scorecard, demo_outcome):
    outcome, wall = demo_outcome
    with scorecard("A3") as detail:
        rows = [(app.name, app.accuracy["hard_median"], app.metrics["hard_median"])
                for app in outcome.appliances]
        detail.append("hard-median holdout: " + ", ".join(
            f"{name} acc {acc * 100:.2f}% MAE {m.mae_w:.2f}W SAE {m.sae:.3f}"
            for name, acc, m in rows) +
            f" (limits 90%/15W/0.15), {wall / 60:.1f} min of 30")
        for name, acc, m in rows:
            assert acc >= 0.90, f"{name}: accuracy {acc:.4f}"
            assert m.mae_w <= 15.0, f"{name}: MAE {m.mae_w:.2f} W"
            assert m.sae <= 0.15, f"{name}: SAE {m.sae:.4f}"
        assert wall <= 30 * 60, f"end-to-end took {wall / 60:.1f} min"


def test_a4_variant_ordering(scorecard, demo_outcome):
    outcome, _ = demo_outcome
    with scorecard("A4") as detail:
        rows = [(app.name, app.metrics["plain"].mae_w, app.metrics["hard"].mae_w,
                 app.metrics["hard_median"].mae_w) for app in outcome.appliances]
        detail.append("MAE (W) " + ", ".join(
            f"{name} plain {plain:.2f} hard {hard:.2f} hard-median {hard_median:.2f}"
            for name, plain, hard, hard_median in rows) +
            " (want hard < plain and hard-median <= hard + 2W)")
        for name, plain, hard, hard_median in rows:
            assert hard_median <= hard + 2.0, \
                f"{name}: hard-median {hard_median:.2f} vs hard {hard:.2f}"
            assert hard < plain, \
                f"{name}: hard {hard:.2f} not below plain {plain:.2f}"


def test_a5_structural_fidelity(scorecard):
    with scorecard("A5") as detail:
        low = window_for("ukdale")   # 6 s grid
        high = window_for("redd")    # 3 s grid
        assert (low.s, low.w, low.input_length) == (32, 200, 432)
        assert (high.s, high.w, high.input_length) == (64, 400, 864)
        for cfg, period in ((low, 6), (high, 3)):
            assert cfg.input_length * period == 2592   # 43.2 minutes
            assert cfg.s * period == 192               # 3.2 minutes
        detail.append("window arithmetic 32+2*200=432 and 64+2*400=864; both "
                      "grids span 43.2-min inputs and 3.2-min outputs")


def test_a6_sparsity_enforcement(scorecard, demo_outcome):
    outcome, _ = demo_outcome
    with scorecard("A6") as detail:
        rows = []
        for app in outcome.appliances:
            indices = np.argmax(app.results["hard_median"].states, axis=1)
            rows.append((app.name, transition_count(indices),
                         transition_count(app.true_states), _spikes(indices)))
        detail.append("hard-median state sequences: " + ", ".join(
            f"{name} {got}/{truth} transitions, {spikes} spikes"
            for name, got, truth, spikes in rows) +
            " (band +-20%, spike scan exhaustive)")
        for name, got, truth, spikes in rows:
            assert abs(got - truth) <= 0.20 * truth, \
                f"{name}: {got} transitions vs truth {truth}"
            assert spikes == 0, f"{name}: {spikes} single-sample spikes"


# ---------------------------------------------------------------------------
# A7: determinism of training and checkpoint round-trips
# ---------------------------------------------------------------------------

def test_a7_determinism(scorecard, tmp_path):
    from wattsplit.synth import (ApplianceSpec, SyntheticScenario,
                                 activation_rate_for_duty)

    with scorecard("A7") as detail:
        scenario = SyntheticScenario(
            appliances=(ApplianceSpec("heater", (0.0, 150.0), 20,
                                      activation_rate_for_duty(0.3, 20)),),
            duration=400, period=6, noise_std=5.0, seed=3)
        scenario_path = tmp_path / "scenario.json"
        write_scenario(scenario, scenario_path)
        data = tmp_path / "data"
        assert cli_main(["synth", "--scenario", str(scenario_path),
                         "--out", str(data)]) == 0
        model_path = tmp_path / "heater.json"
        assert cli_main(["states", "--appliance", str(data / "heater.csv"),
                         "--state-count", "2", "--name", "heater",
                         "--out", str(model_path)]) == 0
        blobs = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert cli_main(["train", "--mains", str(data / "mains.csv"),
                             "--appliance", str(data / "heater.csv"),
                             "--state-model", str(model_path),
                             "--out", str(out), "--window-s", "4",
                             "--window-w", "3", "--conv-stack", "3x3,4x3",
                             "--hidden", "8", "--epochs", "2",
                             "--seed", "0"]) == 0
            blobs.append((out / "checkpoint.ddnn").read_bytes())
        assert blobs[0] == blobs[1], "same-seed checkpoints differ"

        net = load_checkpoint(tmp_path / "one" / "checkpoint.ddnn")
        reloaded = load_checkpoint(tmp_path / "one" / "checkpoint.ddnn")
        x = np.random.default_rng(5).normal(size=(4, net.config.window.input_length))
        a, b = net.predict(x), reloaded.predict(x)
        assert a.ratings.tobytes() == b.ratings.tobytes()
        assert a.state_probs.tobytes() == b.state_probs.tobytes()
        assert a.combined.tobytes() == b.combined.tobytes()
        detail.append(f"two seeded train runs byte-identical "
                      f"({len(blobs[0])}-byte checkpoints); round-trip forward "
                      "outputs bitwise equal")


# ---------------------------------------------------------------------------
# A8: every state row is a distribution; hard rows exactly one-hot
# ---------------------------------------------------------------------------

def test_a8_one_at_a_time(scorecard, demo_outcome):
    outcome, _ = demo_outcome
    with scorecard("A8") as detail:
        soft_rows = hard_rows = 0
        for app in outcome.appliances:
            net = app.models["hard"]
            window = net.config.window
            norm = (outcome.mains_holdout.values - app.state_model.norm_mean) \
                / app.state_model.norm_std
            pad = (0.0 - app.state_model.norm_mean) / app.state_model.norm_std
            padded = np.concatenate([np.full(window.w, pad), norm,
                                     np.full(window.w, pad)])
            starts = range(0, len(norm) - window.s + 1, window.s)
            batch = np.stack([padded[st:st + window.input_length]
                              for st in starts])
            probs = net.predict(batch).state_probs
            rows = probs.reshape(-1, probs.shape[-1])
            assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-6
            assert np.all(rows >= 0)
            soft_rows += rows.shape[0]
            for window_rows in probs:
                hard = hard_gate(window_rows)
                assert hard.dtype.kind in "iu"
                assert hard.shape == window_rows.shape[:-1]
                assert np.all((hard >= 0) & (hard < window_rows.shape[-1]))
                assert np.array_equal(hard, np.argmax(window_rows, axis=1))
                hard_rows += len(hard)
            # the merged sequences honor the same contracts
            plain_states = app.results["plain"].states
            assert np.max(np.abs(plain_states.sum(axis=1) - 1.0)) <= 1e-6
            for variant in ("hard", "hard_median"):
                seq = app.results[variant].states
                assert set(np.unique(seq)) <= {0.0, 1.0}
                assert np.array_equal(seq.sum(axis=1), np.ones(len(seq)))
        detail.append(f"{soft_rows} soft rows sum to 1 within 1e-6 and "
                      f"{hard_rows} gated rows give their argmax state index across all "
                      "evaluation windows")
