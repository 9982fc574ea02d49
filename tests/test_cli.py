"""Command line interface: end-to-end subcommand flow and error paths."""
from __future__ import annotations

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from conftest import write_scenario
from wattsplit import series
from wattsplit.checkpoint import load_checkpoint, save_checkpoint
from wattsplit.cli import TRAIN_DEFAULTS, main
from wattsplit.metrics import METRIC_HEADER
from wattsplit.model import NetConfig
from wattsplit.windows import WindowConfig
from wattsplit.series import load_csv
from wattsplit.states import load_state_model
from wattsplit.synth import (
    ApplianceSpec,
    SyntheticScenario,
    activation_rate_for_duty,
)

TRAIN_FLAGS = ["--window-s", "4", "--window-w", "3", "--conv-stack", "3x3,4x3",
               "--hidden", "8", "--epochs", "1", "--seed", "0"]


def small_scenario(noise_std=5.0, unknown_load=10.0, seed=3) -> SyntheticScenario:
    return SyntheticScenario(
        appliances=(
            ApplianceSpec("heater", (0.0, 150.0), mean_on_duration=20,
                          activation_rate=activation_rate_for_duty(0.3, 20)),
            ApplianceSpec("pump", (0.0, 80.0, 400.0), mean_on_duration=15,
                          activation_rate=activation_rate_for_duty(0.2, 15)),
        ),
        duration=400,
        period=6,
        unknown_load=unknown_load,
        noise_std=noise_std,
        seed=seed,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full synth -> states -> train -> disaggregate -> evaluate run."""
    root = tmp_path_factory.mktemp("cli")
    scenario_path = root / "scenario.json"
    write_scenario(small_scenario(), scenario_path)

    data = root / "data"
    assert main(["synth", "--scenario", str(scenario_path), "--out", str(data)]) == 0

    model_path = root / "heater_model.json"
    assert main(["states", "--appliance", str(data / "heater.csv"),
                 "--state-count", "2", "--name", "heater",
                 "--out", str(model_path)]) == 0

    run = root / "run"
    assert main(["train", "--mains", str(data / "mains.csv"),
                 "--appliance", str(data / "heater.csv"),
                 "--state-model", str(model_path),
                 "--out", str(run), *TRAIN_FLAGS]) == 0

    est = root / "est"
    assert main(["disaggregate", "--checkpoint", str(run / "checkpoint.ddnn"),
                 "--mains", str(data / "mains.csv"),
                 "--state-model", str(model_path),
                 "--variant", "hard-median", "--out", str(est)]) == 0

    metrics_path = root / "metrics.csv"
    assert main(["evaluate", "--estimate", str(est / "estimate.csv"),
                 "--truth", str(data / "heater.csv"),
                 "--name", "heater", "--out", str(metrics_path)]) == 0
    return root


class TestSynth:
    def test_writes_all_artifacts(self, workspace):
        data = workspace / "data"
        for name in ("mains.csv", "heater.csv", "heater.states",
                     "pump.csv", "pump.states", "effective_config.json"):
            assert (data / name).exists(), name

    def test_outputs_load_as_series(self, workspace):
        mains = load_csv(workspace / "data" / "mains.csv", 6)
        assert len(mains) == 400
        assert mains.period == 6
        assert not mains.has_missing()

    def test_states_file_aligns_with_trace(self, workspace):
        lines = (workspace / "data" / "heater.states").read_text().strip().splitlines()
        assert len(lines) == 400
        t0, s0 = lines[0].split(",")
        assert int(t0) == 0
        assert int(s0) in (0, 1)

    def test_same_seed_is_byte_identical(self, tmp_path):
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(), scenario_path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["synth", "--scenario", str(scenario_path),
                         "--out", str(out)]) == 0
            outs.append((out / "mains.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_flag_overrides_scenario(self, tmp_path):
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(seed=3), scenario_path)
        base, other = tmp_path / "base", tmp_path / "other"
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(base)]) == 0
        assert main(["synth", "--scenario", str(scenario_path), "--seed", "5",
                     "--out", str(other)]) == 0
        assert (base / "mains.csv").read_bytes() != (other / "mains.csv").read_bytes()
        echo = json.loads((other / "effective_config.json").read_text())
        assert echo["seed"] == 5
        # the scenario file itself is untouched
        assert json.loads(scenario_path.read_text())["seed"] == 3

    def test_noiseless_mains_is_exact_sum(self, tmp_path):
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(noise_std=0.0, unknown_load=0.0), scenario_path)
        out = tmp_path / "out"
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(out)]) == 0
        mains = load_csv(out / "mains.csv", 6).values
        total = sum(load_csv(out / f"{n}.csv", 6).values for n in ("heater", "pump"))
        np.testing.assert_allclose(mains, total, atol=1e-6)  # 6-decimal CSV


    def test_unknown_scenario_key_is_reported(self, tmp_path, capsys):
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(), scenario_path)
        doc = json.loads(scenario_path.read_text())
        doc["appliances"][0]["bogus"] = 1
        scenario_path.write_text(json.dumps(doc))
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key 'bogus'" in err


    def test_wrongly_typed_scenario_value_is_reported(self, tmp_path, capsys):
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(), scenario_path)
        doc = json.loads(scenario_path.read_text())
        scenario_path.write_text(json.dumps(dict(doc, duration=[1])))
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "key 'duration' must hold an integer" in err

    def test_duration_beyond_memory_is_reported(self, tmp_path, capsys, monkeypatch):
        # a few MiB of "physical memory", so that a failed check costs only MiBs
        monkeypatch.setattr(series, "physical_memory", lambda: 4 << 20)
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(), scenario_path)
        doc = json.loads(scenario_path.read_text())
        scenario_path.write_text(json.dumps(dict(doc, duration=200_000)))  # 5 arrays
        out = tmp_path / "out"
        assert main(["synth", "--scenario", str(scenario_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "duration 200000" in err
        assert f"({5 * 8 * 200_000} bytes)" in err
        assert not out.exists()


class TestStates:
    def test_model_recovers_ratings(self, workspace):
        model = load_state_model(workspace / "heater_model.json")
        assert model.name == "heater"
        assert model.state_count == 2
        assert model.centroids[0] == 0.0
        assert model.centroids[1] == pytest.approx(150.0, abs=1.0)

    def test_prints_centroids(self, workspace, capsys):
        assert main(["states", "--appliance", str(workspace / "data" / "heater.csv"),
                     "--state-count", "2", "--name", "heater",
                     "--out", str(workspace / "again.json")]) == 0
        out = capsys.readouterr().out
        assert "heater" in out and "150" in out


class TestTrain:
    def test_writes_all_artifacts(self, workspace):
        run = workspace / "run"
        for name in ("checkpoint.ddnn", "train_report.csv", "effective_config.json"):
            assert (run / name).exists(), name

    def test_checkpoint_loads(self, workspace):
        from wattsplit.checkpoint import load_checkpoint
        net = load_checkpoint(workspace / "run" / "checkpoint.ddnn")
        assert net.config.window.s == 4
        assert net.config.hidden == 8
        assert net.epochs_seen == 1
        assert net.dataset_tag == "mains.csv"

    def test_report_has_epoch_rows(self, workspace):
        lines = (workspace / "run" / "train_report.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss_total,loss_output,loss_state"
        assert len(lines) == 2  # one epoch

    def test_echo_records_merged_settings(self, workspace):
        echo = json.loads((workspace / "run" / "effective_config.json").read_text())
        assert echo["command"] == "train"
        assert echo["window_s"] == 4
        assert echo["hidden"] == 8
        assert echo["conv_stack"] == [[3, 3, 1], [4, 3, 1]]
        # settings that no flag set echo their defaults
        assert {k: echo[k] for k in ("period", "stride", "batch_size", "learning_rate",
                                     "lambda_power", "variant", "shuffle", "tau")} == {
            "period": 6, "stride": None, "batch_size": 16, "learning_rate": 1e-3,
            "lambda_power": 0.0, "variant": "plain", "shuffle": True, "tau": 1.0}

    def test_defaults_are_the_paper_size_net(self):
        assert {k: TRAIN_DEFAULTS[k] for k in ("window_s", "window_w", "hidden",
                                               "conv_stack", "epochs", "seed")} == {
            "window_s": 32, "window_w": 200, "hidden": 1024,
            "conv_stack": [[30, 10, 1], [30, 8, 1], [40, 6, 1], [50, 5, 1], [50, 5, 1]],
            "epochs": 10, "seed": 0}
        assert "median_window" not in TRAIN_DEFAULTS  # only disaggregate reads it

    def test_same_seed_checkpoints_are_byte_identical(self, workspace, tmp_path):
        data = workspace / "data"
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["train", "--mains", str(data / "mains.csv"),
                         "--appliance", str(data / "heater.csv"),
                         "--state-model", str(workspace / "heater_model.json"),
                         "--out", str(out), *TRAIN_FLAGS]) == 0
            blobs.append((out / "checkpoint.ddnn").read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_file_supplies_settings(self, workspace, tmp_path):
        data = workspace / "data"
        cfg = {"window_s": 4, "window_w": 3, "conv_stack": [[3, 3, 1], [4, 3, 1]],
               "hidden": 8, "epochs": 2, "tau": 1, "stride": None,
               "mains": str(data / "mains.csv"),
               "appliance": str(data / "heater.csv"),
               "state_model": str(workspace / "heater_model.json")}
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        # the explicit flag beats the config file value
        assert main(["train", "--config", str(cfg_path), "--epochs", "1",
                     "--out", str(out)]) == 0
        echo = json.loads((out / "effective_config.json").read_text())
        assert echo["epochs"] == 1
        assert echo["window_s"] == 4
        # an int is accepted where a float is wanted, and becomes that float
        assert echo["tau"] == 1.0 and isinstance(echo["tau"], float)
        lines = (out / "train_report.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_echo_reused_as_config_writes_the_same_checkpoint(self, workspace, tmp_path):
        run = workspace / "run"
        out = tmp_path / "again"
        assert main(["train", "--config", str(run / "effective_config.json"),
                     "--out", str(out)]) == 0
        assert (out / "checkpoint.ddnn").read_bytes() == (
            run / "checkpoint.ddnn").read_bytes()

    def test_config_of_another_command_is_reported(self, workspace, tmp_path, capsys):
        echo = workspace / "est" / "effective_config.json"
        assert main(["train", "--config", str(echo), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "'command'" in err and "'disaggregate'" in err

    def test_echo_records_the_environment(self, workspace):
        for echo_path in (workspace / "run" / "effective_config.json",
                          workspace / "est" / "effective_config.json"):
            env = json.loads(echo_path.read_text())["environment"]
            assert env["numpy"] == np.__version__
            assert env["blas_threads"] is None or env["blas_threads"] >= 1
            assert isinstance(env["subnetworks_on_two_threads"], bool)
        synth_echo = json.loads((workspace / "data" / "effective_config.json").read_text())
        assert "environment" not in synth_echo

    def test_missing_input_is_reported(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "x"), *TRAIN_FLAGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--mains" in err

    def test_unknown_config_key_is_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learnig_rate": 0.1}))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err and "learnig_rate" in err


    @pytest.mark.parametrize("key,value", [
        ("epochs", "2"),
        ("epochs", True),
        ("hidden", 8.5),
        ("learning_rate", "0.1"),
        ("shuffle", 1),
        ("conv_stack", [[16.7, 9, 1]]),
        ("conv_stack", [16, 9]),
        ("learning_rate", float("nan")),  # json reads NaN and Infinity
        ("tau", float("inf")),
    ])
    def test_wrongly_typed_config_value_is_reported(self, workspace, tmp_path,
                                                    capsys, key, value):
        data = workspace / "data"
        cfg = {"window_s": 4, "window_w": 3, "conv_stack": [[3, 3, 1], [4, 3, 1]],
               "hidden": 8, "epochs": 1,
               "mains": str(data / "mains.csv"),
               "appliance": str(data / "heater.csv"),
               "state_model": str(workspace / "heater_model.json"), key: value}
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err
        assert not (out / "checkpoint.ddnn").exists()


    def test_net_beyond_memory_is_reported_before_reading_inputs(
            self, workspace, tmp_path, capsys, monkeypatch):
        # a few MiB of "physical memory", so that a failed check costs only MiBs
        monkeypatch.setattr(series, "physical_memory", lambda: 4 << 20)
        net = dict(window=WindowConfig(4, 8), state_count=2, conv_stack=[[4, 5]])
        hidden = 1
        while 8 * NetConfig(**net, hidden=hidden).parameter_count() <= 4 << 20:
            hidden *= 2  # the first doubling past the bound: at most 8 MiB
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps({"hidden": hidden}))
        missing = str(tmp_path / "missing.csv")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--mains", missing,
                     "--appliance", missing,
                     "--state-model", str(workspace / "heater_model.json"),
                     "--conv-stack", "4x5", "--window-s", "4", "--window-w", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"hidden {hidden} has" in err
        assert "bytes), more than the machine's 4194304 bytes" in err
        assert not out.exists()

    @pytest.mark.parametrize("stack,bad", [("16x", "16x"), ("16", "16"),
                                           ("16x9,0x7", "0x7"), ("16x9,16x7@", "16x7@")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_conv_stack_is_reported_before_reading_inputs(
            self, tmp_path, capsys, stack, bad, source):
        # the input paths do not exist: an error about them would mean they
        # were opened before the stack was parsed
        missing = str(tmp_path / "missing.csv")
        argv = ["train", "--mains", missing, "--appliance", missing,
                "--state-model", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += ["--conv-stack", stack]
        else:
            cfg_path = tmp_path / "train.json"
            cfg_path.write_text(json.dumps({"conv_stack": stack}))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --conv-stack") and repr(bad) in err


class TestDisaggregate:
    def test_writes_estimate_and_states(self, workspace):
        est = workspace / "est"
        estimate = load_csv(est / "estimate.csv", 6)
        assert len(estimate) == 400
        assert np.all(estimate.values >= 0)
        lines = (est / "states.csv").read_text().strip().splitlines()
        assert len(lines) == 400
        assert all(line.split(",")[1] in ("0", "1") for line in lines)

    def test_echo_records_variant(self, workspace):
        echo = json.loads((workspace / "est" / "effective_config.json").read_text())
        assert echo["command"] == "disaggregate"
        assert echo["variant"] == "hard-median"

    def test_state_model_that_is_not_an_object_is_reported(self, workspace, tmp_path,
                                                          capsys):
        bad = tmp_path / "states.json"
        bad.write_text("[]")
        assert main(["disaggregate",
                     "--checkpoint", str(workspace / "run" / "checkpoint.ddnn"),
                     "--mains", str(workspace / "data" / "mains.csv"),
                     "--state-model", str(bad), "--out", str(tmp_path / "est")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "states.json: expected a JSON object" in err

    def test_wrongly_typed_state_model_value_is_reported(self, workspace, tmp_path,
                                                         capsys):
        doc = json.loads((workspace / "heater_model.json").read_text())
        bad = tmp_path / "states.json"
        bad.write_text(json.dumps(dict(doc, norm_mean=[1])))
        assert main(["disaggregate",
                     "--checkpoint", str(workspace / "run" / "checkpoint.ddnn"),
                     "--mains", str(workspace / "data" / "mains.csv"),
                     "--state-model", str(bad), "--out", str(tmp_path / "est")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "key 'norm_mean' must hold a number" in err

    def test_non_finite_state_model_value_is_reported(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "heater_model.json").read_text())
        bad = tmp_path / "states.json"
        bad.write_text(json.dumps(dict(doc, norm_mean=float("nan"))))
        assert main(["disaggregate",
                     "--checkpoint", str(workspace / "run" / "checkpoint.ddnn"),
                     "--mains", str(workspace / "data" / "mains.csv"),
                     "--state-model", str(bad), "--out", str(tmp_path / "est")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "key 'norm_mean' must hold a number" in err
        assert not (tmp_path / "est" / "estimate.csv").exists()

    def test_non_finite_checkpoint_is_reported(self, workspace, tmp_path, capsys):
        net = load_checkpoint(workspace / "run" / "checkpoint.ddnn")
        net.parameters()[0].tensor.values[0, 0, 0] = np.nan
        bad = tmp_path / "bad.ddnn"
        save_checkpoint(net, bad)
        assert main(["disaggregate", "--checkpoint", str(bad),
                     "--mains", str(workspace / "data" / "mains.csv"),
                     "--state-model", str(workspace / "heater_model.json"),
                     "--out", str(tmp_path / "est")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parameter 'power/conv0/kernels'")

    def test_unknown_variant_is_a_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["disaggregate", "--checkpoint", "x", "--mains", "y",
                  "--state-model", "z", "--variant", "soft", "--out", "o"])
        assert exc.value.code == 2

    def test_config_is_a_usage_error(self, workspace, tmp_path):
        # disaggregate reads no settings file, so it does not accept one
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"stride": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["disaggregate", "--config", str(cfg_path),
                  "--checkpoint", str(workspace / "run" / "checkpoint.ddnn"),
                  "--mains", str(workspace / "data" / "mains.csv"),
                  "--state-model", str(workspace / "heater_model.json"),
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_stride_beyond_window_is_reported(self, workspace, tmp_path, capsys):
        assert main(["disaggregate",
                     "--checkpoint", str(workspace / "run" / "checkpoint.ddnn"),
                     "--mains", str(workspace / "data" / "mains.csv"),
                     "--state-model", str(workspace / "heater_model.json"),
                     "--stride", "5000", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stride") and "s=4" in err

    def test_missing_checkpoint_is_reported(self, workspace, tmp_path, capsys):
        assert main(["disaggregate", "--checkpoint", str(tmp_path / "nope.ddnn"),
                     "--mains", str(workspace / "data" / "mains.csv"),
                     "--state-model", str(workspace / "heater_model.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEvaluate:
    def test_prints_metric_table(self, workspace, capsys):
        assert main(["evaluate",
                     "--estimate", str(workspace / "est" / "estimate.csv"),
                     "--truth", str(workspace / "data" / "heater.csv"),
                     "--name", "heater"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == METRIC_HEADER
        assert out[1].startswith("heater,")

    def test_metric_csv_written(self, workspace):
        lines = (workspace / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == METRIC_HEADER
        assert lines[1].startswith("heater,")

    def test_misaligned_series_reported(self, workspace, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("0,10.000000\n6,20.000000\n")
        assert main(["evaluate", "--estimate", str(short),
                     "--truth", str(workspace / "data" / "heater.csv")]) == 1
        assert "misaligned" in capsys.readouterr().err


def readme_commands() -> list[list[str]]:
    """argv of each command in the sh block of README's "Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            commands.append(shlex.split(line))
    return commands


class TestReadme:
    def test_command_line_walkthrough_runs(self, tmp_path, monkeypatch):
        commands = readme_commands()
        assert [c[:2] for c in commands] == [
            ["wattsplit", "synth"], ["wattsplit", "states"], ["wattsplit", "train"],
            ["wattsplit", "disaggregate"], ["wattsplit", "evaluate"]]
        write_scenario(small_scenario(), tmp_path / "scenario.json")
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            argv = argv[1:]
            if argv[0] == "train":
                # a tiny net; argparse keeps the last --epochs
                argv += ["--conv-stack", "4x5", "--hidden", "8", "--window-w", "8",
                         "--epochs", "1"]
            assert main(argv) == 0, argv


class TestParser:
    def test_one_parser_parses_each_call_afresh(self, tmp_path):
        from wattsplit.cli import build_parser
        assert build_parser() is build_parser()
        scenario_path = tmp_path / "sc.json"
        write_scenario(small_scenario(seed=3), scenario_path)
        seeded, unseeded = tmp_path / "seeded", tmp_path / "unseeded"
        assert main(["synth", "--scenario", str(scenario_path), "--seed", "5",
                     "--out", str(seeded)]) == 0
        assert main(["synth", "--scenario", str(scenario_path),
                     "--out", str(unseeded)]) == 0
        # the second call saw no --seed, so the scenario's own seed held
        assert json.loads((seeded / "effective_config.json").read_text())["seed"] == 5
        assert json.loads((unseeded / "effective_config.json").read_text())["seed"] == 3

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point_is_registered(self):
        # The declaration in pyproject.toml is checked directly, so the test
        # also holds when the package is imported from src/ without an install.
        from importlib.metadata import (EntryPoint, PackageNotFoundError,
                                        distribution)
        from pathlib import Path
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts.get("wattsplit") == "wattsplit.cli:main"
        ep = EntryPoint(name="wattsplit", value=scripts["wattsplit"],
                        group="console_scripts")
        assert ep.load() is main
        try:
            installed = distribution("wattsplit").entry_points
        except PackageNotFoundError:
            return
        declared = installed.select(group="console_scripts", name="wattsplit")
        assert [e.value for e in declared] == ["wattsplit.cli:main"]
