"""Synthetic scenario generator: composition, duty cycles, determinism."""
import json

import numpy as np
import pytest

from conftest import write_scenario
from wattsplit import series
from wattsplit.synth import (ApplianceSpec, SyntheticScenario,
                             activation_rate_for_duty, demo_scenario, generate,
                             load_scenario)


def two_state(name="a", rating=150.0, duty=0.2, mean_on=20.0):
    return ApplianceSpec(name, [0.0, rating], mean_on,
                         activation_rate_for_duty(duty, mean_on))


class TestSpecs:
    def test_centroids_validated(self):
        with pytest.raises(ValueError, match="centroids"):
            ApplianceSpec("x", [10.0, 20.0], 5.0, 0.1)
        with pytest.raises(ValueError, match="centroids"):
            ApplianceSpec("x", [0.0], 5.0, 0.1)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="activation_rate"):
            ApplianceSpec("x", [0.0, 100.0], 5.0, 0.0)

    def test_duration_beyond_memory_refused(self, monkeypatch):
        # 4 MiB of "physical memory": one appliance's trace and state indices
        # plus the mains are 3 arrays of 8-byte values
        monkeypatch.setattr(series, "physical_memory", lambda: 4 << 20)
        fits = (4 << 20) // 24
        SyntheticScenario([two_state()], duration=fits)
        for duration in (fits + 1, 100_000_000_000):
            with pytest.raises(ValueError, match=rf"duration {duration} implies 3 arrays"
                                                 rf".*\({24 * duration} bytes\)"):
                SyntheticScenario([two_state()], duration=duration)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SyntheticScenario([two_state("a"), two_state("a")], duration=100)

    def test_rate_for_duty(self):
        # duty d with mean ON dwell m: OFF dwell mean must be m (1-d) / d
        rate = activation_rate_for_duty(0.05, 50.0)
        assert 1.0 / rate == pytest.approx(950.0)


class TestGenerate:
    def test_noiseless_mains_is_exact_sum(self):
        sc = SyntheticScenario([two_state("a"), two_state("b", rating=80.0)],
                               duration=5000, unknown_load=0.0, noise_std=0.0,
                               seed=3)
        mains, traces, _ = generate(sc)
        total = traces[0].values + traces[1].values
        np.testing.assert_array_equal(mains.values, total)

    def test_unknown_load_offsets_mains(self):
        sc = SyntheticScenario([two_state()], duration=1000, unknown_load=20.0,
                               noise_std=0.0, seed=3)
        mains, traces, _ = generate(sc)
        np.testing.assert_array_equal(mains.values - traces[0].values,
                                      np.full(1000, 20.0))

    def test_traces_take_only_centroid_values(self):
        spec = ApplianceSpec("multi", [0.0, 80.0, 400.0], 10.0, 0.05)
        sc = SyntheticScenario([spec], duration=20000, seed=1)
        _, traces, states = generate(sc)
        assert set(np.unique(traces[0].values)) <= {0.0, 80.0, 400.0}
        np.testing.assert_array_equal(
            traces[0].values, np.asarray(spec.centroids)[states[0]])

    def test_duty_cycle_near_requested(self):
        spec = ApplianceSpec("a", [0.0, 150.0], 50.0,
                             activation_rate_for_duty(0.05, 50.0))
        sc = SyntheticScenario([spec], duration=100_000, seed=11)
        _, traces, _ = generate(sc)
        on_fraction = np.mean(traces[0].values > 0)
        assert abs(on_fraction - 0.05) < 0.02  # within 2 percentage points

    def test_deterministic_for_seed(self):
        sc = demo_scenario(duration=3000)
        a = generate(sc)
        b = generate(sc)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        for ta, tb in zip(a[1], b[1]):
            np.testing.assert_array_equal(ta.values, tb.values)

    def test_different_seeds_differ(self):
        base = demo_scenario(duration=3000)
        from dataclasses import replace
        other = replace(base, seed=base.seed + 1)
        assert not np.array_equal(generate(base)[0].values,
                                  generate(other)[0].values)

    def test_noise_clipped_at_zero(self):
        sc = SyntheticScenario([two_state(duty=0.01)], duration=5000,
                               unknown_load=0.0, noise_std=50.0, seed=5)
        mains, _, _ = generate(sc)
        assert np.all(mains.values >= 0.0)

    def test_states_align_with_values(self):
        sc = demo_scenario(duration=5000)
        _, traces, state_seqs = generate(sc)
        for spec, trace, states in zip(sc.appliances, traces, state_seqs):
            np.testing.assert_array_equal(
                trace.values, np.asarray(spec.centroids)[states])


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        sc = demo_scenario(duration=1234)
        path = tmp_path / "scenario.json"
        write_scenario(sc, path)
        back = load_scenario(path)
        assert back == sc

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [1], r"sc.json: expected a JSON object, got list"),
        (lambda doc: {k: v for k, v in doc.items() if k != "duration"},
         r"sc.json: missing key 'duration'"),
        (lambda doc: dict(doc, bogus=1), r"sc.json: unknown key 'bogus'"),
        (lambda doc: dict(doc, appliances=[1]),
         r"sc.json: appliances\[0\]: expected a JSON object, got int"),
        (lambda doc: dict(doc, appliances=[dict(doc["appliances"][0], bogus=1)]),
         r"sc.json: appliances\[0\]: unknown key 'bogus'"),
        (lambda doc: dict(doc, appliances=[{"name": "x"}]),
         r"sc.json: appliances\[0\]: missing key 'centroids'"),
        (lambda doc: dict(doc, appliances=5), r"sc.json: key 'appliances' must hold a list"),
    ])
    def test_malformed_document_names_file_and_key(self, tmp_path, edit, message):
        path = tmp_path / "sc.json"
        write_scenario(demo_scenario(duration=1234), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_scenario(path)

    @pytest.mark.parametrize("key,value,kind", [
        ("duration", [1], "an integer"),
        ("period", 6.0, "an integer"),
        ("unknown_load", "0", "a number"),
        ("noise_std", None, "a number"),
        ("start_time", 1.5, "an integer"),
        ("seed", True, "an integer"),
        ("appliances", {}, "a list"),
        # json reads NaN and Infinity, which are not finite numbers
        ("unknown_load", float("nan"), "a number"),
        ("noise_std", float("inf"), "a number"),
    ])
    def test_wrongly_typed_value_names_file_and_key(self, tmp_path, key, value, kind):
        path = tmp_path / "sc.json"
        write_scenario(demo_scenario(duration=1234), path)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **{key: value})))
        with pytest.raises(ValueError, match=f"sc.json: key '{key}' must hold {kind}, "):
            load_scenario(path)

    @pytest.mark.parametrize("key,value,kind", [
        ("name", 1, "a string"),
        ("centroids", [0, None], "a list of numbers"),
        ("mean_on_duration", "50", "a number"),
        ("activation_rate", [0.1], "a number"),
        ("centroids", [0.0, float("nan")], "a list of numbers"),
        ("mean_on_duration", float("inf"), "a number"),
    ])
    def test_wrongly_typed_appliance_value_names_entry_and_key(self, tmp_path, key,
                                                               value, kind):
        path = tmp_path / "sc.json"
        write_scenario(demo_scenario(duration=1234), path)
        doc = json.loads(path.read_text())
        doc["appliances"][1][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"sc.json: appliances\[1\]: key '{key}' "
                                             f"must hold {kind}, "):
            load_scenario(path)
