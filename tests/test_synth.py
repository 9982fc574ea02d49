"""Synthetic scenario generator: composition, duty cycles, determinism."""
import json

import numpy as np
import pytest

from wattsplit.synth import (ApplianceSpec, SyntheticScenario,
                             activation_rate_for_duty, demo_scenario, generate,
                             load_scenario, save_scenario)


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
        save_scenario(sc, path)
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
        save_scenario(demo_scenario(duration=1234), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            load_scenario(path)
