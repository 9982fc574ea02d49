"""State models: k-means rating discovery, labeling, JSON round-trip,
and the shipped benchmark parameter fixture."""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wattsplit import presets
from wattsplit.series import PowerSeries
from wattsplit.states import (ApplianceStateModel, cluster_states, label_states,
                              load_state_model, save_state_model)

FIXTURE = Path(__file__).parent / "fixtures" / "appliance_params.json"


def model_with(centroids, mean=200.0, std=400.0):
    return ApplianceStateModel("appliance", np.asarray(centroids, float), mean, std)


class TestApplianceStateModel:
    def test_validates_leading_zero(self):
        with pytest.raises(ValueError, match="centroids\\[0\\]"):
            model_with([10.0, 100.0])

    def test_validates_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            model_with([0.0, 100.0, 100.0])

    def test_needs_two_states(self):
        with pytest.raises(ValueError, match="at least 2"):
            model_with([0.0])

    def test_positive_std(self):
        with pytest.raises(ValueError, match="norm_std"):
            ApplianceStateModel("x", [0.0, 100.0], 0.0, 0.0)

    def test_state_count(self):
        assert model_with([0.0, 100.0, 500.0]).state_count == 3


class TestClusterStates:
    def test_recovers_jittered_centroids(self, rng):
        # readings near 0 / 100 / 500 W with +-3 W jitter
        chunks = [np.zeros(400),
                  100.0 + rng.uniform(-3, 3, 300),
                  500.0 + rng.uniform(-3, 3, 300)]
        values = rng.permutation(np.concatenate(chunks))
        model = cluster_states(PowerSeries(0, 6, values), 3)
        assert model.centroids[0] == 0.0
        assert abs(model.centroids[1] - 100.0) <= 5.0
        assert abs(model.centroids[2] - 500.0) <= 5.0

    def test_off_centroid_fixed_even_with_near_zero_noise(self, rng):
        values = np.concatenate([rng.uniform(0, 10, 500),  # below threshold
                                 150.0 + rng.uniform(-2, 2, 100)])
        model = cluster_states(PowerSeries(0, 6, values), 2)
        assert model.centroids[0] == 0.0
        assert abs(model.centroids[1] - 150.0) <= 3.0

    def test_all_below_threshold_rejected(self):
        with pytest.raises(ValueError, match="above 15"):
            cluster_states(PowerSeries(0, 6, np.full(100, 10.0)), 2)

    def test_too_few_distinct_on_readings_rejected(self):
        values = np.concatenate([np.zeros(50), np.full(50, 100.0)])
        with pytest.raises(ValueError, match="distinct"):
            cluster_states(PowerSeries(0, 6, values), 3)

    def test_deterministic_given_seed(self, rng):
        values = rng.uniform(0, 600, 2000)
        a = cluster_states(PowerSeries(0, 6, values), 4, seed=9)
        b = cluster_states(PowerSeries(0, 6, values), 4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_norm_stats_come_from_full_series(self, rng):
        values = np.concatenate([np.zeros(800), np.full(200, 500.0)])
        model = cluster_states(PowerSeries(0, 6, values), 2)
        assert model.norm_mean == pytest.approx(values.mean())
        assert model.norm_std == pytest.approx(values.std())

    def test_well_separated_clusters_beat_local_optima(self, rng):
        # lopsided sizes are exactly where a single k-means run can stall
        chunks = [np.zeros(1000), 80.0 + rng.normal(0, 1, 2000),
                  400.0 + rng.normal(0, 1, 20)]
        model = cluster_states(PowerSeries(0, 6, np.concatenate(chunks)), 3)
        assert abs(model.centroids[1] - 80.0) < 5.0
        assert abs(model.centroids[2] - 400.0) < 5.0


class TestLabelStates:
    def test_nearest_centroid(self):
        model = model_with([0.0, 100.0, 500.0])
        labels = label_states(np.array([290.0]), model)
        np.testing.assert_array_equal(labels, [[0.0, 1.0, 0.0]])

    def test_tie_breaks_to_lower_index(self):
        # 300 W is equidistant from 100 and 500: lower index wins
        model = model_with([0.0, 100.0, 500.0])
        labels = label_states(np.array([300.0]), model)
        assert labels[0].argmax() == 1

    def test_threshold_forces_off(self):
        model = model_with([0.0, 20.0])
        labels = label_states(np.array([14.0, 15.0, 15.1]), model)
        np.testing.assert_array_equal(labels.argmax(axis=1), [0, 0, 1])

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=50))
    def test_rows_always_one_hot(self, vals):
        model = model_with([0.0, 100.0, 500.0])
        labels = label_states(np.asarray(vals), model)
        assert labels.shape == (len(vals), 3)
        assert np.all((labels == 0) | (labels == 1))
        np.testing.assert_array_equal(labels.sum(axis=1), np.ones(len(vals)))

    def test_round_trip_from_exact_centroids(self):
        model = model_with([0.0, 100.0, 500.0])
        values = np.array([0.0, 100.0, 500.0, 100.0])
        labels = label_states(values, model)
        np.testing.assert_array_equal(labels.argmax(axis=1), [0, 1, 2, 1])


class TestStateModelIO:
    def test_round_trip(self, tmp_path):
        model = ApplianceStateModel("fridge", [0.0, 90.5, 180.25], 200.0, 400.0,
                                    on_threshold=15.0)
        path = tmp_path / "fridge.json"
        save_state_model(model, path)
        back = load_state_model(path)
        assert back.name == "fridge"
        assert back.state_count == 3
        np.testing.assert_array_equal(back.centroids, model.centroids)
        assert back.norm_mean == 200.0 and back.norm_std == 400.0

    def test_state_count_cross_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"name": "x", "state_count": 4, "centroids": [0.0, 100.0],
               "norm_mean": 1.0, "norm_std": 1.0}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="state_count"):
            load_state_model(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: [], "expected a JSON object, got list"),
        (lambda doc: {k: v for k, v in doc.items() if k != "state_count"},
         "missing key 'state_count'"),
        (lambda doc: dict(doc, bogus=1), "unknown key 'bogus'"),
    ])
    def test_malformed_document_names_file_and_key(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_state_model(model_with([0.0, 100.0]), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match="model.json: " + message):
            load_state_model(path)


class TestBenchmarkPresets:
    def test_fixture_matches_presets_module(self):
        doc = json.loads(FIXTURE.read_text())
        assert doc["grid_period_s"] == presets.GRID_PERIOD_S
        for ds, win in doc["windows"].items():
            cfg = presets.window_for(ds)
            assert (cfg.s, cfg.w) == (win["s"], win["w"])
