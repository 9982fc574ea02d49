"""Binary checkpoint format: bit-exact round trips and corruption errors."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from wattsplit import checkpoint
from wattsplit.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from wattsplit.model import ConvLayerSpec, DisaggNet, NetConfig
from wattsplit.windows import WindowConfig


def small_net(seed=0, tau=1.0) -> DisaggNet:
    cfg = NetConfig(
        window=WindowConfig(s=4, w=3),
        state_count=3,
        conv_stack=(ConvLayerSpec(3, 3), ConvLayerSpec(4, 3)),
        hidden=8,
        tau=tau,
        seed=seed,
    )
    return DisaggNet(cfg)


def randomize(net: DisaggNet, seed=99) -> DisaggNet:
    rng = np.random.default_rng(seed)
    for p in net.parameters():
        p.tensor.values = rng.normal(size=p.tensor.values.shape)
    return net


class TestRoundTrip:
    def test_parameters_bitwise_identical(self, tmp_path):
        net = randomize(small_net())
        path = tmp_path / "model.ddnn"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for orig, back in zip(net.parameters(), loaded.parameters()):
            assert orig.name == back.name
            assert orig.tensor.values.tobytes() == back.tensor.values.tobytes()

    def test_forward_outputs_bitwise_identical(self, tmp_path, rng):
        net = randomize(small_net())
        path = tmp_path / "model.ddnn"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        x = rng.normal(size=(3, net.config.window.input_length))
        a, b = net.predict(x), loaded.predict(x)
        assert a.ratings.tobytes() == b.ratings.tobytes()
        assert a.state_probs.tobytes() == b.state_probs.tobytes()
        assert a.combined.tobytes() == b.combined.tobytes()

    def test_config_round_trips(self, tmp_path):
        net = small_net(seed=5, tau=0.37)
        net.epochs_seen = 12
        net.dataset_tag = "synthetic/demo"
        path = tmp_path / "model.ddnn"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        assert loaded.config.tau == 0.37  # repr round trip, no float drift
        assert loaded.epochs_seen == 12
        assert loaded.dataset_tag == "synthetic/demo"

    def test_save_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ddnn", tmp_path / "b.ddnn"
        save_checkpoint(randomize(small_net()), a)
        save_checkpoint(randomize(small_net()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "model.ddnn"
        save_checkpoint(small_net(), path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC == b"DDNN"
        assert struct.unpack("<H", blob[4:6])[0] == VERSION

    def test_loaded_grads_are_clear(self, tmp_path, rng):
        net = small_net()
        x = rng.normal(size=(2, net.config.window.input_length))
        import wattsplit.autodiff as ad
        loss = ad.mse_loss(net.forward_tensors(x).combined,
                           np.zeros((2, net.config.window.s)))
        loss.backward()
        path = tmp_path / "model.ddnn"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert all(p.tensor.grad is None for p in loaded.parameters())


class TestCorruption:
    def _saved(self, tmp_path) -> bytes:
        path = tmp_path / "model.ddnn"
        save_checkpoint(randomize(small_net()), path)
        return path.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        blob = self._saved(tmp_path)
        bad = tmp_path / "bad.ddnn"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bad)

    def test_unknown_version_rejected(self, tmp_path):
        blob = self._saved(tmp_path)
        bad = tmp_path / "bad.ddnn"
        bad.write_bytes(blob[:4] + struct.pack("<H", 999) + blob[6:])
        with pytest.raises(ValueError, match="version 999"):
            load_checkpoint(bad)

    def test_truncation_names_byte_offset(self, tmp_path):
        blob = self._saved(tmp_path)
        bad = tmp_path / "bad.ddnn"
        cut = len(blob) - 17
        bad.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=r"byte offset \d+"):
            load_checkpoint(bad)

    def test_truncation_anywhere_is_detected(self, tmp_path):
        blob = self._saved(tmp_path)
        bad = tmp_path / "bad.ddnn"
        for cut in (0, 3, 5, 9, 40, len(blob) // 2, len(blob) - 1):
            bad.write_bytes(blob[:cut])
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(bad)

    def test_missing_config_field_rejected(self, tmp_path):
        net = small_net()
        path = tmp_path / "model.ddnn"
        save_checkpoint(net, path)
        blob = bytearray(path.read_bytes())
        # rename the first config key ("s") so a required field goes missing
        key_start = 4 + 2 + 4 + 4
        assert blob[key_start : key_start + 1] == b"s"
        blob[key_start] = ord("q")
        bad = tmp_path / "bad.ddnn"
        bad.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="missing fields.*'s'"):
            load_checkpoint(bad)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        net = small_net()
        path = tmp_path / "model.ddnn"
        save_checkpoint(net, path)
        blob = path.read_bytes()
        # shrink the hidden width in the stored config; stored extents for the
        # fc weights no longer match what the config implies
        old, new = b"\x01\x00\x00\x008", b"\x01\x00\x00\x004"  # "8" -> "4"
        marker = b"\x06\x00\x00\x00hidden"
        at = blob.index(marker) + len(marker)
        assert blob[at : at + 5] == old
        bad = tmp_path / "bad.ddnn"
        bad.write_bytes(blob[:at] + new + blob[at + 5 :])
        with pytest.raises(ValueError, match="does not match config shape"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("key,value", [
        ("hidden", "1000000000"),
        ("state_count", "100000000"),
        ("s", "100000000"),
        ("conv_stack", "[[1000000000, 3, 1], [4, 3, 1]]"),
    ])
    def test_oversized_config_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                         key, value):
        # a small net's parameters under a header that claims a huge net
        entries = checkpoint._config_entries
        monkeypatch.setattr(checkpoint, "_config_entries", lambda model: [
            (k, value if k == key else v) for k, v in entries(model)])
        path = tmp_path / "bad.ddnn"
        save_checkpoint(small_net(), path)

        def refuse(config):
            raise AssertionError(f"DisaggNet built for {config}")
        monkeypatch.setattr(checkpoint, "DisaggNet", refuse)
        with pytest.raises(ValueError, match=r"implies \d+ bytes.*only \d+ bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value,layer", [
        ("5", "5"),
        ("[[3, 3, 1, 1], [4, 3, 1]]", r"\[3, 3, 1, 1\]"),
    ])
    def test_malformed_conv_stack_rejected_before_allocation(self, tmp_path, monkeypatch,
                                                             value, layer):
        entries = checkpoint._config_entries
        monkeypatch.setattr(checkpoint, "_config_entries", lambda model: [
            (k, value if k == "conv_stack" else v) for k, v in entries(model)])
        path = tmp_path / "bad.ddnn"
        save_checkpoint(small_net(), path)

        def refuse(config):
            raise AssertionError(f"DisaggNet built for {config}")
        monkeypatch.setattr(checkpoint, "DisaggNet", refuse)
        with pytest.raises(ValueError, match=f"conv.*{layer}"):
            load_checkpoint(path)

    def test_garbage_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.ddnn"
        bad.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(bad)
