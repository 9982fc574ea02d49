"""Binary checkpoint format for trained nets.

Layout (all integers little-endian):

    magic   4 bytes  b"DDNN"
    version u16      currently 1
    config  u32 entry count, then per entry:
              u32 key length, key utf-8, u32 value length, value utf-8
    params  u32 count, then per parameter:
              u32 name length, name utf-8, u32 rank, rank * u32 extents,
              prod(extents) float64 values

Float config fields are stored as repr() text, so values and parameters
both round-trip bit-exactly.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

from .model import DisaggNet, NetConfig, conv_stack_lists
from .windows import WindowConfig

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"DDNN"
VERSION = 1


def _config_entries(model: DisaggNet) -> list[tuple[str, str]]:
    cfg = model.config
    return [
        ("s", str(cfg.window.s)),
        ("w", str(cfg.window.w)),
        ("state_count", str(cfg.state_count)),
        ("conv_stack", json.dumps(conv_stack_lists(cfg.conv_stack))),
        ("hidden", str(cfg.hidden)),
        ("tau", repr(cfg.tau)),
        ("seed", str(cfg.seed)),
        ("epochs_seen", str(model.epochs_seen)),
        ("dataset_tag", model.dataset_tag),
    ]


def save_checkpoint(model: DisaggNet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        entries = _config_entries(model)
        fh.write(struct.pack("<I", len(entries)))
        for key, value in entries:
            kb, vb = key.encode("utf-8"), value.encode("utf-8")
            fh.write(struct.pack("<I", len(kb)))
            fh.write(kb)
            fh.write(struct.pack("<I", len(vb)))
            fh.write(vb)
        params = model.parameters()
        fh.write(struct.pack("<I", len(params)))
        for p in params:
            nb = p.name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            shape = p.tensor.values.shape
            fh.write(struct.pack("<I", len(shape)))
            for extent in shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(p.tensor.values, dtype="<f8"))


class _Reader:
    def __init__(self, fh):
        self.fh = fh
        self.offset = 0

    def read(self, n: int, what: str) -> bytes:
        data = self.fh.read(n)
        if len(data) != n:
            raise ValueError(
                f"truncated checkpoint: wanted {n} bytes for {what} at byte "
                f"offset {self.offset}, got {len(data)}"
            )
        self.offset += n
        return data

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.read(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.read(4, what))[0]

    def text(self, what: str) -> str:
        return self.read(self.u32(f"{what} length"), what).decode("utf-8")


def load_checkpoint(path) -> DisaggNet:
    with open(path, "rb") as fh:
        r = _Reader(fh)
        magic = r.read(4, "magic")
        if magic != MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
        version = r.u16("version")
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        fields = {}
        for _ in range(r.u32("config entry count")):
            key = r.text("config key")
            fields[key] = r.text(f"config value for {key!r}")
        required = {"s", "w", "state_count", "conv_stack", "hidden", "tau",
                    "seed", "epochs_seen", "dataset_tag"}
        missing = required - fields.keys()
        if missing:
            raise ValueError(f"checkpoint config is missing fields: {sorted(missing)}")
        config = NetConfig(
            window=WindowConfig(int(fields["s"]), int(fields["w"])),
            state_count=int(fields["state_count"]),
            conv_stack=json.loads(fields["conv_stack"]),
            hidden=int(fields["hidden"]),
            tau=float(fields["tau"]),
            seed=int(fields["seed"]),
        )
        # checked before DisaggNet allocates the parameters the header implies
        implied = 8 * config.parameter_count()
        remaining = os.fstat(fh.fileno()).st_size - r.offset
        if implied > remaining:
            raise ValueError(
                f"truncated checkpoint: its config implies {implied} bytes of "
                f"parameter values, but only {remaining} bytes follow it"
            )
        model = DisaggNet(config)
        model.epochs_seen = int(fields["epochs_seen"])
        model.dataset_tag = fields["dataset_tag"]
        expected = {p.name: p for p in model.parameters()}
        count = r.u32("parameter count")
        if count != len(expected):
            raise ValueError(
                f"checkpoint has {count} parameters, config implies {len(expected)}"
            )
        seen = set()
        for _ in range(count):
            name = r.text("parameter name")
            if name not in expected:
                raise ValueError(f"unexpected parameter {name!r} in checkpoint")
            if name in seen:
                raise ValueError(f"duplicate parameter {name!r} in checkpoint")
            seen.add(name)
            rank = r.u32(f"rank of {name!r}")
            shape = tuple(r.u32(f"extent of {name!r}") for _ in range(rank))
            param = expected[name]
            if shape != param.tensor.values.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {shape} does not "
                    f"match config shape {param.tensor.values.shape}"
                )
            n = int(np.prod(shape)) if shape else 1
            values = np.frombuffer(r.read(8 * n, f"values of {name!r}"), dtype="<f8")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"parameter {name!r} in checkpoint holds a NaN or Inf value")
            param.tensor.values = values.reshape(shape).copy()
            param.tensor.grad = None
        return model
