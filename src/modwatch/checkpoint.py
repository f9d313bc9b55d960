"""Model checkpoint files (magic ``MWCK``).

Layout: magic, format version, the model spec as a key-value block, the
layer count, then per layer: name, kind, kernel array, bias array.  Arrays
are little-endian float32 with explicit dims, so save -> load -> save is
byte-identical.
"""
from __future__ import annotations

import numpy as np

from . import serialize as ser
from .errors import DataError
from .model import ModelParameters, ModelSpec, layer_plan
from .tensor import LayerWeights, Tensor

MAGIC = b"MWCK"
VERSION = 1


def save_checkpoint(path, spec: ModelSpec, params: ModelParameters) -> str:
    """Write a checkpoint to ``path`` (atomically) or to an open binary
    file, and return the SHA-256 hex digest of the bytes written."""
    with ser.open_for_write(path) as raw:
        fh = ser.HashingWriter(raw)
        fh.write(MAGIC)
        ser.write_u32(fh, VERSION)
        ser.write_kv_block(fh, spec.to_kv())
        ser.write_u32(fh, len(params.layers))
        for name, lw in params.layers.items():
            ser.write_str(fh, name)
            ser.write_str(fh, lw.kind)
            ser.write_f32_array(fh, lw.kernels.data)
            ser.write_f32_array(fh, lw.bias.data)
    return fh.sha256.hexdigest()


def load_checkpoint(path) -> tuple[ModelSpec, ModelParameters]:
    fh, owned = ser.open_maybe(path, "rb")
    try:
        ser.check_magic(fh, MAGIC, "checkpoint")
        version = ser.read_u32(fh)
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        spec = ModelSpec.from_kv(ser.read_kv_block(fh))
        n_layers = ser.read_u32(fh)
        layers: dict[str, LayerWeights] = {}
        for _ in range(n_layers):
            name = ser.read_str(fh)
            kind = ser.read_str(fh)
            kernels = ser.read_f32_array(fh)
            bias = ser.read_f32_array(fh)
            layers[name] = LayerWeights(
                kind, Tensor(kernels, requires_grad=True), Tensor(bias, requires_grad=True)
            )
        ser.expect_eof(fh, "checkpoint")
    finally:
        if owned:
            fh.close()

    expected = layer_plan(spec)
    if [name for name, _, _ in expected] != list(layers):
        raise DataError("checkpoint layer names do not match the stored model spec")
    for name, kind, dims in expected:
        lw = layers[name]
        if lw.kind != kind or lw.kernels.data.shape != dims:
            raise DataError(
                f"checkpoint layer {name}: stored {lw.kind}{lw.kernels.data.shape}, "
                f"spec requires {kind}{dims}"
            )
    return spec, ModelParameters(layers)


def checkpoint_bytes(spec: ModelSpec, params: ModelParameters) -> bytes:
    return ser.to_bytes(lambda fh: save_checkpoint(fh, spec, params))
