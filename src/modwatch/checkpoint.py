"""Model checkpoint files (magic ``MWCK``).

Layout: magic, format version, the model spec as a key-value block, the
layer count, then per layer: name, kind, kernel array, bias array.  Arrays
are little-endian float32 with explicit dims, so save -> load -> save is
byte-identical.
"""
from __future__ import annotations

from . import serialize as ser
from .errors import ConfigError, DataError, ShapeError
from .model import ModelParameters, ModelSpec, layer_plan, parameter_count

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
    """Read a checkpoint straight into the parameter buffer its spec lays
    out.  Every way the file can disagree with itself, a spec included,
    is a ``DataError``; the payload size is checked before the buffer is
    allocated."""
    fh, owned = ser.open_maybe(path, "rb")
    try:
        ser.check_magic(fh, MAGIC, "checkpoint")
        version = ser.read_u32(fh)
        if version != VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        try:
            spec = ModelSpec.from_kv(ser.read_kv_block(fh))
        except (ConfigError, ShapeError, ValueError) as exc:
            raise DataError(f"checkpoint model spec is invalid: {exc}") from exc
        plan = layer_plan(spec)
        n_layers = ser.read_u32(fh)
        if n_layers != len(plan):
            raise DataError(f"checkpoint holds {n_layers} layers, its model spec {len(plan)}")
        ser.check_left(fh, 4 * parameter_count(plan), "checkpoint parameters")
        params = ModelParameters(plan)
        for name, kind, dims in plan:
            lw = params.layers[name]
            stored = ser.read_str(fh), ser.read_str(fh), ser.read_dims(fh)
            if stored != (name, kind, dims):
                raise DataError(f"checkpoint layer {stored}, model spec {(name, kind, dims)}")
            ser.read_f32_into(fh, lw.kernels.data, f"{name} kernels")
            if ser.read_dims(fh) != (dims[0],):
                raise DataError(f"checkpoint layer {name}: bias dims differ from its kernels'")
            ser.read_f32_into(fh, lw.bias.data, f"{name} bias")
        ser.expect_eof(fh, "checkpoint")
    finally:
        if owned:
            fh.close()
    return spec, params


def checkpoint_bytes(spec: ModelSpec, params: ModelParameters) -> bytes:
    return ser.to_bytes(lambda fh: save_checkpoint(fh, spec, params))
