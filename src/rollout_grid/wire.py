"""Length-prefixed binary frames between driver and workers.

Frame layout: u32 little-endian length (= 1 + payload bytes), one tag byte,
payload. Real vectors serialize as a u32 LE count followed by f64 LE values,
so observations and rewards cross the wire bit-exactly. Maps serialize as
canonical JSON (sorted keys, compact separators); non-finite floats inside a
map become null rather than producing non-standard JSON.

Requests:  INIT (config JSON), RESET (u64 LE seed + options JSON),
           STEP (action vector), CLOSE (empty).
Replies:   READY (worker metadata JSON), RESETRES (obs vector),
           STEPRES (obs vector, f64 reward, u8 terminated, u8 truncated,
           info JSON), ERR (u32 LE code + UTF-8 message).
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import errors
from .errors import FrameError, ProtocolError

TAG_INIT = 0x01
TAG_RESET = 0x02
TAG_STEP = 0x03
TAG_CLOSE = 0x04
TAG_READY = 0x81
TAG_RESETRES = 0x82
TAG_STEPRES = 0x83
TAG_ERR = 0xFF

TAG_NAMES = {TAG_INIT: "INIT", TAG_RESET: "RESET", TAG_STEP: "STEP", TAG_CLOSE: "CLOSE",
             TAG_READY: "READY", TAG_RESETRES: "RESETRES", TAG_STEPRES: "STEPRES", TAG_ERR: "ERR"}
KNOWN_TAGS = frozenset(TAG_NAMES)

# Largest declared length (tag byte + payload) of a frame. Real frames are a
# few KB; a larger prefix means a corrupt stream, not a frame to wait for.
MAX_FRAME_LENGTH = 2**26

# Stable error codes carried in ERR frames.
ERROR_CODES = {
    errors.ActionShapeError: 2,
    errors.ActionValueError: 3,
    errors.NumericalError: 4,
    errors.ResetError: 5,
    errors.ProtocolError: 6,
    errors.EpisodeOver: 7,
    errors.InvalidParamsError: 8,
    errors.DivergentDesignError: 9,
}
GENERIC_ERROR_CODE = 1


def _sanitize(value):
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else None
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


# Same settings as json.dumps(..., sort_keys=True, separators=(",", ":")),
# built once instead of on every call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps_canonical(obj: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, compact, no NaN/Infinity tokens."""
    return _CANONICAL_ENCODER.encode(_sanitize(obj)).encode()


def encode_frame(tag: int, payload: bytes = b"") -> bytes:
    if tag not in KNOWN_TAGS:
        raise ProtocolError(f"unknown tag 0x{tag:02X}")
    if 1 + len(payload) > MAX_FRAME_LENGTH:
        raise FrameError(f"payload of {len(payload)} bytes exceeds the frame limit")
    return struct.pack("<I", 1 + len(payload)) + bytes([tag]) + payload


def decode_frame(buf: bytes) -> tuple[int, bytes]:
    """Decode one complete frame; the buffer must hold exactly one frame."""
    if len(buf) < 5:
        raise FrameError(f"buffer of {len(buf)} bytes is shorter than any frame")
    (length,) = struct.unpack_from("<I", buf, 0)
    if length < 1:
        raise FrameError("declared length misses the tag byte")
    if len(buf) != 4 + length:
        raise FrameError(f"declared {4 + length} bytes, buffer holds {len(buf)}")
    tag = buf[4]
    if tag not in KNOWN_TAGS:
        raise ProtocolError(f"unknown tag 0x{tag:02X}")
    return tag, buf[5:]


def encode_vector(vec) -> bytes:
    arr = np.ascontiguousarray(vec, dtype="<f8")
    return struct.pack("<I", arr.shape[0]) + arr.tobytes()


def decode_vector(payload: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Read one vector starting at ``offset``; returns (vector, next offset)."""
    if len(payload) - offset < 4:
        raise FrameError("vector count truncated")
    (count,) = struct.unpack_from("<I", payload, offset)
    end = offset + 4 + 8 * count
    if len(payload) < end:
        raise FrameError(f"vector of {count} values truncated")
    vec = np.frombuffer(payload, dtype="<f8", count=count, offset=offset + 4).copy()
    return vec, end


def encode_reset(seed: int, options: dict | None = None) -> bytes:
    return struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF) + dumps_canonical(options or {})


def decode_reset(payload: bytes) -> tuple[int, dict]:
    if len(payload) < 8:
        raise FrameError("reset payload truncated")
    (seed,) = struct.unpack_from("<Q", payload, 0)
    return seed, json.loads(payload[8:].decode())


def encode_step_result(obs, reward: float, terminated: bool, truncated: bool, info: dict) -> bytes:
    return (
        encode_vector(obs)
        + struct.pack("<dBB", float(reward), int(terminated), int(truncated))
        + dumps_canonical(info)
    )


def decode_step_result(payload: bytes) -> tuple[np.ndarray, float, bool, bool, dict]:
    obs, offset = decode_vector(payload)
    if len(payload) - offset < 10:
        raise FrameError("step result truncated")
    reward, terminated, truncated = struct.unpack_from("<dBB", payload, offset)
    info = json.loads(payload[offset + 10 :].decode())
    return obs, reward, bool(terminated), bool(truncated), info


def encode_error(exc: BaseException) -> bytes:
    code = ERROR_CODES.get(type(exc), GENERIC_ERROR_CODE)
    return struct.pack("<I", code) + str(exc).encode("utf-8")


def decode_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < 4:
        raise FrameError("error payload truncated")
    (code,) = struct.unpack_from("<I", payload, 0)
    return code, payload[4:].decode("utf-8", errors="replace")


class FrameReader:
    """Incremental frame extraction from a byte stream.

    A declared length above ``MAX_FRAME_LENGTH`` raises ``FrameError`` as soon
    as its prefix is buffered, instead of waiting for bytes that never come.
    """

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def next_frame(self) -> tuple[int, bytes] | None:
        """Pop one frame if a complete one is buffered."""
        buf = self._buf
        if len(buf) < 4:
            return None
        (length,) = struct.unpack_from("<I", buf, 0)
        if length > MAX_FRAME_LENGTH:
            raise FrameError(f"declared frame length {length} exceeds {MAX_FRAME_LENGTH}")
        total = 4 + length
        if len(buf) < total:
            return None
        frame = bytes(buf[:total])
        del buf[:total]
        return decode_frame(frame)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
