import json
import math
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollout_grid import wire
from rollout_grid.errors import FrameError, ProtocolError
from rollout_grid.worker import run_socket_worker


def test_close_frame_bytes():
    assert wire.encode_frame(wire.TAG_CLOSE) == bytes([0x01, 0x00, 0x00, 0x00, 0x04])


def test_frame_round_trip():
    frame = wire.encode_frame(wire.TAG_STEP, b"payload")
    assert wire.decode_frame(frame) == (wire.TAG_STEP, b"payload")


def test_truncated_after_length_prefix():
    frame = wire.encode_frame(wire.TAG_STEP, b"payload")
    with pytest.raises(FrameError):
        wire.decode_frame(frame[:4])
    with pytest.raises(FrameError):
        wire.decode_frame(frame[:-1])


def test_trailing_bytes_rejected():
    frame = wire.encode_frame(wire.TAG_STEP, b"x")
    with pytest.raises(FrameError):
        wire.decode_frame(frame + b"\x00")


def test_unknown_tag_is_protocol_error():
    bad = bytes([0x01, 0x00, 0x00, 0x00, 0x42])
    with pytest.raises(ProtocolError):
        wire.decode_frame(bad)
    with pytest.raises(ProtocolError):
        wire.encode_frame(0x42, b"")


def test_vector_round_trip_bitwise():
    vec = np.random.default_rng(0).uniform(-1e9, 1e9, size=45)
    out, end = wire.decode_vector(wire.encode_vector(vec))
    assert np.array_equal(out, vec)
    assert end == 4 + 45 * 8


def test_vector_truncation_detected():
    buf = wire.encode_vector(np.ones(4))
    with pytest.raises(FrameError):
        wire.decode_vector(buf[:-2])


def test_reset_payload_round_trip():
    payload = wire.encode_reset(2**63 + 17, {"drop_height": 1.25, "design": {"f_y": 3.0}})
    seed, options = wire.decode_reset(payload)
    assert seed == 2**63 + 17
    assert options == {"drop_height": 1.25, "design": {"f_y": 3.0}}


def test_step_result_round_trip():
    obs = np.linspace(-3, 7, 45)
    info = {"worker_step": 4, "v_x": 0.123456789012345, "flag": True, "final_observation": [1.0, 2.0]}
    payload = wire.encode_step_result(obs, -1.5, True, False, info)
    obs2, reward, terminated, truncated, info2 = wire.decode_step_result(payload)
    assert np.array_equal(obs2, obs)
    assert (reward, terminated, truncated) == (-1.5, True, False)
    assert info2 == info


def test_nonfinite_info_floats_become_null():
    payload = wire.dumps_canonical({"bad": float("nan"), "worse": float("inf"), "ok": 1.0})
    assert b"NaN" not in payload and b"Infinity" not in payload


def test_error_payload_round_trip():
    from rollout_grid.errors import ActionShapeError

    payload = wire.encode_error(ActionShapeError("wrong length"))
    code, message = wire.decode_error(payload)
    assert code == wire.ERROR_CODES[ActionShapeError]
    assert "wrong length" in message


def test_frame_reader_handles_fragmented_stream():
    frames = [wire.encode_frame(wire.TAG_STEP, bytes([i] * i)) for i in range(1, 6)]
    stream = b"".join(frames)
    reader = wire.FrameReader()
    decoded = []
    for i in range(0, len(stream), 3):  # drip-feed 3 bytes at a time
        reader.feed(stream[i : i + 3])
        while (frame := reader.next_frame()) is not None:
            decoded.append(frame)
    assert decoded == [(wire.TAG_STEP, bytes([i] * i)) for i in range(1, 6)]
    assert reader.pending_bytes == 0


@given(
    tag=st.sampled_from(sorted(wire.KNOWN_TAGS)),
    payload=st.binary(max_size=512),
)
@settings(max_examples=300, deadline=None)
def test_frame_round_trip_property(tag, payload):
    assert wire.decode_frame(wire.encode_frame(tag, payload)) == (tag, payload)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=64))
@settings(max_examples=200, deadline=None)
def test_vector_round_trip_property(values):
    vec = np.asarray(values, dtype=np.float64)
    out, _ = wire.decode_vector(wire.encode_vector(vec))
    assert np.array_equal(out, vec)


frame_streams = st.lists(
    st.tuples(st.sampled_from(sorted(wire.KNOWN_TAGS)), st.binary(max_size=300)), max_size=12
)


@given(frames=frame_streams, data=st.data())
@settings(max_examples=300, deadline=None)
def test_frame_reader_any_fragmentation_property(frames, data):
    stream = b"".join(wire.encode_frame(tag, payload) for tag, payload in frames)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=20)))
    reader = wire.FrameReader()
    decoded = []
    for start, end in zip([0] + cuts, cuts + [len(stream)]):
        reader.feed(stream[start:end])
        while (frame := reader.next_frame()) is not None:
            decoded.append(frame)
    assert decoded == frames
    assert reader.pending_bytes == 0


def test_frame_reader_rejects_oversized_length_at_once():
    at_cap = wire.FrameReader()
    at_cap.feed(wire.MAX_FRAME_LENGTH.to_bytes(4, "little") + bytes([wire.TAG_STEP]))
    assert at_cap.next_frame() is None  # a legal length: wait for the rest
    reader = wire.FrameReader()
    reader.feed(b"\xf0\xff\xff\xff" + bytes([wire.TAG_STEPRES]))
    with pytest.raises(FrameError, match="exceeds"):
        reader.next_frame()


def test_worker_read_loop_rejects_corrupt_length_prefix():
    driver_end, worker_end = socket.socketpair()
    outcome = []

    def serve():
        try:
            outcome.append(run_socket_worker(worker_end.detach()))
        except Exception as exc:
            outcome.append(exc)

    with driver_end:
        driver_end.sendall(b"\xf0\xff\xff\xff" + bytes([wire.TAG_STEP]))
        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        thread.join(timeout=2.0)
        assert not thread.is_alive(), "worker kept waiting for a 4 GiB frame"
    assert isinstance(outcome[0], FrameError)


def _reference_sanitize(value):
    # dumps_canonical's sanitizer before its exact-type fast path.
    if isinstance(value, dict):
        return {str(k): _reference_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_reference_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _reference_dumps(obj) -> bytes:
    return json.dumps(_reference_sanitize(obj), sort_keys=True, separators=(",", ":")).encode()


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
wire_scalars = st.one_of(
    st.floats(width=64),
    special_floats,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.floats(width=64).map(np.float64),
    special_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
    st.booleans().map(np.bool_),
)
wire_values = st.recursive(
    wire_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
        st.lists(st.one_of(st.floats(width=64), special_floats), max_size=6).map(np.array),
    ),
    max_leaves=30,
)
wire_maps = st.dictionaries(
    st.one_of(st.text(max_size=6), st.integers(-5, 5)), wire_values, max_size=6
)


@given(info=wire_maps, final=st.lists(st.one_of(st.floats(width=64), special_floats), max_size=45))
@settings(max_examples=400, deadline=None)
def test_dumps_canonical_bytes_match_reference(info, final):
    assert wire.dumps_canonical(info) == _reference_dumps(info)
    info = dict(info, final_observation=final, worker_step=2**53 + 1)
    assert wire.dumps_canonical(info) == _reference_dumps(info)
