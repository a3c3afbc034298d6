"""Tests for the typed array codec (:mod:`repro.runtime.codec`) and the
byte-accounting contract it must preserve on the simulated wire."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.runtime.codec import MAGIC, decode, encode
from repro.runtime.faults import FaultPlan
from repro.runtime.simmpi import spmd_run


class _MyInt(int):
    """Exact-type encoding must not flatten int subclasses to int."""


def _same(a, b) -> bool:
    """Structural equality that is exact about types (bool is not int,
    tuple is not list) and array-aware (dtype, shape, bytes)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return (
            a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        if set(a) != set(b):
            return False
        return all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return a == b or (a != a and b != b)
    return a == b


_dtypes = st.sampled_from(
    [np.int8, np.uint8, np.int32, np.int64, np.float32, np.float64, np.bool_]
)
_arrays = _dtypes.flatmap(
    lambda dt: hnp.arrays(
        dtype=dt,
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=hnp.from_dtype(np.dtype(dt), allow_infinity=False)
        if np.dtype(dt).kind == "f"
        else None,
    )
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_payloads = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), st.integers()), children, max_size=4),
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_payloads)
    def test_arbitrary_payloads(self, obj):
        frame = encode(obj)
        assert frame[0] == MAGIC
        assert _same(decode(frame), obj)

    @settings(max_examples=60, deadline=None)
    @given(_arrays)
    def test_arrays_preserve_dtype_shape_bytes(self, arr):
        out = decode(encode(arr))
        assert out.dtype == arr.dtype
        assert out.shape == arr.shape
        assert np.array_equal(out, arr, equal_nan=True)
        # receivers own their memory: decoded arrays must be writable
        assert out.flags.writeable

    def test_noncontiguous_array(self):
        arr = np.arange(24).reshape(4, 6)[::2, ::3]
        out = decode(encode(arr))
        assert np.array_equal(out, arr)

    def test_empty_containers_and_arrays(self):
        for obj in ([], (), {}, np.empty((0, 3)), np.empty(0, dtype=np.int32)):
            assert _same(decode(encode(obj)), obj)

    def test_int_list_fast_path_returns_plain_ints(self):
        out = decode(encode([1, -2, 3**10]))
        assert out == [1, -2, 3**10]
        assert all(type(x) is int for x in out)

    def test_migration_frame_shape(self):
        # the packed struct-of-arrays migration frame, as one message
        frame_obj = {
            "roots": np.array([3, 7], dtype=np.int64),
            "node_offsets": np.array([0, 1, 4], dtype=np.int64),
            "cells": np.arange(12, dtype=np.int64).reshape(4, 3),
            "status": np.zeros(4, dtype=np.uint8),
            "leaf_offsets": np.array([0, 1, 3], dtype=np.int64),
        }
        assert _same(decode(encode(frame_obj)), frame_obj)


class TestFallback:
    def test_big_int_falls_back(self):
        assert decode(encode(2**100)) == 2**100

    def test_object_array_falls_back(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        out = decode(encode(arr))
        assert out.dtype == object and out[0] == {"a": 1} and out[1] is None

    def test_arbitrary_object_falls_back(self):
        class_obj = ValueError("boom")
        out = decode(encode(class_obj))
        assert isinstance(out, ValueError) and out.args == ("boom",)

    def test_int_subclass_not_flattened(self):
        out = decode(encode(_MyInt(7)))
        assert type(out) is _MyInt and out == 7

    def test_legacy_plain_pickle_frame(self):
        """The pickle fallback is a leaf inside a typed frame, never a
        whole frame: a plain pickle (no MAGIC) and an empty frame are
        rejected by both decoders, not unpickled."""
        from repro.runtime.codec import decode_view

        for frame in (pickle.dumps({"owner": [1, 2, 3]}), b""):
            with pytest.raises(ValueError, match="not a typed frame"):
                decode(frame)
            with pytest.raises(ValueError, match="not a typed frame"):
                decode_view(memoryview(frame).toreadonly())


class TestCorruptFrames:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown tag"):
            decode(bytes([MAGIC, 0x7F]))

    def test_trailing_bytes(self):
        with pytest.raises(ValueError, match="trailing"):
            decode(encode(1) + b"\x00")


class TestWireAccounting:
    """The accounting rule — one record of ``len(frame)`` bytes per logical
    message — must hold exactly under fault injection: duplicates and
    reorders perturb *delivery*, never the sender-side ledger."""

    @staticmethod
    def _prog(comm):
        comm.set_phase("P1")
        comm.allgather(np.arange(50) + comm.rank, tag=11)
        comm.set_phase("P2")
        if comm.rank != 0:
            comm.send({"v_ids": np.arange(10), "v_wts": np.ones(10)}, 0, tag=20)
        else:
            for src in range(1, comm.size):
                comm.recv(src, tag=20)
        comm.set_phase("P3")
        payload = comm.bcast(
            np.arange(comm.size) if comm.rank == 0 else None, root=0, tag=30
        )
        return int(payload.sum())

    def test_exactly_once_accounting_under_faults(self):
        res_clean, clean = spmd_run(3, self._prog, return_stats=True)
        res_chaos, chaos = spmd_run(
            3,
            self._prog,
            return_stats=True,
            faults=FaultPlan(
                seed=7,
                duplicate_rate=0.5,
                reorder_rate=0.3,
                recv_timeout=0.2,
                max_retries=8,
            ),
        )
        assert res_clean == res_chaos
        assert clean.total_messages == chaos.total_messages
        assert clean.total_bytes == chaos.total_bytes
        assert clean.phase_report() == chaos.phase_report()

    def test_recorded_bytes_equal_frame_length(self):
        payload = {"e_keys": np.arange(100, dtype=np.int64), "w": 2.5}

        def prog(comm):
            comm.set_phase("P2")
            if comm.rank == 0:
                comm.send(payload, 1, tag=20)
            else:
                comm.recv(0, tag=20)

        _, stats = spmd_run(2, prog, return_stats=True)
        assert stats.total_messages == 1
        assert stats.total_bytes == len(encode(payload))


class TestZeroCopyViews:
    """The scatter-gather side of the codec: ``encode_parts`` /
    ``encode_into`` must produce the exact bytes of ``encode``, and
    ``decode_view`` must return read-only aliases of the frame buffer for
    large arrays — aliases that survive the frame's ring slot being
    pinned, and that ``materialize`` detaches into private writable
    copies."""

    @settings(max_examples=150, deadline=None)
    @given(_payloads)
    def test_encode_into_matches_encode_bitwise(self, obj):
        from repro.runtime.codec import encode_into, encode_parts, parts_nbytes

        frame = encode(obj)
        parts = encode_parts(obj)
        assert parts_nbytes(parts) == len(frame)
        buf = bytearray(len(frame) + 16)
        end = encode_into(obj, buf, offset=8)
        assert end == 8 + len(frame)
        assert bytes(buf[8:end]) == frame

    @settings(max_examples=150, deadline=None)
    @given(_payloads)
    def test_decode_view_equals_decode(self, obj):
        from repro.runtime.codec import decode_view

        frame = encode(obj)
        out = decode_view(memoryview(frame).toreadonly())
        assert _same(out, decode(frame))

    @settings(max_examples=60, deadline=None)
    @given(_payloads)
    def test_decode_view_of_legacy_pickle_frame(self, obj):
        """Frames are never persisted, so no peer ships whole-message
        pickles: whatever the payload, its plain pickle is rejected."""
        from repro.runtime.codec import decode_view

        frame = pickle.dumps(obj)
        with pytest.raises(ValueError, match="not a typed frame"):
            decode_view(memoryview(frame).toreadonly())

    def test_large_array_view_aliases_frame(self):
        from repro.runtime.codec import ZERO_COPY_MIN, decode_view

        arr = np.arange(ZERO_COPY_MIN // 8 + 64, dtype=np.int64) + 123456789
        assert arr.nbytes >= ZERO_COPY_MIN
        frame = bytearray(encode({"a": arr, "small": np.arange(3)}))
        out = decode_view(memoryview(frame).toreadonly())
        # the large array is a read-only view of the frame buffer ...
        assert not out["a"].flags.writeable
        assert out["a"].base is not None
        with pytest.raises(ValueError):
            out["a"][0] = 99
        # ... proven by aliasing: a frame-buffer poke shows through
        before = int(out["a"][0])
        frame[frame.find(arr.tobytes())] ^= 0xFF
        assert int(out["a"][0]) != before
        # the small array owns its memory and is writable
        assert out["small"].flags.writeable
        out["small"][0] = 5

    def test_views_survive_ring_slot_pinning(self):
        """A decoded view keeps its ring slot pinned: while the view is
        alive the producer cannot recycle the slot over it, and the data
        stays intact; releasing the view releases the slot."""
        from repro.runtime.codec import encode_parts, parts_nbytes
        from repro.runtime.shm import Ring

        cap = 8192
        region = memoryview(bytearray(64 + cap))
        prod, cons = Ring(region), Ring(region)
        arr = np.arange(cap // 16, dtype=np.int64)  # ~4 KiB > max_frame/2
        parts = encode_parts(arr)
        total = parts_nbytes(parts)
        assert prod.try_write(1, 1, 0, parts, total)
        got = []
        cons.poll(lambda t, j, s, p: got.append(p))
        [frame] = got
        got.clear()
        view = frame.decode()
        del frame  # only the decoded view pins the slot now
        cons.reclaim()
        assert cons.pinned == 1
        # the producer is refused while the view lives, so no overwrite
        refused = 0
        while not prod.try_write(1, 1, 1, parts, total):
            refused += 1
            cons.poll(lambda t, j, s, p: got.append(p))
            if refused > 2:
                break
        assert refused > 2, "pinned slot must refuse recycling writes"
        assert np.array_equal(view, arr)
        del view
        cons.reclaim()
        assert cons.pinned == 0
        assert prod.try_write(1, 1, 1, parts, total)

    def test_materialize_detaches_views_into_writable_copies(self):
        from repro.runtime.codec import ZERO_COPY_MIN, decode_view, materialize

        arr = np.arange(ZERO_COPY_MIN, dtype=np.float64)
        frame = bytearray(encode([arr, "tagged"]))
        out = decode_view(memoryview(frame).toreadonly())
        kept = materialize(out)
        del out
        frame[:] = b"\x00" * len(frame)  # simulate slot reuse
        assert kept[1] == "tagged"
        assert kept[0].flags.writeable
        assert np.array_equal(kept[0], arr)
        kept[0][0] = -1.0  # private memory: writable without error


class TestFrameAssembly:
    """Wire-frame reassembly from arbitrary byte fragments.

    Sockets deliver a frame stream cut anywhere — mid-header, mid-payload,
    several frames in one read.  Whatever the fragmentation, the assembler
    must hand back the exact (tag, frame-bytes) sequence, and the frames
    must decode bit-identically.
    """

    @staticmethod
    def _chunks(stream: bytes, cuts):
        bounds = sorted({c % (len(stream) + 1) for c in cuts})
        edges = [0] + bounds + [len(stream)]
        return [stream[a:b] for a, b in zip(edges, edges[1:])]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=2**31), _payloads),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.integers(min_value=0, max_value=2**20), max_size=12),
    )
    def test_split_streams_reassemble_bit_identically(self, messages, cuts):
        from repro.runtime.transport import FrameAssembler, pack_frame

        frames = [(tag, encode(obj)) for tag, obj in messages]
        stream = b"".join(pack_frame(tag, body) for tag, body in frames)

        asm = FrameAssembler()
        out = []
        for chunk in self._chunks(stream, cuts):
            out.extend(asm.feed(chunk))
        assert not asm.pending  # stream ends on a frame boundary

        assert [tag for tag, _ in out] == [tag for tag, _ in frames]
        for (_, got), (_, sent), (_, obj) in zip(out, frames, messages):
            assert got == sent  # bit-identical payload bytes
            assert _same(decode(got), obj)

    def test_truncated_stream_stays_pending(self):
        from repro.runtime.transport import FrameAssembler, pack_frame

        frame = pack_frame(3, encode([1, 2, 3]))
        asm = FrameAssembler()
        assert asm.feed(frame[:-1]) == []
        assert asm.pending
        out = asm.feed(frame[-1:])
        assert len(out) == 1 and out[0][0] == 3
        assert not asm.pending

    def test_byte_at_a_time(self):
        from repro.runtime.transport import FrameAssembler, pack_frame

        obj = {"v": np.arange(7), "tag": "x"}
        stream = pack_frame(0, encode(obj)) + pack_frame(1, encode(obj))
        asm = FrameAssembler()
        out = []
        for i in range(len(stream)):
            out.extend(asm.feed(stream[i : i + 1]))
        assert [t for t, _ in out] == [0, 1]
        assert all(_same(decode(b), obj) for _, b in out)
