"""The wire vocabulary between the serving front door and shard workers.

Everything crossing a shard channel is plain picklable data: frozen
dataclasses of scalars, :class:`~repro.workload.query.Query` values and
numpy column payloads.  Result records travel as ``{field: ndarray}``
dicts (:func:`dataset_to_payload`) rather than :class:`Dataset` objects
so the protocol owns the representation — the arrays round-trip
bit-exactly through pickle, which is what keeps the sharded answer
bit-equal to the single-process one.

Each message travels as one length-prefixed pickle frame, the layout
:class:`multiprocessing.connection.Connection` reads and writes, so a
worker's end of the channel is a plain blocking ``Connection`` while the
front door speaks the same frames through asyncio
(:func:`encode_frame`, :class:`FrameProtocol`).
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import Dataset
from repro.data.record import FIELD_NAMES
from repro.obs.distributed import TraceContext
from repro.workload.query import Query


def dataset_to_payload(dataset: Dataset) -> dict[str, np.ndarray]:
    """A dataset's columns as a plain picklable dict."""
    return dataset.columns


def payload_to_dataset(payload: dict[str, np.ndarray]) -> Dataset:
    """Rebuild a dataset from a :func:`dataset_to_payload` dict."""
    return Dataset({name: payload[name] for name in FIELD_NAMES})


def concat_payloads(payloads) -> Dataset:
    """Union the per-shard partial results of one query (shard order)."""
    return Dataset.concat(payload_to_dataset(p) for p in payloads)


@dataclass(frozen=True, slots=True)
class QueryTask:
    """One query of a batch, tagged with its batch-local index."""

    index: int
    query: Query


@dataclass(frozen=True, slots=True)
class ShardRequest:
    """Execute a batch of queries against one pinned replica.

    The front door routes once and pins ``replica`` for the whole
    fan-out; every shard answers the same queries from the same replica,
    so the per-shard partials union to the full result (ownership masks
    partition each replica exactly once across shards).

    ``trace`` carries the front door's dispatch-span context (plus the
    batch's earliest deadline) into the worker, so engine spans in the
    worker process parent under the originating request's trace instead
    of orphaning.  None when tracing is off — the frame costs nothing.
    """

    request_id: int
    replica: str
    tasks: tuple[QueryTask, ...]
    trace: TraceContext | None = None


@dataclass(frozen=True, slots=True)
class ShardResponse:
    """One shard's answer to a :class:`ShardRequest`.

    ``results`` maps task index to the shard's partial records payload;
    ``failures`` maps task index to a structured error string for
    queries this shard could not serve from the pinned replica.  A task
    index appears in exactly one of the two.
    """

    request_id: int
    shard_id: int
    results: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)
    failures: dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class MetricsRequest:
    """Ask a shard for its telemetry snapshot."""

    request_id: int


@dataclass(frozen=True, slots=True)
class MetricsResponse:
    request_id: int
    shard_id: int
    snapshot: dict


@dataclass(frozen=True, slots=True)
class TraceRequest:
    """Ask a shard for its retained trace spans (as plain dicts);
    ``clear`` drains the worker's ring buffer after the read so a
    periodic collector never double-counts."""

    request_id: int
    clear: bool = False


@dataclass(frozen=True, slots=True)
class TraceResponse:
    request_id: int
    shard_id: int
    spans: tuple[dict, ...] = ()


#: Channel sentinel: a worker receiving ``None`` drains out and exits.
SHUTDOWN = None


_SIZE = struct.Struct("!i")
_LONG_SIZE = struct.Struct("!Q")
#: Frames that fit are parsed straight out of the reader's scratch
#: buffer; a larger frame gets one buffer of its announced size that
#: the socket fills directly.
_SCRATCH_BYTES = 1 << 16


def encode_frame(message) -> bytes:
    """``message`` as one ``Connection.recv``-compatible frame."""
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    if len(body) > 0x7FFFFFFF:
        return _SIZE.pack(-1) + _LONG_SIZE.pack(len(body)) + body
    return _SIZE.pack(len(body)) + body


class FrameProtocol(asyncio.BufferedProtocol):
    """The front door's end of one shard channel: unpickles every
    ``Connection.send`` frame the worker writes and hands it to
    ``on_message``; calls ``on_lost`` once when the channel closes."""

    def __init__(self, on_message, on_lost):
        self._on_message = on_message
        self._on_lost = on_lost
        self._scratch = bytearray(_SCRATCH_BYTES)
        self._filled = 0
        self._body: bytearray | None = None
        self._got = 0
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self._on_lost(exc)

    def get_buffer(self, sizehint: int):
        if self._body is not None:
            return memoryview(self._body)[self._got:]
        return memoryview(self._scratch)[self._filled:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._body is None:
            self._filled += nbytes
            self._parse()
            return
        self._got += nbytes
        if self._got == len(self._body):
            body, self._body = self._body, None
            self._on_message(pickle.loads(body))

    def _parse(self) -> None:
        data = memoryview(self._scratch)[:self._filled]
        pos = 0
        while len(data) - pos >= _SIZE.size:
            head = _SIZE.size
            (size,) = _SIZE.unpack_from(data, pos)
            if size == -1:
                head += _LONG_SIZE.size
                if len(data) - pos < head:
                    break
                (size,) = _LONG_SIZE.unpack_from(data, pos + _SIZE.size)
            end = pos + head + size
            if end <= len(data):
                self._on_message(pickle.loads(data[pos + head:end]))
                pos = end
                continue
            if head + size > len(self._scratch):
                self._body = bytearray(size)
                self._got = len(data) - pos - head
                self._body[:self._got] = data[pos + head:]
                pos = len(data)
            break
        data.release()
        rest = self._filled - pos
        if rest and pos:
            self._scratch[:rest] = self._scratch[pos:self._filled]
        self._filled = rest
