"""The shard channel's framing: the front door's asyncio side must read
and write exactly the frames a worker's blocking ``Connection`` does."""

import socket
import threading
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import numpy as np

from repro.serve.protocol import FrameProtocol, encode_frame


def _sized(total: int) -> bytes:
    """A payload whose ``Connection`` frame is exactly ``total`` bytes."""
    return next(b"x" * size for size in range(total - 40, total)
                if len(ForkingPickler.dumps(b"x" * size)) + 4 == total)


def _messages():
    rng = np.random.default_rng(3)
    return [
        None,
        {"small": 1},
        # Runs of small frames of varied length: many reads end inside
        # a frame that the reader must carry over to the next read.
        *(list(range(k)) for k in range(0, 300, 7)),
        # Larger than the reader's 64 KiB scratch buffer: read straight
        # into a buffer of the frame's announced size.
        {"wide": rng.random(40_000)},
        ("tail", list(range(50))),
        _sized(1 << 16),
        {"exact": np.arange(8_000, dtype=np.float64)},
        _sized((1 << 16) + 1),
        "last",
    ]


def _connection_bytes(messages) -> bytes:
    """What ``Connection.send`` writes for ``messages``, as raw bytes."""
    a, b = socket.socketpair()
    sender = Connection(a.detach())
    chunks = []

    def drain():
        while data := b.recv(1 << 16):
            chunks.append(data)

    reader = threading.Thread(target=drain)
    reader.start()
    for message in messages:
        sender.send(message)
    sender.close()
    reader.join()
    b.close()
    return b"".join(chunks)


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_reader_parses_connection_frames_at_any_chunking():
    messages = _messages()
    stream = _connection_bytes(messages)
    rng = np.random.default_rng(7)
    for max_chunk in (2, 4096, 70_000, len(stream)):
        got, lost = [], []
        reader = FrameProtocol(got.append, lost.append)
        sizes = iter(rng.integers(1, max_chunk + 1, size=len(stream)).tolist())
        pos = 0
        while pos < len(stream):
            buf = reader.get_buffer(-1)
            assert len(buf) > 0
            n = min(len(buf), next(sizes), len(stream) - pos)
            buf[:n] = stream[pos:pos + n]
            reader.buffer_updated(n)
            pos += n
        reader.connection_lost(None)
        assert len(got) == len(messages)
        assert all(_equal(m, g) for m, g in zip(messages, got))
        assert lost == [None]


def test_encoded_frames_read_back_through_a_connection():
    a, b = socket.socketpair()
    receiver = Connection(b.detach())
    try:
        for message in _messages()[:2]:
            a.sendall(encode_frame(message))
            assert _equal(message, receiver.recv())
    finally:
        a.close()
        receiver.close()
