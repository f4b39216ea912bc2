"""Wire protocol spoken between the sweep service, its workers and clients.

Messages are *length-prefixed JSON frames*: a 4-byte big-endian payload
length followed by a UTF-8 JSON object.  Framing keeps the protocol
stream-safe over TCP; JSON keeps it debuggable (``tcpdump`` shows readable
frames).  Sweep points themselves carry arbitrary picklable kwargs
(seeds, parameter dicts, ...), so a point travels inside the JSON frame as
a base64-encoded pickle — the same picklability contract the
``multiprocessing`` backend already imposes.  Since the ``repro.api``
port, every built-in sweep's points reference their function by
``"module:qualname"`` string and name systems/workloads by registry key,
so the pickled payload is plain data: no function objects (and, unless a
test passes an explicit config, no configuration dataclasses) cross the
wire, and workers resolve the names by import on their side.

Frame types:

================ =======================================================
``hello``        worker -> service greeting (``pid``, ``proto``, ``slots``)
``client_hello`` client -> service greeting (``pid``, ``proto``)
``welcome``      service -> peer: the greeting was accepted
``error``        service -> peer: a refusal or a failed request
``point``        service -> worker: one sweep point (``task_id``, ``point``)
``result``       worker -> service: ``task_id`` + ``ok`` +
                 ``result``/``error``
``shutdown``     service -> worker: exit
================ =======================================================

A worker's ``hello`` advertises ``slots``, and the service keeps at most
that many ``point`` frames outstanding on the connection; ``result``
frames may arrive in any order and are matched back by the echoed
job-scoped ``task_id`` (``"<job>/<index>"``).  Clients send ``submit`` /
``status`` / ``result`` / ``watch`` / ``cancel`` (see :mod:`repro.service`).

There is one protocol version, :data:`PROTOCOL_VERSION`: workers, clients
and service ship from the same tree, so a greeting with another version
(or a ``hello`` without a positive integer ``slots``) gets an ``error``
frame naming both versions (:func:`hello_refusal`) and the connection
closes without the peer joining.

The pickle payload means workers must only ever connect to a coordinator
they trust (and vice versa); the harness binds to localhost by default.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle
import socket
import struct
from typing import Dict, Optional

from repro.harness.spec import PointResult, SweepPoint

#: Wire protocol version, carried in ``hello`` and ``client_hello`` frames.
PROTOCOL_VERSION = 3

#: Frames larger than this are rejected as corrupt rather than allocated.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, message: Dict[str, object]) -> None:
    """Serialise ``message`` as one length-prefixed JSON frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Read one frame, or ``None`` if the peer closed the connection."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ConnectionError("malformed frame: expected a JSON object")
    return message


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean EOF at a boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None  # peer closed between frames
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_point(point: SweepPoint) -> str:
    """Pack a sweep point for transport inside a JSON frame."""
    return base64.b64encode(pickle.dumps(point)).decode("ascii")


def decode_point(blob: str) -> SweepPoint:
    """Inverse of :func:`encode_point`."""
    point = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(point, SweepPoint):
        raise ConnectionError(
            f"frame payload decoded to {type(point).__name__}, not SweepPoint")
    return point


def encode_result(result: PointResult) -> str:
    """Pack a point result for transport inside a JSON frame.

    Results are pickled like points are, not flattened to JSON, so rows
    keep their exact Python types (tuples stay tuples) and distributed
    sweeps stay row-for-row identical to serial ones.
    """
    return base64.b64encode(pickle.dumps(result)).decode("ascii")


def decode_result(blob: str) -> PointResult:
    """Inverse of :func:`encode_result`."""
    result = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(result, PointResult):
        raise ConnectionError(
            f"frame payload decoded to {type(result).__name__}, not PointResult")
    return result


# --------------------------------------------------------------------------- #
# Asyncio stream variants (the ``repro serve`` service speaks these)
# --------------------------------------------------------------------------- #
async def read_frame_async(reader: asyncio.StreamReader
                           ) -> Optional[Dict[str, object]]:
    """Async :func:`recv_frame`: one frame, or ``None`` on a clean EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # peer closed between frames
        raise ConnectionError("connection closed mid-frame") from error
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"oversized frame ({length} bytes)")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("connection closed mid-frame") from error
    message = json.loads(payload.decode("utf-8"))
    if not isinstance(message, dict):
        raise ConnectionError("malformed frame: expected a JSON object")
    return message


async def write_frame_async(writer: asyncio.StreamWriter,
                            message: Dict[str, object]) -> None:
    """Async :func:`send_frame`."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    writer.write(_LENGTH.pack(len(payload)) + payload)
    await writer.drain()


# --------------------------------------------------------------------------- #
# Greetings, task ids and sockets
# --------------------------------------------------------------------------- #
def hello_refusal(hello: Dict[str, object]) -> Optional[str]:
    """Why the service refuses a peer's first frame, or ``None``.

    It must be a ``hello`` or ``client_hello`` advertising exactly
    :data:`PROTOCOL_VERSION`; a worker's ``hello`` must also advertise a
    positive integer ``slots``.
    """
    kind, proto = hello.get("type"), hello.get("proto")
    if kind not in ("hello", "client_hello"):
        return f"expected hello or client_hello, got {kind!r}"
    advert = f"protocol version {proto!r}"
    accepted = type(proto) is int and proto == PROTOCOL_VERSION
    if kind == "hello":
        slots = hello.get("slots")
        advert += f" with slots={slots!r}"
        accepted = accepted and type(slots) is int and slots >= 1
    if accepted:
        return None
    return (f"refused {kind}: the peer speaks {advert}; this service speaks "
            f"protocol version {PROTOCOL_VERSION} (workers need slots >= 1) "
            f"- run workers, clients and service from the same release")


def make_task_id(job_id: str, index: int) -> str:
    """The job-scoped task id of one point of one service job."""
    return f"{job_id}/{index}"


def enable_keepalive(conn: socket.socket) -> None:
    """Make a vanished peer *host* surface as a connection error.

    A peer process that crashes sends a FIN/RST and its points are
    requeued immediately; a host that vanishes (power loss, network
    partition) sends nothing, so without keepalive a read on its
    connection would block forever.  The parameters below detect that
    within ~a minute without bounding how long a legitimate point may
    compute.
    """
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (("TCP_KEEPIDLE", 30), ("TCP_KEEPINTVL", 10),
                          ("TCP_KEEPCNT", 3)):
        if hasattr(socket, option):  # platform-dependent
            conn.setsockopt(socket.IPPROTO_TCP, getattr(socket, option), value)


def parse_address(address: str) -> "tuple[str, int]":
    """Split ``host:port`` (the form both CLI flags use) into its parts."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    return host, int(port)
