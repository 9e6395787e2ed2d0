"""UDP transport for Freon's tempd -> admd messages (Figure 9).

"tempd sends a UDP message to a Freon process at the load-balancer node,
called admd."  In-process experiments hand :class:`TempdMessage` values
to the Freon policy's ``deliver`` (through the simulation's lossy
channel); this module provides the wire path for
deployments where tempd really runs on each server: a compact JSON
datagram encoding, a listener thread on the admd side, and a sender
handle for the tempd side.

JSON (rather than a packed struct) is used deliberately: Freon messages
are low-rate (one per server per minute), carry nested maps of
per-component readings, and benefit from being greppable in packet
captures.  Each datagram stays well under a single MTU.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Callable, Optional, Tuple

from ..errors import SensorError
from ..faults.backoff import DAEMON_JOIN_TIMEOUT, SERVER_POLL_INTERVAL
from ..telemetry import ensure as _ensure_telemetry
from .tempd import TempdMessage

#: Safety bound: a Freon message must fit one comfortable datagram.
MAX_MESSAGE_BYTES = 4096

_FIELDS = ("type", "machine", "time", "output", "temperatures", "utilizations")


def encode_message(message: TempdMessage) -> bytes:
    """Serialize a tempd message to one JSON datagram."""
    payload = {
        "type": message.type,
        "machine": message.machine,
        "time": message.time,
        "output": message.output,
        "temperatures": dict(message.temperatures),
        "utilizations": dict(message.utilizations),
    }
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_MESSAGE_BYTES:
        raise SensorError(
            f"tempd message too large for one datagram ({len(data)} bytes)"
        )
    return data


def decode_message(data: bytes) -> TempdMessage:
    """Parse one JSON datagram back into a tempd message."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SensorError(f"malformed tempd datagram: {exc}") from None
    if not isinstance(payload, dict):
        raise SensorError("malformed tempd datagram: not an object")
    missing = [field for field in _FIELDS if field not in payload]
    if missing:
        raise SensorError(f"tempd datagram missing fields: {missing}")
    if not isinstance(payload["type"], str) or not isinstance(
        payload["machine"], str
    ):
        raise SensorError("tempd datagram fields have wrong types")
    try:
        return TempdMessage(
            type=payload["type"],
            machine=payload["machine"],
            time=float(payload["time"]),
            output=float(payload["output"]),
            temperatures={
                str(k): float(v) for k, v in payload["temperatures"].items()
            },
            utilizations={
                str(k): float(v) for k, v in payload["utilizations"].items()
            },
        )
    except (TypeError, ValueError, AttributeError) as exc:
        raise SensorError(f"tempd datagram fields have wrong types: {exc}") from None


class TempdSender:
    """tempd's side: a ``send`` callable delivering over UDP.

    Pass an instance as the ``send`` argument of
    :meth:`repro.control.FreonPolicy.attach`.
    """

    def __init__(self, address: Tuple[str, int], telemetry=None) -> None:
        self._address = address
        self._sock: Optional[socket.socket] = socket.socket(
            socket.AF_INET, socket.SOCK_DGRAM
        )
        self.sent = 0
        self._tel_sent = _ensure_telemetry(telemetry).counter(
            "freon_udp_messages_sent_total",
            help="tempd messages sent over UDP.",
        )

    def __call__(self, message: TempdMessage) -> None:
        sock = self._sock
        if sock is None:
            raise SensorError("send on a closed TempdSender")
        sock.sendto(encode_message(message), self._address)
        self.sent += 1
        self._tel_sent.inc()

    def close(self) -> None:
        """Release the socket.  Idempotent: extra calls are no-ops.

        The socket is detached before closing, so a concurrent ``send``
        gets a clean :class:`SensorError` instead of racing a half-closed
        descriptor.
        """
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "TempdSender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _AdmdHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        data, _sock = self.request
        server = self.server
        try:
            message = decode_message(data)
        except SensorError:
            server.malformed += 1  # type: ignore[attr-defined]
            server.tel_malformed.inc()  # type: ignore[attr-defined]
            return
        with server.deliver_lock:  # type: ignore[attr-defined]
            server.deliver(message)  # type: ignore[attr-defined]
            server.received += 1  # type: ignore[attr-defined]
            server.tel_received.inc()  # type: ignore[attr-defined]


class AdmdListener:
    """admd's side: a UDP endpoint feeding ``deliver`` with messages.

    ``deliver`` is typically a Freon policy's ``deliver`` bound to its
    view; calls are serialized with
    an internal lock, since the threading server may handle datagrams
    from several tempds concurrently.
    """

    def __init__(
        self,
        deliver: Callable[[TempdMessage], None],
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry=None,
    ) -> None:
        telemetry = _ensure_telemetry(telemetry)
        self._server = socketserver.ThreadingUDPServer((host, port), _AdmdHandler)
        self._server.deliver = deliver  # type: ignore[attr-defined]
        self._server.deliver_lock = threading.Lock()  # type: ignore[attr-defined]
        self._server.received = 0  # type: ignore[attr-defined]
        self._server.malformed = 0  # type: ignore[attr-defined]
        self._server.tel_received = telemetry.counter(  # type: ignore[attr-defined]
            "freon_udp_messages_received_total",
            help="tempd messages received and delivered to admd.",
        )
        self._server.tel_malformed = telemetry.counter(  # type: ignore[attr-defined]
            "freon_udp_messages_malformed_total",
            help="UDP datagrams dropped as malformed.",
        )
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) tempds should send to."""
        return self._server.server_address  # type: ignore[return-value]

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ephemeral ``port=0``)."""
        return self.address[1]

    @property
    def received(self) -> int:
        """Messages delivered so far."""
        return self._server.received  # type: ignore[attr-defined]

    @property
    def malformed(self) -> int:
        """Datagrams dropped as malformed."""
        return self._server.malformed  # type: ignore[attr-defined]

    def start(self) -> "AdmdListener":
        """Start serving on a daemon thread."""
        if self._closed:
            raise SensorError("listener already stopped")
        if self._thread is not None:
            raise SensorError("listener already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": SERVER_POLL_INTERVAL},
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down, join the listener thread, and release the socket.

        Idempotent and exception-safe: extra calls are no-ops, the
        socket is always closed even if the shutdown handshake raises,
        and a listener that was never started still releases the socket
        it bound in ``__init__`` (so pool workers cannot leak it).
        """
        if self._closed:
            return
        self._closed = True
        thread, self._thread = self._thread, None
        try:
            if thread is not None:
                self._server.shutdown()
                thread.join(timeout=DAEMON_JOIN_TIMEOUT)
        finally:
            self._server.server_close()

    def __enter__(self) -> "AdmdListener":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
