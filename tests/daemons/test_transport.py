"""Tests for the tempd -> admd UDP transport."""

import time

import pytest
from hypothesis import given, strategies as st

from repro.control import FreonPolicy
from repro.daemons.tempd import MSG_ADJUST, MSG_STATUS, TempdMessage
from repro.daemons.transport import (
    MAX_MESSAGE_BYTES,
    AdmdListener,
    TempdSender,
    decode_message,
    encode_message,
)
from repro.errors import SensorError
from repro.freon.policy import FreonConfig

from ..control.fake_view import FakeView


def sample_message():
    return TempdMessage(
        type=MSG_ADJUST,
        machine="machine1",
        time=120.0,
        output=0.35,
        temperatures={"cpu": 68.5, "disk": 50.0},
        utilizations={"cpu": 0.7},
    )


class TestEncoding:
    def test_round_trip(self):
        message = sample_message()
        decoded = decode_message(encode_message(message))
        assert decoded == message

    def test_rejects_garbage(self):
        with pytest.raises(SensorError):
            decode_message(b"\xff\xfe not json")

    def test_rejects_non_object(self):
        with pytest.raises(SensorError):
            decode_message(b"[1,2,3]")

    def test_rejects_missing_fields(self):
        with pytest.raises(SensorError):
            decode_message(b'{"type": "adjust"}')

    def test_rejects_wrong_types(self):
        bad = (
            b'{"type": "adjust", "machine": "m", "time": "soon", '
            b'"output": 0, "temperatures": {}, "utilizations": {}}'
        )
        with pytest.raises(SensorError):
            decode_message(bad)

    def test_fits_one_datagram(self):
        assert len(encode_message(sample_message())) < MAX_MESSAGE_BYTES

    def test_oversize_message_rejected(self):
        bloated = TempdMessage(
            type=MSG_STATUS,
            machine="machine1",
            time=1.0,
            temperatures={f"sensor{i}": float(i) for i in range(400)},
        )
        with pytest.raises(SensorError, match="too large"):
            encode_message(bloated)

    def test_rejects_non_mapping_temperatures(self):
        bad = (
            b'{"type": "adjust", "machine": "m", "time": 1, '
            b'"output": 0, "temperatures": [1, 2], "utilizations": {}}'
        )
        with pytest.raises(SensorError):
            decode_message(bad)

    @given(
        output=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        temp=st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
    )
    def test_round_trip_property(self, output, temp):
        message = TempdMessage(
            type=MSG_STATUS,
            machine="m",
            time=1.0,
            output=output,
            temperatures={"cpu": temp},
        )
        decoded = decode_message(encode_message(message))
        assert decoded.output == pytest.approx(output)
        assert decoded.temperatures["cpu"] == pytest.approx(temp)


def _wait_for(predicate, timeout=3.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class Admd:
    """A Freon policy's admd half over a fake view of the cluster."""

    def __init__(self, machines):
        self.view = FakeView(machines)
        self.balancer = self.view.balancer
        self.policy = FreonPolicy(FreonConfig())
        self.policy.attach(self.view)

    def deliver(self, message):
        self.policy.deliver(self.view, message)

    @property
    def adjustments(self):
        return self.policy.adjustments


class TestUdpPath:
    def test_message_reaches_admd(self):
        admd = Admd(("machine1", "machine2"))
        with AdmdListener(admd.deliver) as listener:
            with TempdSender(listener.address) as send:
                send(sample_message())
                assert _wait_for(lambda: listener.received == 1)
        assert len(admd.adjustments) == 1
        assert admd.balancer.server("machine1").weight < 1.0

    def test_malformed_datagrams_counted_and_ignored(self):
        admd = Admd(("machine1",))
        with AdmdListener(admd.deliver) as listener:
            import socket

            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.sendto(b"not json", listener.address)
                assert _wait_for(lambda: listener.malformed == 1)
                # A good message afterwards still works.
                with TempdSender(listener.address) as send:
                    send(sample_message())
                    assert _wait_for(lambda: listener.received == 1)
            finally:
                sock.close()

    def test_full_daemon_pair_over_udp(self):
        # tempd (the policy's wake over fake sensors) -> UDP -> admd (the
        # policy's deliver on another host), end to end.
        admd = Admd(("machine1", "machine2"))
        servers = FakeView(("machine1", "machine2"))
        servers.temperatures["machine1"] = {"cpu": 68.5, "disk": 40.0}
        with AdmdListener(admd.deliver) as listener:
            with TempdSender(listener.address) as send:
                tempd = FreonPolicy(FreonConfig())
                tempd.attach(servers, send=send)
                tempd.wake(servers, 60.0)
                assert _wait_for(lambda: listener.received == 1)
        assert admd.balancer.server("machine1").weight < 1.0

    def test_double_start_rejected(self):
        listener = AdmdListener(lambda m: None)
        listener.start()
        try:
            with pytest.raises(SensorError):
                listener.start()
        finally:
            listener.stop()

    def test_stop_idempotent(self):
        listener = AdmdListener(lambda m: None).start()
        listener.stop()
        listener.stop()


class TestShutdownLifecycle:
    """Pool workers tear transports down on every path; none may leak."""

    def test_start_close_close_under_traffic(self):
        # Close while the worker thread is blocked in its recv loop, then
        # close again: both must return cleanly and release the socket.
        admd = Admd(("machine1",))
        listener = AdmdListener(admd.deliver).start()
        sender = TempdSender(listener.address)
        sender(sample_message())
        assert _wait_for(lambda: listener.received == 1)
        listener.stop()
        listener.stop()
        assert listener._server.socket.fileno() == -1

    def test_stop_without_start_releases_socket(self):
        # __init__ binds the socket; a listener that never served must
        # still release it on stop.
        listener = AdmdListener(lambda m: None)
        listener.stop()
        assert listener._server.socket.fileno() == -1
        listener.stop()  # still idempotent

    def test_start_after_stop_rejected(self):
        listener = AdmdListener(lambda m: None).start()
        listener.stop()
        with pytest.raises(SensorError):
            listener.start()

    def test_stop_closes_socket_even_if_shutdown_raises(self):
        listener = AdmdListener(lambda m: None).start()
        original_shutdown = listener._server.shutdown

        def exploding_shutdown():
            original_shutdown()
            raise OSError("simulated shutdown failure")

        listener._server.shutdown = exploding_shutdown
        with pytest.raises(OSError):
            listener.stop()
        assert listener._server.socket.fileno() == -1
        listener.stop()  # second close after a failed one is a no-op

    def test_sender_double_close_and_send_after_close(self):
        listener = AdmdListener(lambda m: None).start()
        try:
            sender = TempdSender(listener.address)
            sender(sample_message())
            sender.close()
            sender.close()
            with pytest.raises(SensorError):
                sender(sample_message())
        finally:
            listener.stop()

    def test_in_process_delivery_survives_udp_teardown(self):
        # The in-process transport (calling admd.deliver directly) must
        # keep working after the UDP listener for the same admd is gone.
        admd = Admd(("machine1", "machine2"))
        listener = AdmdListener(admd.deliver).start()
        listener.stop()
        listener.stop()
        admd.deliver(sample_message())
        assert len(admd.adjustments) == 1
