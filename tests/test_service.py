"""Tests for the sensing service (repro.service).

Unit layer: the versioned wire protocol (request/response envelopes,
typed decode errors, lossless result payload codecs).  Integration
layer: a real :class:`~repro.service.server.ServerThread` + the
:func:`repro.api.connect` client, pinning the scheduling contract —
served results bit-identical to the in-process facade, bounded
admission with typed ``queue_full`` rejection, per-request deadlines
(queued and in-flight), cooperative cancel, and the graceful drain that
delivers every admitted result before closing.

Every run uses the tiny 96x48 frame; the "slow" job is a 300 m sector
(~2 s) so inline control operations have a wide window to observe the
in-flight state deterministically.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socketlib
import time

import numpy as np
import pytest

import repro.api
from repro.service import protocol
from repro.service.errors import (
    BadRequestError,
    DeadlineExceededError,
    QueueFullError,
    RequestCancelledError,
    RequestNotFoundError,
    ServiceError,
    ShuttingDownError,
    UnknownOperationError,
    UnsupportedVersionError,
    error_for_code,
)
from repro.service.server import SensingServer, ServerThread
from repro.utils.parallel import shutdown_pool

FRAME = (96, 48)
QUICK = dict(length_m=40.0, frame=FRAME)
SLOW = dict(length_m=300.0, frame=FRAME)


# ---------------------------------------------------------------------------
# protocol: request/response envelopes


class TestRequestCodec:
    def test_round_trip(self):
        line = protocol.encode_request(
            op=protocol.OP_SIMULATE,
            request_id="c1",
            params={"seed": 7},
            deadline_ms=250,
        )
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        request = protocol.decode_request(line)
        assert request.op == protocol.OP_SIMULATE
        assert request.request_id == "c1"
        assert request.params == {"seed": 7}
        assert request.deadline_ms == 250.0

    def test_defaults(self):
        request = protocol.decode_request(
            protocol.encode_request(op=protocol.OP_HEALTH, request_id="c2")
        )
        assert request.params == {} and request.deadline_ms is None

    def test_wrong_version_is_rejected_with_request_id(self):
        line = json.dumps({"v": 99, "op": "health", "id": "c3"})
        with pytest.raises(UnsupportedVersionError) as excinfo:
            protocol.decode_request(line)
        assert excinfo.value.code == protocol.ERR_UNSUPPORTED_VERSION
        assert excinfo.value.request_id == "c3"

    def test_malformed_lines_are_bad_requests(self):
        for line in [b"not json\n", b"[1,2]\n", b'{"v":1,"op":"simulate"}\n']:
            with pytest.raises(BadRequestError):
                protocol.decode_request(line)

    def test_unknown_op_and_bad_deadline(self):
        with pytest.raises(UnknownOperationError):
            protocol.decode_request(
                json.dumps({"v": 1, "op": "teleport", "id": "c4"})
            )
        for deadline in [0, -5, True, "soon"]:
            with pytest.raises(BadRequestError):
                protocol.decode_request(
                    json.dumps(
                        {"v": 1, "op": "health", "id": "c5",
                         "deadline_ms": deadline}
                    )
                )

    def test_response_round_trip_and_version_check(self):
        ok = protocol.decode_response(
            protocol.encode_response(
                protocol.ok_response(
                    request_id="c6", op=protocol.OP_HEALTH, result={"a": 1}
                )
            )
        )
        assert ok["ok"] is True and ok["result"] == {"a": 1}
        err = protocol.decode_response(
            protocol.encode_response(
                protocol.error_response(
                    request_id=None,
                    code=protocol.ERR_QUEUE_FULL,
                    message="full",
                )
            )
        )
        assert err["ok"] is False
        assert err["error"]["code"] == protocol.ERR_QUEUE_FULL
        with pytest.raises(UnsupportedVersionError):
            protocol.decode_response(json.dumps({"v": 2, "ok": True}))
        with pytest.raises(BadRequestError):
            protocol.decode_response(json.dumps({"v": 1}))

    def test_error_for_code_maps_every_wire_code(self):
        for code in protocol.ERROR_CODES:
            error = error_for_code(code=code, message="x")
            assert isinstance(error, ServiceError)
            assert error.code == code
        # Unknown codes degrade to the base class, code preserved.
        assert error_for_code(code="novel_code", message="x").code == "novel_code"


# ---------------------------------------------------------------------------
# protocol: payload codecs (bit-identity across an actual encode/decode)


@pytest.fixture(scope="module")
def direct_result():
    return repro.api.simulate(seed=7, **QUICK)


def assert_hil_results_identical(served, direct):
    """Bit-for-bit equality, manifest compared minus the volatile
    wall-clock timestamps (the same fields ``diff_traces`` ignores)."""
    for name in (
        "time_s", "s", "lateral_offset", "y_l_true", "steering", "speed"
    ):
        a, b = getattr(served, name), getattr(direct, name)
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b), f"{name} diverged across the wire"
    assert served.cycles == direct.cycles
    assert served.crashed == direct.crashed
    assert served.crash_s == direct.crash_s
    assert served.completed == direct.completed
    strip = lambda manifest: {
        key: value
        for key, value in manifest.items()
        if key != "wall_clock"
    }
    assert strip(served.manifest) == strip(direct.manifest)


class TestPayloadCodec:
    def test_hil_result_survives_the_wire_bit_identical(self, direct_result):
        line = protocol.encode_response(
            protocol.ok_response(
                request_id="c1",
                op=protocol.OP_SIMULATE,
                result=protocol.work_result_to_payload(
                    protocol.OP_SIMULATE, result=direct_result
                ),
            )
        )
        decoded = protocol.work_result_from_payload(
            protocol.decode_response(line)["result"]
        )
        assert_hil_results_identical(decoded, direct_result)

    def test_control_payloads_pass_through(self):
        assert protocol.work_result_from_payload({"status": "ok"}) == {
            "status": "ok"
        }
        assert protocol.work_result_from_payload(None) is None


# ---------------------------------------------------------------------------
# integration: a live server on a background thread


def _server(tmp_path, **kwargs):
    kwargs.setdefault("socket_path", str(tmp_path / "svc.sock"))
    kwargs.setdefault("workers", 1)
    return ServerThread(**kwargs)


def _connect(thread, **kwargs):
    return repro.api.connect(**thread.connect_kwargs, **kwargs)


def _wait_for(client, predicate, what, timeout=20.0):
    """Poll ``health`` until *predicate* holds (inline ops stay fast
    even while a worker is busy)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = client.health()
        if predicate(health):
            return health
        time.sleep(0.02)
    raise AssertionError(f"server never reached state: {what}")


class TestServedSimulate:
    def test_bit_identical_to_direct_facade_call(self, tmp_path, direct_result):
        with _server(tmp_path) as thread, _connect(thread) as client:
            served = client.simulate(seed=7, **QUICK)
        assert_hil_results_identical(served, direct_result)

    def test_seed_list_runs_a_monte_carlo_batch_in_seed_order(self, tmp_path):
        seeds = [3, 5]
        direct = repro.api.simulate(seed=seeds, **QUICK)
        with _server(tmp_path) as thread, _connect(thread) as client:
            served = client.simulate(seed=seeds, **QUICK)
        assert isinstance(served, list) and len(served) == len(seeds)
        for one_served, one_direct in zip(served, direct):
            assert_hil_results_identical(one_served, one_direct)

    def test_profile_op_rebuilds_the_report(self, tmp_path):
        with _server(tmp_path) as thread, _connect(thread) as client:
            report = client.request(
                protocol.OP_PROFILE,
                params={"seed": 7, "length_m": 40.0, "frame": list(FRAME)},
            )
        assert report.result.completed
        assert "hil.control" in report.modeled_ms

    def test_inject_op_applies_the_fault_plan(self, tmp_path):
        with _server(tmp_path) as thread, _connect(thread) as client:
            result = client.request(
                protocol.OP_INJECT,
                params={
                    "faults": "banding@1000:2000",
                    "seed": 7,
                    "length_m": 60.0,
                    "frame": list(FRAME),
                },
            )
        faults_seen = {
            fault for cycle in result.cycles for fault in cycle.faults
        }
        assert "banding" in faults_seen


class TestAdmissionControl:
    def test_queue_full_is_a_typed_immediate_rejection(self, tmp_path):
        with _server(tmp_path, queue_limit=1) as thread, \
                _connect(thread) as client:
            slow = client.submit(protocol.OP_SIMULATE,
                                 params={"seed": 3, **SLOW})
            _wait_for(
                client,
                lambda h: h["in_flight"] == 1 and h["queue_depth"] == 0,
                "slow job in flight",
            )
            queued = client.submit(protocol.OP_SIMULATE,
                                   params={"seed": 5, **QUICK})
            _wait_for(
                client, lambda h: h["queue_depth"] == 1, "one job queued"
            )
            rejected = client.submit(protocol.OP_SIMULATE,
                                     params={"seed": 9, **QUICK})
            with pytest.raises(QueueFullError):
                client.result(rejected, timeout=10.0)
            stats = client.stats()
            assert stats["counters"]["service.rejected.queue_full"] == 1
            # The admitted requests are untouched by the rejection.
            assert client.result(slow, timeout=60.0).completed
            assert client.result(queued, timeout=60.0).completed

    def test_unknown_params_and_missing_required_are_bad_requests(
        self, tmp_path
    ):
        with _server(tmp_path) as thread, _connect(thread) as client:
            with pytest.raises(BadRequestError, match="bogus"):
                client.request(protocol.OP_SIMULATE, params={"bogus": 1})
            with pytest.raises(BadRequestError, match="faults"):
                client.request(protocol.OP_INJECT, params={"seed": 7})

    def test_garbage_line_gets_a_typed_error_response(self, tmp_path):
        with _server(tmp_path) as thread:
            with socketlib.socket(
                socketlib.AF_UNIX, socketlib.SOCK_STREAM
            ) as raw:
                raw.connect(thread.connect_kwargs["socket"])
                raw.sendall(b"this is not json\n")
                response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST
        assert response["id"] is None


class TestDeadlines:
    def test_deadline_expiring_while_queued_skips_execution(self, tmp_path):
        with _server(tmp_path) as thread, _connect(thread) as client:
            slow = client.submit(protocol.OP_SIMULATE,
                                 params={"seed": 3, **SLOW})
            _wait_for(
                client, lambda h: h["in_flight"] == 1, "slow job in flight"
            )
            doomed = client.submit(
                protocol.OP_SIMULATE,
                params={"seed": 5, **QUICK},
                deadline_ms=50,
            )
            with pytest.raises(DeadlineExceededError, match="never executed"):
                client.result(doomed, timeout=60.0)
            stats = client.stats()
            assert stats["counters"]["service.rejected.deadline"] == 1
            assert client.result(slow, timeout=60.0).completed

    def test_deadline_expiring_in_flight_abandons_the_worker(self, tmp_path):
        with _server(tmp_path) as thread, _connect(thread) as client:
            with pytest.raises(DeadlineExceededError, match="abandoned"):
                client.simulate(seed=3, deadline_ms=300, timeout=60.0, **SLOW)
            stats = client.stats()
            assert stats["counters"]["service.abandoned.deadline"] == 1
            # The slot is reclaimed: the server still completes new work.
            assert client.simulate(seed=7, timeout=60.0, **QUICK).completed


class TestWorkerLoss:
    def test_killed_worker_fails_the_next_request_without_wedging(
        self, tmp_path
    ):
        try:
            with _server(tmp_path) as thread, _connect(thread) as client:
                assert client.simulate(seed=7, timeout=60.0, **QUICK).completed
                pool = thread.server._pool
                for pid in list(pool._processes):
                    os.kill(pid, signal.SIGKILL)
                # Let the executor notice, so the next submit itself
                # raises BrokenProcessPool on the dispatcher.
                deadline = time.monotonic() + 10.0
                while not pool._broken and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert pool._broken
                started = time.monotonic()
                with pytest.raises(ServiceError):
                    client.simulate(seed=7, timeout=20.0, **QUICK)
                assert time.monotonic() - started < 10.0
                assert client.health()["in_flight"] == 0
                # The dispatcher survived: a further request is answered
                # (with a typed error while the pool stays broken).
                try:
                    client.simulate(seed=5, timeout=20.0, **QUICK)
                except ServiceError:
                    pass
                assert client.health()["in_flight"] == 0
        finally:
            shutdown_pool()


class TestCancellation:
    def test_queued_request_is_cancellable(self, tmp_path):
        with _server(tmp_path) as thread, _connect(thread) as client:
            slow = client.submit(protocol.OP_SIMULATE,
                                 params={"seed": 3, **SLOW})
            _wait_for(
                client, lambda h: h["in_flight"] == 1, "slow job in flight"
            )
            queued = client.submit(protocol.OP_SIMULATE,
                                   params={"seed": 5, **QUICK})
            assert client.cancel(queued) == {"cancelled": queued}
            with pytest.raises(RequestCancelledError):
                client.result(queued, timeout=60.0)
            assert client.result(slow, timeout=60.0).completed

    def test_cancel_of_unknown_request_is_not_found(self, tmp_path):
        with _server(tmp_path) as thread, _connect(thread) as client:
            with pytest.raises(RequestNotFoundError):
                client.cancel("never-submitted")


class TestGracefulDrain:
    def test_drain_delivers_every_admitted_result(self, tmp_path):
        stats_path = tmp_path / "service-stats.json"
        socket_path = tmp_path / "svc.sock"
        with _server(
            tmp_path,
            socket_path=str(socket_path),
            stats_path=str(stats_path),
        ) as thread, _connect(thread) as client:
            slow = client.submit(protocol.OP_SIMULATE,
                                 params={"seed": 3, **SLOW})
            _wait_for(
                client, lambda h: h["in_flight"] == 1, "slow job in flight"
            )
            queued = [
                client.submit(
                    protocol.OP_SIMULATE, params={"seed": seed, **QUICK}
                )
                for seed in (5, 9)
            ]
            assert client.shutdown() == {"draining": True}
            _wait_for(
                client, lambda h: h["status"] == "draining", "draining"
            )
            late = client.submit(protocol.OP_SIMULATE,
                                 params={"seed": 11, **QUICK})
            with pytest.raises(ShuttingDownError):
                client.result(late, timeout=60.0)
            # Everything admitted before the drain still completes, and
            # the responses arrive before the server closes.
            assert client.result(slow, timeout=120.0).completed
            for request_id in queued:
                assert client.result(request_id, timeout=120.0).completed
        # The drain flushed the final metrics snapshot atomically and
        # removed the socket file.
        assert not socket_path.exists()
        stats = json.loads(stats_path.read_text())
        assert stats["counters"]["service.completed"] == 3
        assert stats["counters"]["service.rejected.shutting_down"] == 1
        assert stats["gauges"]["service.queue_depth"] == 0
        assert stats["gauges"]["service.in_flight"] == 0
        assert "service.latency_ms.simulate" in stats["histograms"]


class TestObservability:
    def test_health_and_stats_shapes(self, tmp_path):
        with _server(tmp_path, queue_limit=4) as thread, \
                _connect(thread) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert health["protocol"] == protocol.PROTOCOL_VERSION
            assert health["workers"] == 1
            assert health["queue_limit"] == 4
            assert client.simulate(seed=7, timeout=60.0, **QUICK).completed
            stats = client.stats()
        assert stats["counters"]["service.admitted"] == 1
        assert stats["counters"]["service.completed"] == 1
        assert stats["counters"]["service.op.simulate"] == 1
        summary = stats["histograms"]["service.latency_ms.simulate"]
        assert summary["count"] == 1
        assert summary["p95"] >= summary["mean"] * 0.5

    def test_served_cache_hits_are_identical_and_counted(self, tmp_path):
        store = tmp_path / "store"
        with _server(tmp_path) as thread, _connect(thread) as client:
            cold = client.simulate(
                seed=11, cache=str(store), timeout=60.0, **QUICK
            )
            warm = client.simulate(
                seed=11, cache=str(store), timeout=60.0, **QUICK
            )
            uncached = client.simulate(seed=11, timeout=60.0, **QUICK)
            stats = client.stats()
        for field in ("time_s", "s", "lateral_offset", "y_l_true",
                      "steering", "speed"):
            arrays = [getattr(r, field) for r in (cold, warm, uncached)]
            assert arrays[0].tobytes() == arrays[1].tobytes()
            assert arrays[0].tobytes() == arrays[2].tobytes()
        assert cold.manifest == warm.manifest
        counters = stats["counters"]
        assert counters["service.cache.misses"] == 1
        assert counters["service.cache.stores"] == 1
        assert counters["service.cache.hits"] == 1
        # The uncached request contributed nothing to the cache tallies.
        assert counters["service.op.simulate"] == 3


class TestConstruction:
    def test_server_requires_exactly_one_transport(self):
        with pytest.raises(ValueError, match="transport"):
            SensingServer()
        with pytest.raises(ValueError, match="transport"):
            SensingServer(socket_path="x.sock", host="127.0.0.1", port=0)
        with pytest.raises(ValueError, match="queue_limit"):
            SensingServer(socket_path="x.sock", queue_limit=0)

    def test_connect_requires_exactly_one_transport(self):
        with pytest.raises(ValueError, match="transport"):
            repro.api.connect()
        with pytest.raises(ValueError, match="transport"):
            repro.api.connect(socket="x.sock", tcp="h:1")

    def test_tcp_transport_round_trips(self, tmp_path):
        with ServerThread(host="127.0.0.1", port=0, workers=1) as thread:
            assert thread.connect_kwargs.keys() == {"tcp"}
            with _connect(thread) as client:
                assert client.health()["status"] == "ok"
