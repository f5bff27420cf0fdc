"""Open-loop load generator for the served workload.

:func:`make_schedule` turns a seed into a fixed list of requests with
due times at a fixed offered rate.  :class:`OpenLoopGenerator` sends
each request at its due time over at most ``connections`` sockets, no
matter how many are still outstanding, and times every request from
its *due* time, so a server that falls behind shows up as latency
instead of silently slowing the offered load (no coordinated
omission).  How late the generator itself sent is recorded as lag.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Slot pattern per 10 requests: ``M`` a simulate on a new key (a store
#: miss), ``H`` a simulate on a key seen earlier (a hit), ``C`` a
#: control request (``health`` or ``stats``).
PATTERN = "MHHHHMHHHC"
#: A key becomes eligible for a repeat this long after its first due
#: time, so the first request has been answered and stored by then.
REPEAT_AFTER_S = 2.0
#: Situations the misses cycle through (straight roads, similar cost).
MISS_SITUATIONS = (1, 2, 3, 5)


@dataclass(frozen=True)
class Planned:
    index: int
    due_s: float
    op: str
    params: Optional[Dict[str, object]]
    #: ``"miss"``, ``"hit"`` or ``"control"`` (what the schedule intends).
    kind: str


def simulate_params(situation: int, seed: int) -> Dict[str, object]:
    """Wire parameters of one served rollout."""
    return {
        "situation": situation,
        "case": "case4",
        "length_m": 40.0,
        "frame": [48, 24],
        "seed": seed,
        "cache": "auto",
    }


def make_schedule(seed: int, seconds: float, rate_per_s: float) -> List[Planned]:
    """The seeded request schedule of one served run.

    Due times are evenly spaced at ``1 / rate_per_s``.  Slot kinds
    follow :data:`PATTERN`, so the miss/hit/control mix is the same for
    every seed; the seed picks the run seeds of new keys, which earlier
    key a hit repeats (skewed: the k-th eligible key has weight
    ``1/(k+1)``, most recent first), and health vs stats.  A hit slot
    with no eligible key yet becomes a miss.
    """
    rng = random.Random(seed)
    gap = 1.0 / rate_per_s
    n = max(1, int(seconds * rate_per_s))
    plan: List[Planned] = []
    first_due: List[Tuple[float, Dict[str, object]]] = []
    misses = 0
    for i in range(n):
        due = i * gap
        slot = PATTERN[i % len(PATTERN)]
        if slot == "C":
            op = "health" if rng.random() < 0.5 else "stats"
            plan.append(Planned(i, due, op, None, "control"))
            continue
        eligible = [p for d, p in first_due if due - d >= REPEAT_AFTER_S]
        if slot == "H" and eligible:
            recent = eligible[::-1]
            weights = [1.0 / (k + 1) for k in range(len(recent))]
            params = rng.choices(recent, weights=weights)[0]
            plan.append(Planned(i, due, "simulate", dict(params), "hit"))
            continue
        situation = MISS_SITUATIONS[misses % len(MISS_SITUATIONS)]
        misses += 1
        params = simulate_params(situation, rng.randrange(1, 2**31 - 1))
        first_due.append((due, params))
        plan.append(Planned(i, due, "simulate", dict(params), "miss"))
    return plan


@dataclass
class RequestOutcome:
    """What happened to one planned request."""

    planned: Planned
    lag_ms: float = 0.0
    sent_at: float = 0.0
    done_at: Optional[float] = None
    ok: bool = False
    error: Optional[str] = None
    result: object = None

    def latency_ms(self) -> Optional[float]:
        """Due time to response, or ``None`` if no response arrived."""
        if self.done_at is None:
            return None
        return (self.done_at - self.sent_at) * 1e3 + self.lag_ms

    def service_ms(self) -> Optional[float]:
        """Send to response (excludes the generator's own lag)."""
        if self.done_at is None:
            return None
        return (self.done_at - self.sent_at) * 1e3


@dataclass
class _Conn:
    sock: socket.socket
    reader: object
    pending: Dict[str, RequestOutcome] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)


class OpenLoopGenerator:
    """Send a schedule open loop over ``connections`` sockets.

    ``decode`` turns an ok response's ``result`` into whatever the
    caller wants to keep (it runs on the receiving thread, off the send
    path).
    """

    def __init__(self, socket_path: str, connections: int, decode, deadline_ms: float):
        from repro.service import protocol

        self._protocol = protocol
        self._decode = decode
        self._deadline_ms = deadline_ms
        self._conns: List[_Conn] = []
        for _ in range(max(1, connections)):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            self._conns.append(_Conn(sock, sock.makefile("rb")))

    def run(self, plan: Sequence[Planned], drain_timeout_s: float) -> List[RequestOutcome]:
        """Send every planned request on time; wait for the answers."""
        protocol = self._protocol
        outcomes = [RequestOutcome(p) for p in plan]
        readers = [
            threading.Thread(target=self._receive, args=(conn,), daemon=True)
            for conn in self._conns
        ]
        for thread in readers:
            thread.start()
        start = time.perf_counter()
        for k, outcome in enumerate(outcomes):
            planned = outcome.planned
            due = start + planned.due_s
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                time.sleep(min(due - now, 0.05))
            conn = self._conns[k % len(self._conns)]
            request_id = f"r{planned.index}"
            line = protocol.encode_request(
                op=planned.op,
                request_id=request_id,
                params=planned.params,
                deadline_ms=self._deadline_ms if planned.op == "simulate" else None,
            )
            with conn.lock:
                conn.pending[request_id] = outcome
            sent = time.perf_counter()
            outcome.sent_at = sent
            outcome.lag_ms = (sent - due) * 1e3
            try:
                conn.sock.sendall(line)
            except OSError as exc:
                outcome.error = f"transport: {exc}"
                with conn.lock:
                    conn.pending.pop(request_id, None)
        deadline = time.perf_counter() + drain_timeout_s
        for conn in self._conns:
            while time.perf_counter() < deadline:
                with conn.lock:
                    if not conn.pending:
                        break
                time.sleep(0.01)
        for conn in self._conns:
            with conn.lock:
                for outcome in conn.pending.values():
                    outcome.error = outcome.error or "transport: no response"
                conn.pending.clear()
        return outcomes

    def _receive(self, conn: _Conn) -> None:
        protocol = self._protocol
        while True:
            try:
                line = conn.reader.readline()
            except (OSError, ValueError):
                return
            if not line:
                return
            done = time.perf_counter()
            response = protocol.decode_response(line)
            with conn.lock:
                outcome = conn.pending.pop(response.get("id"), None)
            if outcome is None:
                continue
            outcome.done_at = done
            if response.get("ok"):
                try:
                    outcome.result = self._decode(outcome.planned, response.get("result"))
                    outcome.ok = True
                except Exception as exc:  # a bad payload is a failed request
                    outcome.error = f"decode: {type(exc).__name__}: {exc}"
            else:
                error = response.get("error") or {}
                outcome.error = str(error.get("code", "error"))

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.reader.close()
            conn.sock.close()
