"""Load generation over HTTP, and the ``repro serve`` child process.

Two traffic shapes drive a served engine:

* :func:`closed_loop` - each of ``connections`` keep-alive clients sends its
  next request only when the previous reply has arrived, so a slow server
  receives less load;
* :func:`open_loop` - requests are due on a fixed schedule whatever the
  server does.  Free connections take the next due request; latency is timed
  from the schedule, so waiting for a busy connection counts.  The time the
  generator itself sent late (after the request was due *and* a connection
  was free) is recorded, so a run where the generator fell behind can be
  told from one where the server did.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

#: Seconds to wait for ``/healthz`` and for a clean exit after SIGINT.
STARTUP_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 30.0


@dataclass
class Reply:
    """One request as the client saw it."""

    index: int  # position in the request sequence
    target: int  # index of the request body sent
    due: float  # when it was due (closed loop: when it was sent)
    sent: float
    done: float
    status: int
    body: bytes
    ready: float = 0.0  # open loop: when a connection was free for it

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def generator_lag(self) -> float:
        """How late the generator sent, beyond the schedule and a free
        connection (open loop only)."""
        return self.sent - max(self.due, self.ready)


def post(connection: http.client.HTTPConnection, body: bytes, request_id=None):
    """POST one ``/query`` body; returns ``(status, reply bytes)``."""
    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers["X-Request-Id"] = str(request_id)
    connection.request("POST", "/query", body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def get(port: int, path: str) -> bytes:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        return connection.getresponse().read()
    finally:
        connection.close()


def connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=120)


def _run_clients(count: int, client) -> None:
    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    port: int, bodies: Sequence[bytes], seconds: float, connections: int
) -> List[Reply]:
    """``connections`` clients cycle through ``bodies`` back to back."""
    replies: List[Reply] = []
    counter = iter(range(10**9))
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client(slot: int) -> None:
        connection = connect(port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    index = next(counter)
                target = index % len(bodies)
                sent = time.perf_counter()
                status, body = post(connection, bodies[target])
                done = time.perf_counter()
                replies.append(Reply(index, target, sent, sent, done, status, body))
        finally:
            connection.close()

    _run_clients(connections, client)
    replies.sort(key=lambda reply: reply.index)
    return replies


def open_loop(
    port: int, bodies: Sequence[bytes], rate: float, connections: int
) -> List[Reply]:
    """Request ``i`` of ``bodies`` is due at ``start + i / rate``."""
    replies: List[Reply] = []
    counter = iter(range(len(bodies)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def client(slot: int) -> None:
        connection = connect(port)
        try:
            while True:
                ready = time.perf_counter()
                with lock:
                    index = next(counter, None)
                if index is None:
                    return
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = post(connection, bodies[index])
                done = time.perf_counter()
                replies.append(Reply(index, index, due, sent, done, status, body, ready))
        finally:
            connection.close()

    _run_clients(connections, client)
    replies.sort(key=lambda reply: reply.index)
    return replies


class ServeProcess:
    """One ``python -m repro.cli serve`` child over a persisted engine."""

    def __init__(
        self, root: Path, engine_path: Path, workers: int, backend: str, work: Path
    ) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(work / "serve.log", "a", encoding="utf-8")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--engine", str(engine_path), "--port", "0",
                "--workers", str(workers), "--backend", backend,
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.port = self._read_port()
            self._wait_healthy()
        except BaseException:
            self.process.kill()
            self.process.communicate()
            self._log.close()
            raise

    def _read_port(self) -> int:
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(match.group(1))

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + STARTUP_TIMEOUT
        while True:
            try:
                if b'"ok"' in get(self.port, "/healthz"):
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.01)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> Optional[str]:
        """SIGINT the child and wait; returns a problem, or None on a clean
        exit 0."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            output, _ = self.process.communicate(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            return "repro serve ignored SIGINT"
        finally:
            self._log.close()
        if self.process.returncode != 0:
            return f"repro serve exited {self.process.returncode} (see serve.log)"
        if "Shut down cleanly." not in output:
            return "repro serve exited without its clean-shutdown line"
        return None
