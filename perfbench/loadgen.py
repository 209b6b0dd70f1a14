"""The server process and the load generator that drives it.

The server runs as its own process (``python -m repro.cli serve``, the
``repro-mqo serve`` entry point).  The generator speaks the server's
newline-delimited JSON protocol over plain sockets, with at most two
threads and two connections (the host has two cores).
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from perfbench.workloads import Job

#: Per-read socket timeout; no job in any workload comes near it.
READ_TIMEOUT_S = 60.0
#: How long an open-loop run waits for outstanding results after its
#: last send before counting them as failed.
OPEN_LOOP_DRAIN_S = 30.0
#: Grace period for a server to exit after ``shutdown``.
STOP_TIMEOUT_S = 30.0

_LISTENING = re.compile(rb"listening on [^\s:]+:(\d+)")


class ServerError(RuntimeError):
    """The server could not be started or stopped."""


@dataclass
class Outcome:
    """What happened to one job: timestamps (``time.monotonic``) and frame."""

    job: Job
    due: float
    sent: float
    arrived: Optional[float] = None
    frame: Optional[Dict] = None

    @property
    def latency_ms(self) -> float:
        """Due time to result arrival."""
        return (self.arrived - self.due) * 1000.0


class ServerProcess:
    """One ``repro-mqo serve`` process on an OS-assigned port.

    ``extra_pythonpath`` is prepended to ``PYTHONPATH`` (the traced run
    uses it for its start-up hook); ``env`` adds variables.
    """

    def __init__(
        self,
        root: str,
        serve_args: Sequence[str],
        log_path: str,
        extra_pythonpath: Sequence[str] = (),
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.root = root
        self.serve_args = list(serve_args)
        self.log_path = log_path
        self.extra_pythonpath = list(extra_pythonpath)
        self.env = dict(env or {})
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.spawned_at = 0.0

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn the server and wait until it listens."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            self.extra_pythonpath
            + [os.path.join(self.root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.update(self.env)
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *self.serve_args]
        with open(self.log_path, "wb") as log:
            self.spawned_at = time.monotonic()
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = self.spawned_at + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as log:
                match = _LISTENING.search(log.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        with open(self.log_path, "rb") as log:
            tail = log.read()[-2000:].decode(errors="replace")
        raise ServerError(f"server did not start listening:\n{tail}")

    def tree(self) -> List[int]:
        """The server pid and every descendant pid (shards, forkserver)."""
        if self.process is None:
            return []
        pids, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        frontier.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of peak resident memory (VmHWM) over the process tree."""
        total_kb = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful shutdown; waits until the whole process tree is gone."""
        if self.process is None or self.process.poll() is not None:
            return
        pids = self.tree()
        try:
            with Connection(self.port, timeout_s=10.0) as conn:
                conn.send(b'{"op":"shutdown","id":"stop","drain":true}\n')
                conn.read()
        except OSError:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        _wait_gone(pids[1:], timeout_s=STOP_TIMEOUT_S)

    def kill(self) -> None:
        """Hard stop of the whole tree (error paths)."""
        if self.process is None:
            return
        pids = self.tree()
        for pid in reversed(pids):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.process.wait()
        _wait_gone(pids[1:], timeout_s=10.0)


def _wait_gone(pids: Sequence[int], timeout_s: float) -> None:
    """Wait until none of ``pids`` is alive; SIGKILL stragglers at the deadline."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive:
        alive = [pid for pid in alive if _alive(pid)]
        if not alive:
            return
        if time.monotonic() > deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            deadline = time.monotonic() + timeout_s
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Connection:
    """One NDJSON connection to the server."""

    def __init__(self, port: int, timeout_s: float = READ_TIMEOUT_S) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
        # Burst frames go out back to back; Nagle's algorithm would hold
        # each one until the server acknowledged the previous one.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def read(self) -> Dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, op: str) -> Dict:
        """A single request/response op such as ``stats``."""
        self.send(f'{{"op":"{op}","id":"{op}"}}\n'.encode())
        while True:
            frame = self.read()
            if frame.get("id") == op:
                return frame

    def solve(self, job: Job) -> Dict:
        """Send one job and block until its terminal frame."""
        self.send(job.frame)
        while True:
            frame = self.read()
            if frame.get("id") == job.job_id and frame.get("type") in ("result", "error"):
                return frame


def run_sequential(port: int, jobs: Sequence[Job]) -> List[Outcome]:
    """Send ``jobs`` one after another on one connection (warm-up)."""
    outcomes = []
    with Connection(port) as conn:
        for job in jobs:
            sent = time.monotonic()
            frame = conn.solve(job)
            outcomes.append(Outcome(job, sent, sent, time.monotonic(), frame))
    return outcomes


def closed_loop(port: int, jobs: Sequence[Job], clients: int, start: float, seconds: float) -> List[Outcome]:
    """``clients`` callers, each sending its next job when the previous one returns.

    Client ``c`` takes jobs ``c, c + clients, ...``, sends the first at
    ``start`` and stops sending at ``start + seconds``; the job it has in
    flight then still completes.  Client 0 runs on the calling thread.
    """
    results: List[List[Outcome]] = [[] for _ in range(clients)]
    errors: List[BaseException] = []

    def client(index: int) -> None:
        try:
            with Connection(port) as conn:
                time.sleep(max(0.0, start - time.monotonic()))
                for job in jobs[index::clients]:
                    now = time.monotonic()
                    if now >= start + seconds:
                        return
                    outcome = Outcome(job, now, now)
                    results[index].append(outcome)
                    outcome.frame = conn.solve(job)
                    outcome.arrived = time.monotonic()
        except (OSError, ValueError) as exc:
            errors.append(exc)

    # Daemon threads: an interrupted run must not wait out a blocked read.
    others = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}", daemon=True)
        for i in range(1, clients)
    ]
    for thread in others:
        thread.start()
    client(0)
    for thread in others:
        thread.join()
    if errors:
        print(f"perfbench: client connection failed: {errors[0]!r}", file=sys.stderr)
    return [outcome for per_client in results for outcome in per_client]


def open_loop(port: int, jobs: Sequence[Job], start: float) -> List[Outcome]:
    """Send every job at ``start + job.due_s`` regardless of replies.

    The calling thread sends; one reader thread collects result frames
    off the same connection.  Jobs without a result ``OPEN_LOOP_DRAIN_S``
    after the last send stay without ``arrived`` (counted as failed).
    """
    outcomes = {job.job_id: Outcome(job, start + job.due_s, 0.0) for job in jobs}
    pending = set(outcomes)
    with Connection(port) as conn:

        def reader() -> None:
            try:
                while pending:
                    frame = conn.read()
                    outcome = outcomes.get(frame.get("id"))
                    if outcome is None or frame.get("type") not in ("result", "error"):
                        continue
                    outcome.arrived, outcome.frame = time.monotonic(), frame
                    pending.discard(outcome.job.job_id)
            except (OSError, ValueError):
                return  # drain deadline (socket closed) or a broken stream

        thread = threading.Thread(target=reader, name="collector", daemon=True)
        thread.start()
        try:
            for job in jobs:
                delay = start + job.due_s - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                outcomes[job.job_id].sent = time.monotonic()
                conn.send(job.frame)
            thread.join(timeout=OPEN_LOOP_DRAIN_S)
        finally:
            if thread.is_alive():
                conn.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked reader
                thread.join()
    return [outcomes[job.job_id] for job in jobs]
