"""Process hygiene for the ``dharma serve`` children of the UDP workloads.

Every child is started in its own process group on port 0 with a
deterministic node id (``--node-name``), and the whole fleet is killed on
every exit path: normal completion, an exception, SIGINT/SIGTERM (turned into
``SystemExit`` by :func:`install_signal_handlers`, so ``finally`` blocks and
``atexit`` hooks run) and interpreter shutdown (``atexit`` + group kill).  A
child that never prints its ``listening on udp://`` handshake raises with the
child's captured output attached, so a broken environment explains itself.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

__all__ = ["ServeFleet", "ServeProcess", "SpawnError", "install_signal_handlers"]

_LISTENING = re.compile(r"listening on udp://(\S+)")
#: Printed once bootstrap finished; only then is the child's routing table
#: ready, so this -- not the listening line -- ends the handshake.
_JOINED = re.compile(r"^(founded a new overlay|joined overlay via)")

#: Every fleet alive in this process; the ``atexit`` hook reaps them all.
_LIVE_FLEETS: "set[ServeFleet]" = set()


class SpawnError(RuntimeError):
    """A serve child failed to come up (its output is in the message)."""


def _reap_all() -> None:
    for fleet in list(_LIVE_FLEETS):
        fleet.kill()


atexit.register(_reap_all)


def install_signal_handlers() -> None:
    """Make SIGINT/SIGTERM unwind the stack instead of killing us outright."""

    def _exit(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)


@dataclass
class ServeProcess:
    """One ``python -m repro.cli serve`` child."""

    name: str
    process: subprocess.Popen
    stats_path: str
    address: str = ""
    joined: bool = False
    spawn_s: float = 0.0
    output: list[str] = field(default_factory=list)
    #: Thread draining the child's stdout (so the pipe never fills).
    pump: threading.Thread | None = None

    def alive(self) -> bool:
        return self.process.poll() is None

    def signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.process.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def stats(self) -> dict | None:
        """The child's ``--stats-out`` document (written on graceful exit)."""
        try:
            with open(self.stats_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None


class ServeFleet:
    """A set of serve children forming one overlay on 127.0.0.1."""

    def __init__(
        self, src_dir: str, scratch_dir: str, handshake_timeout_s: float = 30.0
    ) -> None:
        self.src_dir = src_dir
        self.handshake_timeout_s = handshake_timeout_s
        self.children: list[ServeProcess] = []
        #: ``--stats-out`` files live here (inside the checkout, git-ignored).
        self._workdir = tempfile.TemporaryDirectory(prefix=".bench-e2e-", dir=scratch_dir)
        _LIVE_FLEETS.add(self)

    # -- spawning ------------------------------------------------------------- #

    def spawn(self, name: str, join: str | None, extra_args: list[str]) -> ServeProcess:
        """Start one child and wait for its listening handshake."""
        stats_path = os.path.join(self._workdir.name, f"{name}.json")
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--node-name", name, "--stats-out", stats_path, *extra_args,
        ]
        if join is not None:
            command += ["--join", join]
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        child = ServeProcess(name=name, process=process, stats_path=stats_path)
        self.children.append(child)
        ready = threading.Event()

        def pump() -> None:
            assert process.stdout is not None
            for line in process.stdout:
                child.output.append(line.rstrip("\n"))
                match = _LISTENING.search(line)
                if match and not child.address:
                    child.address = match.group(1)
                elif _JOINED.match(line):
                    child.joined = True
                    ready.set()
            ready.set()  # EOF: the child died; wake the waiter

        child.pump = threading.Thread(target=pump, name=f"pump-{name}", daemon=True)
        child.pump.start()
        ready.wait(self.handshake_timeout_s)
        child.spawn_s = time.perf_counter() - started
        if not child.joined:
            self.kill()
            raise SpawnError(
                f"serve child {name!r} did not report a finished bootstrap within "
                f"{self.handshake_timeout_s:.0f}s (exit code {process.poll()}); its output:\n"
                + "\n".join(child.output[-40:])
            )
        return child

    # -- teardown ------------------------------------------------------------- #

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """SIGINT every live child (they write ``--stats-out`` and leave),
        wait, then :meth:`kill` whatever is left."""
        for child in self.children:
            if child.alive():
                child.signal_group(signal.SIGINT)
        deadline = time.monotonic() + timeout_s
        for child in self.children:
            try:
                child.process.wait(max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
        self._kill_children()

    def _kill_children(self) -> None:
        for child in self.children:
            child.signal_group(signal.SIGKILL)
        for child in self.children:
            try:
                child.process.wait(5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel trouble
                pass
            if child.pump is not None:
                child.pump.join(5.0)  # the child is dead, so its stdout hits EOF
            if child.process.stdout is not None:
                child.process.stdout.close()

    def kill(self) -> None:
        """SIGKILL every child's process group and drop the scratch files."""
        self._kill_children()
        self._workdir.cleanup()
        _LIVE_FLEETS.discard(self)

    def __enter__(self) -> "ServeFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
