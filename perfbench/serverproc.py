"""One server process per run: launch, readiness, CPU/RSS, bounded stop.

The server is the real CLI, ``python -m repro serve``, started from the
checkout root with ``PYTHONPATH=src`` and ``TMPDIR`` pointed into the
run directory (so a leaked temp dir is visible), under ``-X
faulthandler`` so that a hung stop can be reported with its stacks.  In a traced run the
same arguments go to ``perfbench/traced_serve.py`` instead.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

#: Bounded wait for a SIGINT stop before the run is failed.
STOP_TIMEOUT_S = 30.0
#: Bounded wait for the listening banner(s).
READY_TIMEOUT_S = 60.0

_BANNER = re.compile(r"^(http )?listening on (\S+):(\d+)$")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server failed to start, hung on stop, or leaked."""


class Server:
    """A running ``repro serve`` child process."""

    def __init__(
        self,
        repo: Path,
        run_dir: Path,
        args: List[str],
        traced_spans: Optional[Path] = None,
    ) -> None:
        tmp = run_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        env["TMPDIR"] = str(tmp)
        if traced_spans is not None:
            env["PERFBENCH_SPANS"] = str(traced_spans)
            command = [sys.executable, "-X", "faulthandler", str(Path(__file__).with_name("traced_serve.py"))]
        else:
            command = [sys.executable, "-X", "faulthandler", "-m", "repro"]
        self.expect = sum(1 for flag in ("--listen", "--http") if flag in args)
        self.addresses = {}
        self.stderr_lines: List[str] = []
        self._ready = threading.Event()
        self.rusage = None
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command + ["serve", "--quiet"] + args,
            cwd=str(repo),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            line = line.rstrip("\n")
            match = _BANNER.match(line)
            if match:
                kind = "http" if match.group(1) else "socket"
                self.addresses[kind] = (match.group(2), int(match.group(3)))
                if len(self.addresses) >= self.expect:
                    self._ready.set()
            else:
                self.stderr_lines.append(line)
        self._ready.set()

    def wait_ready(self) -> float:
        """Block until every listener is up; returns seconds since launch."""
        if not self._ready.wait(READY_TIMEOUT_S) or len(self.addresses) < self.expect:
            self.kill()
            raise ServerError(
                "server did not become ready: " + " | ".join(self.stderr_lines[-5:])
            )
        return time.perf_counter() - self.launched

    def cpu_seconds(self) -> float:
        """utime + stime of the server process so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        """SIGINT, then a bounded wait; a hang kills the server and raises."""
        # os.kill/os.wait4 rather than Popen.poll: poll would reap the
        # child and lose its rusage (peak RSS).
        os.kill(self.process.pid, signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            pid, status, rusage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self.rusage = rusage
                self.process.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.02)
        else:
            # faulthandler (-X faulthandler) dumps every thread's stack
            # on SIGABRT: the hang is reported with where it hung.
            os.kill(self.process.pid, signal.SIGABRT)
            self.kill()
            raise ServerError(
                f"server did not stop within {STOP_TIMEOUT_S:.0f}s of SIGINT; "
                "its threads at the time:\n" + "\n".join(self.stderr_lines[-60:])
            )
        self._reader.join(timeout=5.0)
        if self.process.returncode != 0:
            raise ServerError(
                f"server exited with code {self.process.returncode}: "
                + " | ".join(self.stderr_lines[-5:])
            )

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(timeout=5.0)

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0
