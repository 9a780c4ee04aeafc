"""A ``repro serve --mmap`` subprocess, started and stopped by the benchmark.

The server runs with shipped defaults on an ephemeral port; the port is
read from its start-up line.  ``/proc/<pid>`` gives its peak RSS and CPU
time, so the benchmark can report them without touching the program.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from openloop import get_json

__all__ = ["Server", "vmhwm_mb"]

_URL = re.compile(r"on http://([0-9.]+):(\d+)")
#: a server the benchmark failed to stop (it was killed) exits by itself
#: within the 180 s a benchmark run may take
MAX_LIFETIME_S = 175


class Server:
    """One server process; ``setup_s`` is spawn to the first 200 on /healthz."""

    def __init__(self, bundle: str, *, src: str, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--model", bundle, "--mmap", "--port", "0",
                "--max-seconds", str(MAX_LIFETIME_S),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            line = self.proc.stdout.readline()
            match = _URL.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            deadline = start + timeout
            while True:
                try:
                    status, _ = get_json(self.host, self.port, "/healthz")
                except OSError:
                    status = None
                if status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.01)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        """utime + stime of the server so far, in seconds."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's VmHWM in MiB."""
        return vmhwm_mb(self.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
