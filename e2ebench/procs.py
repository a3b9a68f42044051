"""Program processes: launch, readiness, CPU and memory read from outside.

Every program process is ``python -m repro.cli <command>`` run from the
checkout's ``src`` tree.  CPU and peak memory are read from the kernel,
never from the program: ``wait4`` rusage for a process that has exited
(its own usage plus every child it waited for, such as a process pool),
``/proc/<pid>/stat`` and ``/proc/<pid>/status`` for one that is running.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_TICK = os.sysconf("SC_CLK_TCK")
_URL = re.compile(r"http://[0-9.]+:[0-9]+")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FAULTS", None)  # no injected faults in a measurement
    return env


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def run_cli(args: list[str], cwd: Path) -> tuple[float, int, str, float, float]:
    """Run one ``repro.cli`` process to its end.

    Returns ``(wall_s, exit_code, stdout, cpu_s, peak_rss_mb)``; CPU and
    peak RSS include the process's waited-for children (its pool).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cli(args), cwd=cwd, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        sys.stderr.write(out.decode("utf-8", "replace")[-2000:])
    return (
        wall,
        proc.returncode,
        out.decode("utf-8", "replace"),
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss * 1024 / 1e6,
    )


def cpu_seconds(pid: int) -> float:
    """User+system CPU of a running process and its waited-for children."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return sum(int(v) for v in fields[11:15]) / _TICK


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


def get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


class Program:
    """One long-lived program process (``serve``, ``coordinate``, ``worker``)."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self.t_launch = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        self.url: str | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_url(self, timeout: float = 60.0) -> str:
        """The bound URL a ``serve``/``coordinate`` prints on its first line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"program exited before printing its URL: {self.proc.args}")
            match = _URL.search(line)
            if match:
                self.url = match.group(0)
                return self.url
        raise RuntimeError("timed out waiting for the program's URL")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def wait_healthz(url: str, ready, timeout: float = 60.0) -> dict:
    """Poll ``/healthz`` every 5 ms until ``ready(body)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            body = get_json(f"{url}/healthz", timeout=2.0)
        except (urllib.error.URLError, ConnectionError, OSError):
            body = None
        if body is not None and ready(body):
            return body
        time.sleep(0.005)
    raise RuntimeError(f"{url} not ready after {timeout:g}s")
