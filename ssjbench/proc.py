"""Process-group accounting for the benchmark's operation processes, read
from /proc: CPU time of an operation's process group (the Ray driver, GCS,
raylet and workers), peak RSS, and stopping the group."""

from __future__ import annotations

import os
import signal
import threading
import time

_TICK = os.sysconf('SC_CLK_TCK')


def _pids() -> list:
    return [int(n) for n in os.listdir('/proc') if n.isdigit()]


def _stat(pid: int):
    """Fields of /proc/<pid>/stat after the command name: [0] state,
    [1] ppid, [2] pgid, [11] utime, [12] stime (ticks); None if gone."""
    try:
        with open(f'/proc/{pid}/stat') as f:
            raw = f.read()
    except OSError:
        return None
    return raw[raw.rindex(')') + 2:].split()


class GroupCpu:
    """User + system CPU seconds of process group ``pgid``: the Ray driver
    and every Ray process it started, which keep its group.  Each process
    counts with the last value sampled, so a worker that exits (the raylet
    reaps workers without adding them to its own child times) keeps what it
    used up to its last sample; ``watch`` samples in the background."""

    def __init__(self, pgid: int):
        self.pgid = pgid
        self._ticks: dict = {}
        self._lock = threading.RLock()  # sample() also runs in handlers

    def sample(self, rescan: bool = True) -> float:
        """Sample the known members, or all processes when ``rescan``;
        returns the total."""
        with self._lock:
            pids = _pids() if rescan else list(self._ticks)
            for pid in pids:
                f = _stat(pid)
                if f is not None and int(f[2]) == self.pgid:
                    self._ticks[pid] = int(f[11]) + int(f[12])
            return sum(self._ticks.values()) / _TICK

    def watch(self, interval: float = 0.05, rescan_every: int = 10) -> None:
        def loop():
            n = 0
            while True:
                time.sleep(interval)
                n += 1
                self.sample(rescan=n % rescan_every == 0)
        threading.Thread(target=loop, daemon=True, name='cpu-meter').start()


def peak_rss_mb(pid: int) -> float:
    """High-water RSS of one process (VmHWM), in MiB."""
    try:
        with open(f'/proc/{pid}/status') as f:
            for line in f:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def group_members(pgid: int) -> list:
    """Pids of live (non-zombie) processes in process group ``pgid``."""
    return [p for p in _pids()
            if (f := _stat(p)) is not None and int(f[2]) == pgid
            and f[0] != 'Z']


def kill_group(pgid: int, wait_s: float = 10.0) -> bool:
    """SIGKILL every process of group ``pgid`` and wait until none is left;
    returns False if some process outlived ``wait_s``."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return True
        if not group_members(pgid):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
