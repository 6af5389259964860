"""Resource-utilization sampling for the Figure 7 reproduction.

A background thread samples the current process's CPU time, resident set
size, and cumulative I/O from ``/proc/self`` at a fixed interval,
producing the time series the paper plots per system.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["ResourceSample", "ResourceSampler"]

_PAGE = os.sysconf("SC_PAGESIZE") if hasattr(os, "sysconf") else 4096


@dataclass
class ResourceSample:
    elapsed: float
    cpu_percent: float
    rss_mb: float
    read_mb: float
    write_mb: float


def _open_proc(name: str) -> Optional[int]:
    try:
        return os.open(f"/proc/self/{name}", os.O_RDONLY)
    except OSError:
        return None


def _pread_text(fd: Optional[int]) -> str:
    # One syscall per read: each call that drops the GIL costs the sampler
    # up to a switch interval to win it back from a CPU-bound main thread,
    # so a text-mode open/read/close per sample starved it for tens of ms.
    if fd is None:
        return ""
    try:
        return os.pread(fd, 4096, 0).decode("ascii", "replace")
    except OSError:
        return ""


def _parse_rss_mb(statm: str) -> float:
    fields = statm.split()
    rss_pages = int(fields[1]) if len(fields) > 1 else 0
    return rss_pages * _PAGE / (1024 * 1024)


def _parse_io_mb(io: str) -> tuple:
    read_bytes = write_bytes = 0
    for line in io.splitlines():
        if line.startswith("read_bytes:"):
            read_bytes = int(line.split()[1])
        elif line.startswith("write_bytes:"):
            write_bytes = int(line.split()[1])
    return read_bytes / 1e6, write_bytes / 1e6


class ResourceSampler:
    """Samples CPU %, RSS, and I/O until stopped.

    CPU time is the process-wide ``time.process_time()``, which never
    releases the GIL; RSS and I/O come from ``/proc/self/statm`` and
    ``/proc/self/io``, opened once and re-read with a single ``pread``
    per sample.

    Usage::

        with ResourceSampler(interval=0.05) as sampler:
            run_workload()
        series = sampler.samples
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: List[ResourceSample] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._statm_fd: Optional[int] = None
        self._io_fd: Optional[int] = None

    def __enter__(self) -> "ResourceSampler":
        self._statm_fd = _open_proc("statm")
        self._io_fd = _open_proc("io")
        self._start_time = time.perf_counter()
        self._last_cpu = time.process_time()
        self._last_wall = self._start_time
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        if self._thread is None or not self._thread.is_alive():
            for fd in (self._statm_fd, self._io_fd):
                if fd is not None:
                    os.close(fd)
            self._statm_fd = self._io_fd = None
        return False

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            now = time.perf_counter()
            cpu = time.process_time()
            wall_delta = now - self._last_wall
            cpu_percent = (
                100.0 * (cpu - self._last_cpu) / wall_delta
                if wall_delta > 0 else 0.0
            )
            self._last_cpu, self._last_wall = cpu, now
            read_mb, write_mb = _parse_io_mb(_pread_text(self._io_fd))
            self.samples.append(
                ResourceSample(
                    elapsed=now - self._start_time,
                    cpu_percent=cpu_percent,
                    rss_mb=_parse_rss_mb(_pread_text(self._statm_fd)),
                    read_mb=read_mb,
                    write_mb=write_mb,
                )
            )

    def peak_rss_mb(self) -> float:
        return max((s.rss_mb for s in self.samples), default=0.0)

    def mean_cpu_percent(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.cpu_percent for s in self.samples) / len(self.samples)
