"""Host-speed probe: reads how fast the CPU running the benchmark is, while
it runs.

A shared host slows each vCPU by up to 2x, in phases from a fraction of a
second to minutes, so wall times of the same code taken minutes apart differ
by 20-30 %.  The probe is a second process, pinned to the CPU that the
benchmark's main thread is pinned to, at nice 19.  The scheduler gives it
about 1.5 % of that CPU, in slices of a few milliseconds spread over the run,
and in each slice it does fixed units of work of two kinds, in turn:

- ``interp``: 4 x 4 numpy products and a Python loop, bound by the
  interpreter's speed, as mzdmd's fits are;
- ``array``: arithmetic on 4 x 10000 arrays, bound by the memory caches, as
  mzdmd's vectorised Monte Carlo integration is.

A shared host does not slow both kinds alike.  The probe's CPU time per
unit of a kind over a measurement is the speed the measurement saw; a time
divided by it, times ``REFERENCE_UNIT_S`` of that kind, is that time at
reference speed.  The probe's work does not depend on mzdmd.

CPU time leaves out the time a thread is ready but does not run, and wall
time does not.  So the benchmark takes two waits off a run's wall time
before scaling it (``Probe.lost_s``): the time the main thread waited for
its CPU behind other tasks (``run_delay`` in /proc/thread-self/schedstat),
and the time the host took the pinned CPU from the guest (steal in
/proc/stat).

Usage as a script (the benchmark starts it): python3 speed.py <file> <cpu>.
The probe writes, per kind, (units done, CPU nanoseconds) into <file> after
every unit and exits when byte 32 of <file> is set, or when its parent is
gone.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

KINDS = ("interp", "array")
# only scale factors, within a third of the probe's CPU time per unit on the
# baseline host (2 vCPUs, Intel Xeon, see README.md), so that a time at
# reference speed reads within a third of a wall time there
REFERENCE_UNIT_S = {"interp": 1.8e-4, "array": 2.5e-4}
_LAYOUT = struct.Struct("<qqqq")  # per kind: units, CPU ns
_STOP = _LAYOUT.size  # offset of the stop byte
_SIZE = _STOP + 8


def _probe(path: str, cpu: int) -> None:
    import numpy as np

    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    w_step, n0, f = 0.999 * q, rng.standard_normal(4), np.zeros((4, 20))
    x0 = rng.standard_normal((4, 10000))
    y = x0.copy()
    parent = os.getppid()
    done = [0, 0, 0, 0]
    with open(path, "r+b") as fh, mmap.mmap(fh.fileno(), _SIZE) as mm:
        while mm[_STOP] == 0:
            # an interp unit, about 0.15 ms
            start = time.thread_time_ns()
            w, m = np.eye(4), n0
            for j in range(f.shape[1]):
                w = w @ w_step
                m = w_step @ m
                f[:, j] = w @ (m - n0)
            s = 0
            for k in range(100):
                s += k * k
            done[0] += 1
            done[1] += time.thread_time_ns() - start
            # an array unit, about 0.15 ms; y -> x0 - y / 2 stays bounded
            start = time.thread_time_ns()
            for _ in range(4):
                y = x0 - 0.5 * y
            done[2] += 1
            done[3] += time.thread_time_ns() - start
            mm[0:_STOP] = _LAYOUT.pack(*done)
            if done[0] % 1000 == 0 and os.getppid() != parent:
                return


class Probe:
    """Runs the probe beside the calling thread, both pinned to one CPU.

    Use as a context manager; on exit the probe is stopped and waited for,
    and the calling thread's CPU affinity is restored."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._proc = None
        self._mm = None
        self._affinity = None

    def __enter__(self) -> "Probe":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_bytes(bytes(_SIZE))
        self._affinity = os.sched_getaffinity(0)
        self.cpu = min(self._affinity)
        os.sched_setaffinity(0, {self.cpu})
        try:
            self._proc = subprocess.Popen([sys.executable, __file__, str(self.path), str(self.cpu)])
            with open(self.path, "r+b") as fh:
                self._mm = mmap.mmap(fh.fileno(), _SIZE)
            # the probe has imported numpy and done its first unit
            deadline = time.monotonic() + 60
            while self.read()[0] == 0:
                if self._proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        if self._mm is not None:
            self._mm[_STOP] = 1
        if self._proc is not None:
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._mm is not None:
            self._mm.close()
        self.path.unlink(missing_ok=True)
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def read(self) -> tuple[int, ...]:
        """Per kind, (units done, CPU ns); the same on two reads in a row."""
        while True:
            first = self._mm[0:_STOP]
            if self._mm[0:_STOP] == first:
                return _LAYOUT.unpack(first)

    def lost_s(self) -> float:
        """Seconds the calling thread has waited for its CPU behind other
        tasks, plus the seconds the host has taken the pinned CPU."""
        with open("/proc/thread-self/schedstat") as fh:
            run_delay_ns = int(fh.read().split()[1])
        return run_delay_ns / 1e9 + steal_s(self.cpu)

    def since(self, mark: tuple[int, ...]) -> dict[str, float]:
        """Per kind, the probe's CPU seconds per unit since ``mark``, a
        ``read()``; waits for one more unit if it did none."""
        while True:
            now = self.read()
            if now[0] > mark[0]:
                return {kind: (now[2 * i + 1] - mark[2 * i + 1]) / 1e9 / (now[2 * i] - mark[2 * i])
                        for i, kind in enumerate(KINDS)}
            if self._proc.poll() is not None:
                raise RuntimeError("the speed probe stopped")
            time.sleep(0.001)


def steal_s(cpu: int) -> float:
    """Seconds the host has taken from ``cpu`` since boot (/proc/stat)."""
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(f"cpu{cpu} "):
                return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    raise RuntimeError(f"no cpu{cpu} line in /proc/stat")


def at_reference_speed(seconds: float, unit_s: dict[str, float], kind: str) -> float:
    """``seconds`` measured while a probe unit of ``kind`` took
    ``unit_s[kind]``, scaled to the speed at which it takes
    ``REFERENCE_UNIT_S[kind]``."""
    return seconds * REFERENCE_UNIT_S[kind] / unit_s[kind]


if __name__ == "__main__":
    _probe(sys.argv[1], int(sys.argv[2]))
