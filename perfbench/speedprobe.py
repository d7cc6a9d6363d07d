"""A calibration loop that shares one CPU with each measured command.

The vCPUs of a shared virtual machine change speed by up to 1.7x for
seconds at a time (the host is shared with other tenants), so
a command's wall time and CPU time both swing with the host. The probe
measures that speed where the command runs: it loops over a fixed chunk of
mixed Python and small-array numpy work (the kind of work crossrec does),
pinned to the same CPU as the command, and publishes the chunks it has
finished and the CPU time it has used. The scheduler interleaves the two in
slices of milliseconds, so over the command's lifetime both see the same
mix of fast and slow periods. The probe runs at nice 4, so it takes about
30% of the CPU and a command's wall time grows by about 1.4x rather than 2x;
the correction was as good as at equal priority, while at nice 19 its rare,
cache-cold slices made it worse. The probe's chunks per CPU-second in that
window is the CPU's speed; the command's CPU time multiplied by
speed / REFERENCE_CHUNKS_PER_S is its time on a CPU that runs the probe at
the reference rate.

Run as a script it is the loop, writing two doubles (chunks, CPU seconds)
to STATE_FILE after every chunk:

    python3 perfbench/speedprobe.py STATE_FILE
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import subprocess
import sys
import time

# about the probe's rate on a fast period of the reference host (2-vCPU VM, Python
# 3.11, numpy 2.4 with scipy-openblas, one BLAS thread) while it shares that
# vCPU with a crossrec command
REFERENCE_CHUNKS_PER_S = 15000.0
NICE = 4
STATE = struct.Struct("dd")
START_TIMEOUT_S = 30.0


def loop(state_path):
    import numpy as np

    os.nice(NICE)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(256, 8))
    w = rng.normal(size=(8, 16))
    idx = rng.integers(0, 256, 32)
    acc = np.zeros((256, 16))
    with open(state_path, "r+b") as fh:
        state = mmap.mmap(fh.fileno(), STATE.size)
    chunks = 0
    while True:
        for _ in range(4):
            y = np.maximum(a @ w, 0.0)
            np.add.at(acc, idx, y[:32])
            s = 0
            for i in range(60):
                s += i
        chunks += 1
        state[:STATE.size] = STATE.pack(chunks, time.process_time())


class SpeedProbe:
    """The parent side: starts the loop on `cpu`, reads its progress, stops it."""

    def __init__(self, state_path, cpu, env):
        self.cpu = cpu
        with open(state_path, "wb") as fh:
            fh.write(bytes(STATE.size))
        with open(state_path, "r+b") as fh:
            self.state = mmap.mmap(fh.fileno(), STATE.size)
        with self.pinned():
            self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), state_path], env=env)
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.read()[0] < 1:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError("speed probe did not start")
            time.sleep(0.01)

    @contextlib.contextmanager
    def pinned(self):
        """Processes started inside the block inherit the probe's CPU."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            yield
        finally:
            os.sched_setaffinity(0, allowed)

    def read(self):
        """(chunks finished, probe CPU seconds) so far."""
        return STATE.unpack(self.state[:STATE.size])

    @staticmethod
    def rate(before, after):
        """Chunks per probe CPU-second between two reads; None if it made no progress."""
        chunks, cpu = after[0] - before[0], after[1] - before[1]
        return chunks / cpu if chunks > 0 and cpu > 0 else None

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.state.close()


if __name__ == "__main__":
    loop(sys.argv[1])
