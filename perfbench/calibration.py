"""Machine-speed calibration for timings taken on a shared host.

On a virtual machine that shares cores with other tenants, the speed of the
same single-threaded work swings by up to 1.5x over seconds.  Every timed
loop therefore runs this fixed kernel between ops (outside the op timings)
at a steady cadence, so its timings follow the machine's speed.  ``scale``
gives each op's latency at the reference speed: the speed at which the
kernel takes REFERENCE_S.

The kernel mixes interpreter work, small LAPACK calls and the standard
library work of a CLI call (reading a file, JSON, argument parsing), like
the package's ops, and shares no code with the package.  The mix tracked
all three workloads' speed better than interpreter and LAPACK work alone.
It binds the numpy functions at import, so span wrappers installed on
``numpy.linalg`` later never see it.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import numpy as np

# Kernel time on the reference machine: a 2-vCPU x86_64 virtual machine,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS 0.3.31.
REFERENCE_S = 4.9e-3
EVERY_S = 0.05  # cadence between kernel runs inside a timed loop
WINDOW = 21  # kernel timings per local speed estimate: about 1.1 s

_qr, _svd, _det = np.linalg.qr, np.linalg.svd, np.linalg.det
_M = np.random.default_rng(0).standard_normal((6, 4))
_DOC = json.dumps({"field": "complex", "subspaces": {c: [[[i / 2, -i]] * 6 for i in range(3)] for c in "VWXYZ"}})
_PARSER = argparse.ArgumentParser()
_PARSER.add_argument("document")
_PARSER.add_argument("name")
_PARSER.add_argument("--json", action="store_true")
_PARSER.add_argument("--method", default="projection")


def kernel() -> float:
    s = 0
    for i in range(8000):
        s += i * i % 7
    for _ in range(15):
        q, r = _qr(_M)
        _svd(q.T @ _M, compute_uv=False)
        s += _det(r)
    for _ in range(16):
        with open(__file__, "rb") as f:
            s += len(f.read())
        s += len(json.dumps(json.loads(_DOC)))
        s += len(_PARSER.parse_args(["a.json", "V", "--json", "--method", "any-dim"]).method)
    return s


class Calibration:
    """Kernel timings taken alongside one timed loop, and where they fell in it."""

    def __init__(self):
        self.times: list[float] = []
        self.marks: list[int] = []  # ops finished when each timing was taken
        self._due = 0.0

    def run(self, at: int = 0, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = perf_counter()
            kernel()
            self.times.append(perf_counter() - start)
            self.marks.append(at)
        self._due = perf_counter() + EVERY_S

    def tick(self, at: int) -> None:
        """Run the kernel if EVERY_S has passed since it last ran."""
        if perf_counter() >= self._due:
            self.run(at)

    def slowdown(self) -> float:
        """Mean kernel time over the reference time; 1.0 at the reference speed."""
        return float(np.mean(self.times)) / REFERENCE_S

    def scale(self, latencies) -> np.ndarray:
        """Each op's latency at the reference speed, using the median kernel time
        over the WINDOW timings nearest the op, so speed swings are followed."""
        times = np.asarray(self.times)
        half = min(WINDOW // 2, (len(times) - 1) // 2)
        padded = np.pad(times, half, mode="edge")
        local = np.median(np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1), axis=1)
        segment = np.searchsorted(np.asarray(self.marks), np.arange(len(latencies)), side="right") - 1
        return np.asarray(latencies) / (local[np.maximum(segment, 0)] / REFERENCE_S)


# Start-up of a fresh Python process that imports numpy and nothing of the
# package, on the reference machine.  Fresh processes start up to 1.5x slower
# for minutes at a time on a shared host, and the package's set-up probes and
# this one slow down together: over 20 sets of 15 probe pairs, the median
# set-up time spread by 25% (IQR/median), its ratio to this one by 5%.
START_REFERENCE_S = 0.15
START_REFERENCE_CODE = "import numpy.linalg"


def scale_start(times, reference_times) -> float:
    """Median start-up time at the reference speed, given reference-process
    start-ups measured alongside, interleaved with ``times``."""
    return float(np.median(times)) * START_REFERENCE_S / float(np.median(reference_times))
