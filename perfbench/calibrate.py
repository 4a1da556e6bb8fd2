"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores drifts by a factor of up to two within a minute while
the process keeps its CPU (CPU time tracks wall time, steal time stays near
zero). Wall time alone then measures the neighbours as much as the program.

Each kernel here does the same fixed work on every call, independent of the
program under test and of the run's seed. Its reference time ``REF_S`` is
its median on the reference host (a 2-vCPU x86 VM). The worker times a
kernel next to the ops it measures and rescales each op's wall time by
``(REF_S / kernel time) ** SENSITIVITY``: a time in reference-host
seconds. A slower program still reads slower, while a slower host does not.
Each workload names the kernel whose work most resembles its own:

- ``python``: interpreter-bound event handling (objects with ``__slots__``,
  a heap, dict updates, sorting), like the serving simulator;
- ``f16``: float16/float32 casts and batched float32 matmuls, like the
  float16 complex MMA;
- ``bits``: XOR of packed uint64 words, popcount and an int64 reduction,
  like the 1-bit GEMM.

``SENSITIVITY`` is how far the ops move with their kernel: the slope of log
op time against log kernel time. On that host the estimates ranged from
0.65 to 1.06 between workloads and sessions, and most fell near 0.85.

``python`` needs only the standard library, so the worker can time it
before it imports NumPy or the program.
"""

from __future__ import annotations

import heapq
import time


class _Event:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: float, key: int, value: float) -> None:
        self.t = t
        self.key = key
        self.value = value

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def _python_kernel() -> float:
    heap: list[_Event] = []
    totals: dict[int, float] = {}
    done: list[_Event] = []
    acc = 0.0
    for i in range(30_000):
        event = _Event((i * 7919) % 1000 * 1e-6, i & 63, float(i))
        heapq.heappush(heap, event)
        totals[event.key] = totals.get(event.key, 0.0) + event.value
        if len(heap) > 48:
            first = heapq.heappop(heap)
            acc += first.t * 2.0 + totals[first.key] * 1e-9
            done.append(first)
        if len(done) > 32:
            done.sort(key=lambda e: e.value)
            done = done[16:]
    return acc


class _NumpyKernels:
    """Operands made once per process from a fixed seed."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(20250101)
        self.a = rng.standard_normal((8, 256, 64)).astype(np.float32)
        self.b = rng.standard_normal((8, 64, 1024)).astype(np.float32)
        self.w = rng.integers(0, 2**63, size=(128, 1, 16), dtype=np.uint64)
        self.x = rng.integers(0, 2**63, size=(1, 256, 16), dtype=np.uint64)

    def f16(self) -> float:
        np = self.np
        acc = 0.0
        for _ in range(6):
            a = self.a.astype(np.float16).astype(np.float32)
            b = self.b.astype(np.float16).astype(np.float32)
            acc += float(np.matmul(a, b)[0, 0, 0])
        return acc

    def bits(self) -> float:
        np = self.np
        acc = 0
        for _ in range(18):
            mixed = self.w ^ self.x
            acc += int(np.bitwise_count(mixed).astype(np.int64).sum(axis=-1)[0, 0])
        return float(acc)


#: reference-host median of each kernel, in seconds.
REF_S = {"python": 0.055, "f16": 0.040, "bits": 0.045}
#: log-log slope of op time against kernel time.
SENSITIVITY = 0.85


class Calibrator:
    """Times one kernel; ``factor(seconds)`` maps its time to a speed factor."""

    def __init__(self, kernel: str) -> None:
        if kernel not in REF_S:
            raise ValueError(f"unknown calibration kernel {kernel!r}")
        self.kernel = kernel
        if kernel == "python":
            self._run = _python_kernel
        else:
            self._run = getattr(_NumpyKernels(), kernel)
            # The first call also pays for BLAS and ufunc start-up.
            self._run()

    def time(self) -> float:
        """Wall seconds of one kernel call."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def factor(self, kernel_s: float) -> float:
        """Reference seconds per wall second at the measured host speed."""
        return (REF_S[self.kernel] / kernel_s) ** SENSITIVITY
