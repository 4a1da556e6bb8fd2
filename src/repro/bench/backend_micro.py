"""Experiment: backend micro-benchmarks — wall-clock hot-path throughput.

Unlike every other experiment (which reports *modelled* device time from
the analytic cost layer), this one measures real wall-clock throughput of
the vectorized functional hot paths — 1-bit packing, the K-major
transpose, the float16 5-step complex MMA and the packed 1-bit GEMM — on
every detected :mod:`repro.backend` array backend. Two purposes:

* **pin the vectorization win**: the packing kernel is also implemented as
  a deliberately scalar Python loop
  (:func:`repro.ccglib.packing.pack_sign_planar_scalar`, the executable
  specification of the bit layout); the ``speedup`` table measures the
  vectorized path against it and the findings assert the pinned >= 5x
  floor, so a future change that quietly de-vectorizes the hot path fails
  the bench; the packed 1-bit GEMM likewise runs both its popcount
  executable spec (:func:`repro.ccglib.bit_gemm.popcount_bit_gemm`) and
  its sign-GEMM fast path over a sweep of operand reuse, which shows where
  the fast path's unpack cost stops paying off, with a bit-identity check
  and no wall-clock floor;
* **compare backends**: the same pipeline entry points run per backend
  (NumPy always; CuPy/JAX when importable), giving a like-for-like
  throughput table and exercising the cross-backend code paths in CI.

Wall-clock numbers vary with the host, so the bench-history gate tracks
them with deliberately wide tolerances — the gate exists to catch a
de-vectorization cliff, not scheduler jitter. The ``host`` table records
the BLAS library NumPy was built against and the thread-count variables
the run saw, so an outlier cell (a multi-threaded OpenBLAS can take ~100x
longer on a thin matmul now and then) can be traced to its setting.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.backend import available_backends, backend_versions, get_backend
from repro.bench.report import ExperimentResult
from repro.ccglib import bit_gemm
from repro.ccglib.bit_gemm import complex_bit_gemm
from repro.ccglib.complex_mma import complex_mma_f16_batched
from repro.ccglib.packing import pack_sign_planar, pack_sign_planar_scalar
from repro.ccglib.transpose import planar_to_kmajor
from repro.util.formatting import render_table

#: pinned floor for the vectorized-vs-scalar packing speedup; a drop below
#: this means the hot path fell back to per-element Python work.
MIN_PACK_SPEEDUP = 5.0

#: the scalar reference always runs this shape (quick or not): the Python
#: loop is the slow side, so the comparison shape must stay small.
_SCALAR_SHAPE = (2, 16, 8192)

_TIMING_REPS = 3

#: square M = N sizes of the int1 spec-vs-sign table, run at the K of the
#: int1 micro shape: operand reuse M*N/(M+N) of 4 to 64 brackets the
#: shape below which the popcount spec is the faster path.
_INT1_PATH_SIZES = (8, 16, 32, 64, 128)


def _best_time(fn, be, reps: int = _TIMING_REPS) -> float:
    """Best-of-``reps`` wall time of ``fn()``, synchronized per repetition."""
    fn()  # warm-up: JIT traces, allocator pools, import costs
    be.synchronize()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        be.synchronize()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


#: thread-count variables that decide how many threads BLAS starts.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _host_blas() -> list[list[object]]:
    """``[field, value]`` rows: NumPy's BLAS library and the thread settings.

    The variables are read, never set; an unset one reads ``unset`` (BLAS
    then picks its own thread count, one per core for OpenBLAS).
    """
    blas: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.25 only prints its config
        pass
    rows: list[list[object]] = [
        ["blas", str(blas.get("name", "unknown"))],
        ["blas_version", str(blas.get("version", "unknown"))],
    ]
    rows += [[var, os.environ.get(var, "unset")] for var in _THREAD_VARS]
    return rows


def run(quick: bool = False, backend: str | None = None) -> ExperimentResult:
    rng = np.random.default_rng(99)
    if quick:
        pack_shape = (2, 32, 32768)
        trans_shape = (2, 512, 512)
        f16_shape = (4, 64, 64, 64)      # batch, m, n, k
        int1_shape = (1, 64, 64, 4096)
    else:
        pack_shape = (2, 64, 262144)
        trans_shape = (2, 2048, 2048)
        f16_shape = (8, 128, 128, 256)
        int1_shape = (1, 128, 128, 16384)

    backends = [backend] if backend is not None else list(available_backends())
    sections: list[str] = []
    findings: list[str] = []

    micro_headers = ["path", "time (ms)", "GB/s", "GFLOP/s"]
    micro_rows: list[list[object]] = []
    pack_host = rng.normal(size=pack_shape).astype(np.float32)
    trans_host = rng.normal(size=trans_shape).astype(np.float32)
    bf, mf, nf, kf = f16_shape
    a_f16 = rng.normal(size=(bf, 2, mf, kf)).astype(np.float32)
    b_f16 = rng.normal(size=(bf, 2, kf, nf)).astype(np.float32)
    bi, mi, ni, ki = int1_shape

    for name in backends:
        be = get_backend(name)

        pack_in = be.asarray(pack_host)
        t = _best_time(lambda: pack_sign_planar(pack_in, backend=be), be)
        words = pack_sign_planar(pack_in, backend=be)
        pack_bytes = pack_host.nbytes + int(np.prod(words.shape)) * 4
        micro_rows.append(
            [f"{be.name}/pack", round(t * 1e3, 3), round(pack_bytes / t / 1e9, 2), 0.0]
        )

        trans_in = be.asarray(trans_host)
        t = _best_time(lambda: planar_to_kmajor(trans_in, backend=be), be)
        micro_rows.append(
            [
                f"{be.name}/transpose",
                round(t * 1e3, 3),
                round(2 * trans_host.nbytes / t / 1e9, 2),
                0.0,
            ]
        )

        a_dev, b_dev = be.asarray(a_f16), be.asarray(b_f16)
        t = _best_time(lambda: complex_mma_f16_batched(a_dev, b_dev, backend=be), be)
        flops = 8.0 * bf * mf * nf * kf
        micro_rows.append(
            [f"{be.name}/gemm-f16", round(t * 1e3, 3), 0.0, round(flops / t / 1e9, 2)]
        )

        aw = be.asarray(
            rng.integers(0, 2**32, size=(bi, 2, mi, ki // 32), dtype=np.uint32)
        )
        bw = be.asarray(
            rng.integers(0, 2**32, size=(bi, 2, ni, ki // 32), dtype=np.uint32)
        )
        t = _best_time(lambda: complex_bit_gemm(aw, bw, k_valid=ki, backend=be), be)
        ops = 8.0 * bi * mi * ni * ki
        micro_rows.append(
            [f"{be.name}/gemm-int1", round(t * 1e3, 3), 0.0, round(ops / t / 1e9, 2)]
        )

    sections.append(
        render_table(
            micro_headers,
            micro_rows,
            title="Wall-clock throughput of the vectorized hot paths, per backend",
        )
    )

    # -- vectorized vs scalar packing reference -----------------------------
    np_be = get_backend("numpy")
    scalar_vals = rng.normal(size=_SCALAR_SHAPE).astype(np.float32)
    t_scalar = _best_time(lambda: pack_sign_planar_scalar(scalar_vals), np_be, reps=1)
    t_vec = _best_time(lambda: pack_sign_planar(scalar_vals), np_be)
    speedup = t_scalar / t_vec
    identical = bool(
        np.array_equal(pack_sign_planar_scalar(scalar_vals), pack_sign_planar(scalar_vals))
    )
    speedup_headers = ["path", "time (ms)", "speedup"]
    speedup_rows: list[list[object]] = [
        ["pack scalar (reference)", round(t_scalar * 1e3, 3), 1.0],
        ["pack vectorized", round(t_vec * 1e3, 3), round(speedup, 1)],
    ]
    sections.append(
        render_table(
            speedup_headers,
            speedup_rows,
            title=f"1-bit packing: scalar reference vs vectorized, shape {_SCALAR_SHAPE}",
        )
    )
    verdict = "PASS" if speedup >= MIN_PACK_SPEEDUP else "FAIL"
    findings.append(
        f"vectorized pack kernel is {speedup:.0f}x faster than the scalar "
        f"per-word reference (pinned floor {MIN_PACK_SPEEDUP:.0f}x: {verdict}) "
        f"with bit-identical output ({'yes' if identical else 'NO'})"
    )

    # -- int1: popcount spec vs sign-GEMM -----------------------------------
    path_headers = ["M x N x K", "reuse", "spec (ms)", "sign-GEMM (ms)", "speedup"]
    path_rows: list[list[object]] = []
    path_identical = True
    for size in _INT1_PATH_SIZES:
        aw = rng.integers(0, 2**32, size=(bi, 2, size, ki // 32), dtype=np.uint32)
        bw = rng.integers(0, 2**32, size=(bi, 2, size, ki // 32), dtype=np.uint32)
        k_pad = 1  # so the Kpad correction runs on both paths

        def spec():
            return bit_gemm.popcount_bit_gemm(aw, bw, ki - k_pad)

        def sign():
            return bit_gemm._sign_gemm(aw, bw, k_pad, np_be)

        path_identical = path_identical and bool(np.array_equal(spec(), sign()))
        t_spec = _best_time(spec, np_be)
        t_sign = _best_time(sign, np_be)
        path_rows.append(
            [
                f"{size} x {size} x {ki}",
                size / 2,
                round(t_spec * 1e3, 3),
                round(t_sign * 1e3, 3),
                round(t_spec / t_sign, 2),
            ]
        )
    sections.append(
        render_table(
            path_headers,
            path_rows,
            title="int1: popcount spec vs sign-GEMM (numpy, batch 1, K_valid = K - 1)",
        )
    )
    faster = [row[1] for row in path_rows if row[4] > 1.0]
    findings.append(
        f"int1 sign-GEMM path is bit-identical to the popcount spec "
        f"({'yes' if path_identical else 'NO'}) at {len(path_rows)} shapes; it was faster "
        f"at operand reuse {', '.join(f'{r:g}' for r in faster) or 'none'}"
    )

    # -- detected backends ---------------------------------------------------
    avail_headers = ["backend", "version", "device"]
    avail_rows: list[list[object]] = [
        [name, version, get_backend(name).device_kind]
        for name, version in backend_versions().items()
    ]
    sections.append(
        render_table(avail_headers, avail_rows, title="Detected array backends")
    )
    findings.append(
        f"{len(avail_rows)} array backend(s) detected: "
        + ", ".join(str(r[0]) for r in avail_rows)
    )

    host_headers = ["field", "value"]
    host_rows = _host_blas()
    sections.append(
        render_table(host_headers, host_rows, title="BLAS library and thread settings")
    )

    tables = {
        "micro": (micro_headers, micro_rows),
        "speedup": (speedup_headers, speedup_rows),
        "int1_paths": (path_headers, path_rows),
        "backends": (avail_headers, avail_rows),
        "host": (host_headers, host_rows),
    }
    return ExperimentResult(
        name="backend-micro",
        title="Array-backend micro-benchmarks: vectorized hot-path wall-clock throughput",
        text="\n".join(sections),
        tables=tables,
        findings=findings,
    )
