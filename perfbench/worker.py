"""The measured process: one workload, one caller, one timed window.

Started by ``run.py`` with a fresh interpreter. It pins BLAS/OpenMP threads
to 1 before NumPy is first imported, times its own imports, builds the
workload and runs one warm-up op. Set-up time runs from ``--launched``, the
launcher's reading of the monotonic clock just before it started this
process. With ``--mode setup`` the worker reports that time and exits.
Otherwise it checks the set-up outputs against their references, collects
garbage, and runs ops back to back until ``--seconds`` of wall time have
passed, checking each op's output and counters outside its timed interval.
The last line of standard output is one JSON object for the launcher.

Every reported time is in reference-host seconds (see ``calibrate.py``):
the worker times a fixed calibration kernel at its start and after its
warm-up op for the set-up time, and between groups of ops in the window,
and rescales each wall time by the host speed the kernels around it
measured. The wall-clock values are kept in the provenance.

``--mode trace`` spends the first half of the window untraced and the
second half with the outside-in tracer installed (see ``tracer.py``), and
writes the spans of its first traced op to ``out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import Calibrator

#: BLAS/OpenMP thread pools, pinned to one thread before NumPy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: op wall time between two calibration kernels in a timed window.
CAL_EVERY_S = 0.15
#: calibration kernels timed before and again after set-up.
SETUP_KERNELS = 2

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"perfbench worker: {message}", file=sys.stderr, flush=True)
    sys.exit(2)


def _import_groups(groups: dict) -> dict[str, float]:
    """Import each group's modules in order; seconds per group."""
    seconds = {}
    for group, modules in groups.items():
        start = time.perf_counter()
        for module in modules:
            importlib.import_module(module)
        seconds[group] = time.perf_counter() - start
    return seconds


def _tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples_beyond)``: the 11th-largest op
    time, whose percentile rank is ``100 * (n - 10) / n``. Runs of fewer
    than 20 ops, where that rank would fall below the median, report the
    median instead.
    """
    n = len(sorted_ms)
    if n < 20:
        return statistics.median(sorted_ms), 50.0, n // 2
    return sorted_ms[n - 11], 100.0 * (n - 10) / n, 10


def _blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__, "blas_threads_env": {v: os.environ[v] for v in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads_runtime"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _steal_s() -> float | None:
    """Host-wide CPU time stolen by the hypervisor so far (Linux only)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class Window:
    """Op times, CPU time, failures and traced folds of one timed window.

    Ops are timed in groups of at least ``CAL_EVERY_S`` of wall time, with
    one calibration kernel before the first group and after each group. An
    op's reference time is its wall time rescaled by the mean kernel time
    before and after its group.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.kernel_s = [calibrator.time()]
        self._group_s = 0.0
        #: per op: wall seconds, and the index of the kernel before its group.
        self.op_s: list[float] = []
        self.op_group: list[int] = []
        self.ref_s: list[float] = []
        self.host_speed = 1.0
        self.cpu_s = 0.0
        self.items = 0
        self.failed = 0
        self.errors: list[str] = []
        #: per op, in order: work counters, and for traced ops the fold of
        #: its spans and its byte counts.
        self.counters: list[dict] = []
        self.folds: list[dict] = []
        self.byte_counts: list[dict] = []
        self.first_spans = None

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)

    @property
    def ref_busy_s(self) -> float:
        return sum(self.ref_s)

    def add_op(self, seconds: float) -> None:
        self.op_s.append(seconds)
        self.op_group.append(len(self.kernel_s) - 1)
        self._group_s += seconds
        if self._group_s >= CAL_EVERY_S:
            self._calibrate()

    def _calibrate(self) -> None:
        self.kernel_s.append(self.calibrator.time())
        self._group_s = 0.0

    def finish(self) -> None:
        """Close the last group and rescale every op to reference time."""
        if len(self.kernel_s) == self.op_group[-1] + 1:
            self._calibrate()
        factors = [
            self.calibrator.factor((before + after) / 2)
            for before, after in zip(self.kernel_s, self.kernel_s[1:])
        ]
        self.ref_s = [s * factors[g] for s, g in zip(self.op_s, self.op_group)]
        self.host_speed = statistics.median(factors)


def run_window(
    workload,
    seconds: float,
    first_counters: dict,
    bad_inputs: set,
    calibrator: Calibrator,
    tracer=None,
) -> Window:
    """Ops back to back for ``seconds`` of wall time.

    The window always covers every pool input at least once, so per-input
    counts can be read from its first ``pool_size`` ops. An op on an input
    whose set-up output failed its reference check fails too.
    """
    window = Window(calibrator)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.pool_size or time.perf_counter() < deadline:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            result = workload.op(i)
        else:
            result, spans, byte_counts = tracer.op(workload.op, i)
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        window.add_op(t1 - t0)
        window.cpu_s += cpu1 - cpu0
        window.items += workload.items(result)
        errors = workload.check(i, result)
        if i % workload.pool_size in bad_inputs:
            errors.append(f"op {i}: its input's set-up output failed the reference check")
        counters = workload.counters(result)
        if tracer is not None:
            fold = tracer.fold(spans)
            counters = dict(counters, calls={k: v["calls"] for k, v in fold.items()})
            window.folds.append(fold)
            window.byte_counts.append(byte_counts)
            if window.first_spans is None:
                window.first_spans = tracer.spans_as_records(spans)
            del spans
        window.counters.append(counters)
        key = ("traced" if tracer else "plain", i % workload.pool_size)
        if counters != first_counters.setdefault(key, counters):
            errors.append(f"op {i}: work counters differ from the first op on the same input")
        if errors:
            window.failed += 1
            window.errors.extend(errors[:3])
        del result
        i += 1
    window.finish()
    return window


def _timings(items: int, op_s: list[float]) -> dict:
    times_ms = sorted(s * 1e3 for s in op_s)
    return {
        "items_per_s": items / sum(op_s),
        "op_ms.p50": statistics.median(times_ms),
        "op_ms.tail": _tail(times_ms)[0],
    }


def end_to_end(window: Window) -> dict:
    """End-to-end metrics in reference time; wall-clock ones under ``_wall``."""
    _, tail_pct, beyond = _tail(sorted(window.op_s))
    return {
        **_timings(window.items, window.ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_tail": {"percentile": round(tail_pct, 2), "samples_beyond": beyond, "ops": len(window.op_s)},
        "_wall": _timings(window.items, window.op_s),
    }


#: serve layers reported as entry calls plus self time.
SERVE_LAYERS = (
    "serve.admission",
    "serve.batcher",
    "serve.scheduler",
    "serve.dispatch",
    "serve.placement",
    "serve.cache",
    "serve.cost_model",
    "serve.autoscale",
    "serve.obs",
)


def per_layer(traced: Window, plain: Window, pool_size: int, imports: dict) -> dict:
    """Per-layer metrics of the traced window, named as in BENCHMARK.json.

    Times are means per op over the whole traced window. Counts are means
    per op over one cycle of the input pool (the window's first
    ``pool_size`` ops), so they repeat exactly from run to run.
    """
    n = len(traced.folds)
    layers = traced.folds[0].keys()

    def mean_s(layer: str, key: str) -> float:
        return sum(f[layer][key] for f in traced.folds) / n

    def per_input(value) -> float:
        return sum(value(j) for j in range(pool_size)) / pool_size

    def count(name: str) -> float:
        return per_input(lambda j: traced.counters[j].get(name, 0))

    def calls(layer: str) -> float:
        return per_input(lambda j: traced.folds[j][layer]["calls"])

    def byte_count(layer: str) -> float:
        return per_input(lambda j: traced.byte_counts[j].get(layer, 0))

    self_ms = {layer: 1e3 * mean_s(layer, "self_s") for layer in layers}
    gemm_ops = count("gemm_ops_computed")

    def gops(layer: str) -> float:
        incl = mean_s(layer, "incl_s")
        return gemm_ops / incl / 1e9 if incl > 0 else 0.0

    batches = count("batches")
    metrics = {
        "import.repro_s": imports.get("repro", 0.0),
        "import.serve_s": imports.get("serve", 0.0),
        "import.apps_s": imports.get("apps", 0.0),
        "bench.op.self_ms": self_ms["bench.op"],
        "tcbf.execute.self_ms": self_ms["tcbf.execute"],
        "tcbf.rms.ms": self_ms["tcbf.rms"],
        "ccglib.gemm.self_ms": self_ms["ccglib.gemm"],
        "ccglib.to_planar.ms": self_ms["ccglib.to_planar"],
        "ccglib.complex_mma.self_ms": self_ms["ccglib.complex_mma"],
        "ccglib.gemm.ops_computed": gemm_ops,
        "ccglib.gemm.host_gops_per_s": gops("ccglib.complex_mma"),
        "ccglib.pack.ms": self_ms["ccglib.pack"],
        "ccglib.pack.bytes_computed": byte_count("ccglib.pack"),
        "ccglib.transpose.ms": self_ms["ccglib.transpose"],
        "ccglib.bit_gemm.self_ms": self_ms["ccglib.bit_gemm"],
        "ccglib.bit_gemm.host_gops_per_s": gops("ccglib.bit_gemm"),
        "backend.astype.calls": calls("backend.astype"),
        "backend.astype.ms": self_ms["backend.astype"],
        "backend.astype.bytes_computed": byte_count("backend.astype"),
        "backend.matmul.ms": self_ms["backend.matmul"],
        "backend.popcount.ms": self_ms["backend.popcount"],
        "serve.arrivals.ms": self_ms["serve.arrivals"],
        "serve.loop.self_ms": self_ms["serve.loop"],
        "serve.requests": count("offered"),
        "serve.shed": count("shed"),
        "serve.batches": batches,
        "serve.mean_batch": count("admitted") / batches if batches else 0.0,
        "serve.cache.hits": count("cache_hits"),
        "serve.cache.misses": count("cache_misses"),
        "serve.scale_events": count("scale_ups") + count("scale_downs"),
        "serve.monitor.samples": count("monitor_samples"),
    }
    for kind in ("route", "merge", "split", "shed"):
        metrics[f"serve.placements.{kind}"] = count(f"placements.{kind}")
    for layer in SERVE_LAYERS:
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.ms"] = self_ms[layer]
    metrics["trace.op_ms"] = 1e3 * traced.busy_s / n
    metrics["trace.self_sum_ms"] = sum(self_ms.values())
    metrics["trace.overhead"] = (traced.items / traced.ref_busy_s) / (plain.items / plain.ref_busy_s)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {SRC}")
    # Set-up is mostly interpreter work (imports, construction), so it is
    # rescaled by the standard-library kernel, timed before NumPy loads.
    setup_calibrator = Calibrator("python")
    setup_kernel_s = [setup_calibrator.time() for _ in range(SETUP_KERNELS)]
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # imports NumPy, so only after the thread pin

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        _fail(f"unknown workload {args.workload!r}")
    imports = _import_groups(cls.imports)
    repro = sys.modules["repro"]
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fail(f"repro imported from {repro.__file__}, not from {SRC}")
    workload = cls(args.seed)
    warm = workload.op(0)
    setup_wall_s = time.monotonic() - args.launched - sum(setup_kernel_s)
    setup_kernel_s += [setup_calibrator.time() for _ in range(SETUP_KERNELS)]
    setup_s = setup_wall_s * setup_calibrator.factor(statistics.mean(setup_kernel_s))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return

    info = workload.info(warm)
    errors: list[str] = []
    bad_inputs: set[int] = set()
    first_counters = {}
    # One output alive at a time, so the harness adds no peak memory.
    result = warm
    del warm
    for j in range(workload.pool_size):
        if j:
            result = workload.op(j)
        reference_errors = workload.expect(j, result)
        if reference_errors:
            bad_inputs.add(j)
            errors += reference_errors
        first_counters[("plain", j)] = workload.counters(result)
        del result

    calibrator = Calibrator(workload.calibration)
    gc.collect()
    load_start = os.getloadavg()
    steal_start = _steal_s()
    if args.mode == "measure":
        plain = run_window(workload, args.seconds, first_counters, bad_inputs, calibrator)
        windows = [plain]
    else:
        from tracer import Tracer

        plain = run_window(workload, args.seconds / 2, first_counters, bad_inputs, calibrator)
        tracer = Tracer()
        tracer.install(set(sys.modules))
        try:
            gc.collect()
            traced = run_window(
                workload, args.seconds / 2, first_counters, bad_inputs, calibrator, tracer
            )
        finally:
            tracer.remove()
        windows = [plain, traced]
    load_end = os.getloadavg()
    steal_end = _steal_s()

    attempted = sum(len(w.op_s) for w in windows)
    failed = sum(w.failed for w in windows)
    for w in windows:
        errors += w.errors
    if args.mode == "measure":
        metrics = end_to_end(plain)
    else:
        metrics = per_layer(traced, plain, workload.pool_size, imports)
        spans_path = HERE / "out" / f"spans-{args.workload}.json"
        spans_path.parent.mkdir(exist_ok=True)
        with open(spans_path, "w") as out:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": traced.first_spans}, out)
    busy = sum(w.busy_s for w in windows)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "steal_s": None if steal_start is None else steal_end - steal_start,
        "window_busy_s": busy,
        "calibration_kernel": calibrator.kernel,
        "calibration_kernels_run": sum(len(w.kernel_s) for w in windows),
        "host_speed": [w.host_speed for w in windows],
        "setup_wall_s": setup_wall_s,
        "window_cpu_s": sum(w.cpu_s for w in windows),
        "cpu_over_wall": sum(w.cpu_s for w in windows) / busy,
        "python": platform.python_version(),
        **_blas_info(),
        "imports_s": imports,
        "items_per_op": sum(w.items for w in windows) / attempted,
        "item_unit": workload.item_unit,
        "untraced_targets": tracer.missing if args.mode == "trace" else [],
        "counters_by_input": [first_counters[("plain", j)] for j in range(workload.pool_size)],
    }
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "metrics": metrics,
        "provenance": provenance,
        "info": info,
    }), flush=True)


if __name__ == "__main__":
    main()
