"""Outside-in span tracer for the traced benchmark run.

The program itself carries no tracing hooks for this benchmark. Instead the
tracer wraps public functions and methods of each layer from outside: a
module-level function is replaced in the namespace of the module that
*calls* it (``repro.ccglib.gemm.complex_bit_gemm``, not the defining
module), and a method is replaced on its class, so every call the program
makes resolves to the wrapper. Each call records one span ``(layer, start,
end, parent)`` into an in-memory list; the lists are folded into per-layer
self times after every op, and the raw spans of the first traced op are
written out when the run ends.

Self time of a span is its duration minus the time its child spans cover,
so the self times of all layers plus the op's own root span add up to the
traced op time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

ROOT = "bench.op"


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _astype_bytes(args, kwargs, result) -> int:
    """Bytes a cast reads and writes; zero when it returned its input."""
    source = args[1] if len(args) > 1 else kwargs.get("values")
    if result is source:
        return 0
    return _nbytes(source) + _nbytes(result)


def _pack_bytes(args, kwargs, result) -> int:
    source = args[0] if args else kwargs.get("values_planar")
    return _nbytes(source) + _nbytes(result)


#: layer -> what to wrap. ("func", module, name) replaces a module attribute
#: in the caller's namespace; ("method", module, class, name) replaces one
#: method; ("methods", module, class) wraps every public plain-function
#: attribute defined on that class. An optional last item computes a byte
#: count from a call's arguments and result. A target the program no longer
#: has is skipped and listed in ``Tracer.missing``; its layer then reads 0.
LAYERS: dict[str, list[tuple]] = {
    "tcbf.execute": [("method", "repro.tcbf.plan", "BeamformerPlan", "execute")],
    "tcbf.rms": [("func", "repro.tcbf.plan", "rms")],
    "ccglib.gemm": [("method", "repro.ccglib.gemm", "Gemm", "run")],
    "ccglib.to_planar": [("func", "repro.ccglib.gemm", "to_planar")],
    "ccglib.complex_mma": [("func", "repro.ccglib.gemm", "complex_mma_f16_batched")],
    "ccglib.pack": [("func", "repro.ccglib.gemm", "pack_sign_planar", _pack_bytes)],
    "ccglib.transpose": [("func", "repro.ccglib.gemm", "planar_to_kmajor")],
    "ccglib.bit_gemm": [("func", "repro.ccglib.gemm", "complex_bit_gemm")],
    "backend.astype": [("method", "repro.backend", "NumpyBackend", "astype", _astype_bytes)],
    "backend.matmul": [("method", "repro.backend", "ArrayBackend", "matmul")],
    "backend.popcount": [("method", "repro.backend", "NumpyBackend", "popcount")],
    "serve.cost_model": [
        ("func", "repro.ccglib.gemm", "model_gemm"),
        ("func", "repro.tcbf.plan", "transpose_cost"),
        ("func", "repro.tcbf.plan", "packing_cost"),
    ],
    "serve.arrivals": [
        ("func", "repro.serve.arrivals", "poisson_arrivals"),
        ("func", "repro.serve.arrivals", "diurnal_arrivals"),
        ("func", "repro.serve.arrivals", "merge_arrivals"),
    ],
    "serve.admission": [("methods", "repro.serve.slo", "AdmissionController")],
    "serve.batcher": [("methods", "repro.serve.batching", "MicroBatcher")],
    "serve.scheduler": [("methods", "repro.serve.scheduler", "PriorityScheduler")],
    "serve.dispatch": [
        ("methods", "repro.serve.dispatch", "FleetDispatcher"),
        ("methods", "repro.serve.dispatch", "DeviceWorker"),
    ],
    "serve.placement": [("methods", "repro.serve.placement", "Placer")],
    "serve.cache": [("methods", "repro.serve.cache", "PlanCache")],
    "serve.autoscale": [
        ("methods", "repro.serve.autoscale", "Autoscaler"),
        ("methods", "repro.serve.autoscale", "ReactiveAutoscaler"),
    ],
    "serve.obs": [("methods", "repro.serve.obs.monitor", "ServiceMonitor")],
    "serve.loop": [("method", "repro.serve.service", "BeamformingService", "run")],
}


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install`` wraps the targets of :data:`LAYERS` whose modules the
    workload has imported; ``remove`` restores every original attribute.
    Spans are recorded only inside :meth:`op`, so checks that run between
    ops never leave spans behind.
    """

    def __init__(self) -> None:
        self.names = [ROOT, *LAYERS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list = []
        self.stack: list[int] = []
        self.active = False
        self.byte_counts: dict[str, int] = {}
        #: targets named in LAYERS that this program version does not have.
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self, loaded_modules) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                kind, module_name = target[0], target[1]
                if module_name not in loaded_modules:
                    continue
                module = importlib.import_module(module_name)
                if kind == "func":
                    self._patch(module, target[2], layer, target[3] if len(target) > 3 else None)
                    continue
                cls = getattr(module, target[2], None)
                if cls is None:
                    self.missing.append(f"{module_name}.{target[2]}")
                elif kind == "method":
                    self._patch(cls, target[3], layer, target[4] if len(target) > 4 else None)
                else:
                    for name, attr in list(vars(cls).items()):
                        if not name.startswith("_") and inspect.isfunction(attr):
                            self._patch(cls, name, layer, None)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, layer: str, count_bytes) -> None:
        original = vars(owner).get(name)
        if original is None:
            self.missing.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{name}")
            return
        setattr(owner, name, self._wrap(original, self._ids[layer], layer, count_bytes))
        self._patches.append((owner, name, original))

    def _wrap(self, fn, layer_id: int, layer: str, count_bytes):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer_id, start, end, parent)
            if count_bytes is not None:
                tracer.byte_counts[layer] = tracer.byte_counts.get(layer, 0) + count_bytes(
                    args, kwargs, result
                )
            return result

        return traced

    # -- recording -----------------------------------------------------------

    def op(self, fn, *args):
        """Run one op under a root span; returns ``(result, spans, bytes)``."""
        self.spans = [None]
        self.stack = [0]
        self.byte_counts = {}
        self.active = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self.active = False
        self.spans[0] = (0, start, end, -1)
        spans, self.spans, self.stack = self.spans, [], []
        return result, spans, self.byte_counts

    def fold(self, spans) -> dict[str, dict[str, float]]:
        """Per-layer self time, inclusive time and entry calls of one op.

        A call counts as an entry into its layer when its parent span
        belongs to another layer; inclusive time sums entry spans only, so
        recursion inside one layer is not counted twice.
        """
        n = len(self.names)
        self_s = [0.0] * n
        incl_s = [0.0] * n
        calls = [0] * n
        child_s = [0.0] * len(spans)
        for layer_id, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (layer_id, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s[layer_id] += duration - child_s[i]
            if parent < 0 or spans[parent][0] != layer_id:
                incl_s[layer_id] += duration
                calls[layer_id] += 1
        return {
            name: {"self_s": self_s[i], "incl_s": incl_s[i], "calls": calls[i]}
            for i, name in enumerate(self.names)
        }

    def spans_as_records(self, spans) -> list[dict]:
        """Spans of one op in a plain form for the run's span file."""
        t0 = spans[0][1]
        return [
            {
                "name": self.names[layer_id],
                "start_us": round((start - t0) * 1e6, 3),
                "end_us": round((end - t0) * 1e6, 3),
                "parent": parent,
            }
            for layer_id, start, end, parent in spans
        ]
