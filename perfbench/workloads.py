"""The four benchmark workloads.

Each workload is closed loop with one caller: ``op(i)`` is one call into
the program on input ``i % pool_size`` of a pool derived from the run's
seed, and returns only when its result is complete. The constructor is the
set-up (plans, services, input pools); ``expect`` checks the set-up-time
output for one pool entry against an independent reference and records it;
``check`` verifies every timed op against that record, outside the timed
interval; ``counters`` returns the op's deterministic work counts, which
must repeat exactly whenever the same pool entry comes round again.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: distinct inputs per run, cycled op by op: blocks for beamform, arrival
#: traces for serve. Cycling several traces keeps a run's mean work from
#: hanging on one trace's luck.
POOL = 3
TRACES = 8


def _digest(array) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(memoryview(array).cast("B")).hexdigest()


def _complex_block(rng, shape, dtype=np.complex64):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


class _Beamform:
    """One functional ``BeamformerPlan.execute`` per op on a pooled block."""

    name = ""
    #: import group -> modules, timed separately during set-up.
    imports = {"repro": ("repro",)}
    pool_size = POOL
    item_unit = "beamformed points (batch x beam x sample)"
    #: the calibration kernel of calibrate.py that rescales op times.
    calibration = ""

    def __init__(self, seed: int, precision, shape: dict, **flags):
        from repro import BeamformerPlan, Device

        self.plan = BeamformerPlan(Device("A100"), precision=precision, **shape, **flags)
        rng = np.random.default_rng(seed)
        b, m, k, n = self.plan.shape
        self.weights = self._weights(rng, (b, m, k))
        # Blocks differ in content and in level, so the RMS scale is
        # exercised with a different value on every pool entry.
        self.pool = [
            _complex_block(rng, (b, k, n)) * np.float32(0.5 + j) for j in range(POOL)
        ]
        self._expected: dict[int, str] = {}
        self.items_per_op = b * m * n
        self.gemm_ops = 8 * b * m * n * k

    def _weights(self, rng, shape):
        return _complex_block(rng, shape)

    def op(self, i: int):
        return self.plan.execute(self.weights, self.pool[i % POOL])

    def items(self, result) -> int:
        return self.items_per_op

    def counters(self, result) -> dict:
        """Computed from operand and output sizes, not measured."""
        out_bytes = int(result.output.nbytes)
        weight_bytes = int(self.weights.nbytes)
        block_bytes = int(self.pool[0].nbytes)
        return {
            "gemm_ops_computed": self.gemm_ops,
            # Host bytes one op reads (weights, block) and writes (output).
            "bytes_computed": weight_bytes + block_bytes + out_bytes,
            # What the loop cycles through: weights, every pooled block, output.
            "working_set_bytes": weight_bytes + POOL * block_bytes + out_bytes,
            "output_shape": list(result.output.shape),
            "output_dtype": str(result.output.dtype),
        }

    def expect(self, i: int, result) -> list[str]:
        """Check a set-up-time output against the reference; record it."""
        errors = self._reference_errors(i % POOL, np.asarray(result.output))
        self._expected[i % POOL] = _digest(result.output)
        return errors

    def check(self, i: int, result) -> list[str]:
        if _digest(result.output) != self._expected[i % POOL]:
            return [f"op {i}: output differs from the set-up output of block {i % POOL}"]
        return []

    def info(self, result) -> dict:
        return {
            "modelled_teraops_per_s": result.tflops,
            "modelled_block_s": result.time_s,
        }


class BeamformF16(_Beamform):
    """LOFAR tied-array beams: float16, 8 channel x pol, 256 beams, 64 stations."""

    name = "beamform-f16"
    calibration = "f16"
    #: beams checked against the complex128 reference, per set-up block.
    REF_BEAMS = 32

    def __init__(self, seed: int):
        from repro import Precision

        super().__init__(
            seed,
            Precision.FLOAT16,
            dict(batch=8, n_beams=256, n_receivers=64, n_samples=1024),
            include_transpose=False,
            restore_output_scale=True,
        )

    def _weights(self, rng, shape):
        # Steering weights are unit-modulus phasors.
        return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=shape)).astype(np.complex64)

    def _reference_errors(self, j: int, output) -> list[str]:
        from repro.ccglib.precision import Precision, parity_tolerance

        scale = float(np.sqrt(np.mean(np.abs(self.pool[j][0].astype(np.complex128)) ** 2)))
        # The reference multiplies the float16-quantized operands exactly.
        normalized = (self.pool[j][0] / np.float32(scale)).astype(np.complex64)
        weights = self.weights[0, : self.REF_BEAMS]
        want = _quantized_f16(weights) @ _quantized_f16(normalized)
        got = output[0, : self.REF_BEAMS].astype(np.complex128) / scale
        tol = parity_tolerance(Precision.FLOAT16)
        norm = max(1.0, float(np.max(np.abs(want))))
        if not np.allclose(got / norm, want / norm, rtol=tol.rtol, atol=tol.atol):
            err = float(np.max(np.abs(got - want)) / norm)
            return [f"block {j}: float16 output off the complex128 reference by {err:.3g}"]
        return []


def _quantized_f16(values) -> np.ndarray:
    re = values.real.astype(np.float16).astype(np.float64)
    im = values.imag.astype(np.float16).astype(np.float64)
    return re + 1j * im


class BeamformInt1(_Beamform):
    """Ultrasound 1-bit imaging: 1024 voxels x K 1024 x 256 frames, packed per block."""

    name = "beamform-int1"
    calibration = "bits"
    #: voxels x frames of the output checked against the executable spec.
    REF_VOXELS = 8
    REF_FRAMES = 8

    def __init__(self, seed: int):
        from repro import Precision

        super().__init__(
            seed,
            Precision.INT1,
            dict(batch=1, n_beams=1024, n_receivers=1024, n_samples=256),
            include_transpose=True,
            include_packing=True,
            restore_output_scale=False,
        )

    def _reference_errors(self, j: int, output) -> list[str]:
        from repro.ccglib.bit_gemm import bit_gemm_reference, unpack_planar
        from repro.ccglib.layouts import to_planar
        from repro.ccglib.packing import pack_sign_planar_scalar

        k = self.plan.n_receivers
        weights = self.weights[0, : self.REF_VOXELS]
        frames = self.pool[j][0, :, : self.REF_FRAMES].T
        a_bits = unpack_planar(pack_sign_planar_scalar(np.asarray(to_planar(weights))), k)
        b_bits = unpack_planar(pack_sign_planar_scalar(np.asarray(to_planar(frames))), k)
        want = bit_gemm_reference(np.asarray(a_bits), np.asarray(b_bits))
        got = output[0, : self.REF_VOXELS, : self.REF_FRAMES]
        if not (np.array_equal(got.real, want[0]) and np.array_equal(got.imag, want[1])):
            return [f"block {j}: int1 output differs from the packed-bit executable spec"]
        return []


def _dry(name: str):
    from repro.gpusim.device import Device, ExecutionMode

    return Device(name, ExecutionMode.DRY_RUN)


def _gh200():
    return _dry("GH200")


class _Serve:
    """One seeded arrival trace plus one ``BeamformingService.run`` per op."""

    name = ""
    pool_size = TRACES
    imports = {
        "repro": ("repro",),
        "serve": ("repro.serve",),
        "apps": ("repro.apps.radioastronomy.beamformer", "repro.apps.ultrasound.imaging"),
    }
    item_unit = "offered simulated requests"
    calibration = "python"

    def __init__(self, seed: int):
        from repro.serve import arrivals

        # Arrival generators are looked up on the module at call time, so a
        # traced run sees them through the tracer's wrappers.
        self._arrivals = arrivals
        self.trace_seeds = [int(x) for x in np.random.SeedSequence(seed).generate_state(TRACES)]
        self._expected: dict[int, tuple] = {}

    def op(self, i: int):
        requests = self.arrivals(self.trace_seeds[i % TRACES])
        service = self.service()
        return requests, service, service.run(requests)

    def items(self, result) -> int:
        return len(result[0])

    def counters(self, result) -> dict:
        requests, service, report = result
        placements = report.placements
        counters = {
            "offered": report.n_offered,
            "admitted": report.n_admitted,
            "shed": service.admission.n_shed,
            "completed": report.n_completed,
            "batches": report.n_batches,
            "cache_hits": service.fleet.cache.hits,
            "cache_misses": service.fleet.cache.misses,
            "scale_ups": report.n_scale_ups,
            "scale_downs": report.n_scale_downs,
            "monitor_samples": report.monitor.sampler.n_ticks if report.monitor else 0,
        }
        for kind in ("route", "merge", "split", "shed"):
            counters[f"placements.{kind}"] = placements.get(kind, 0)
        return counters

    @staticmethod
    def _simulated(report) -> tuple:
        return (report.throughput_rps, report.p99_latency_s, report.shed_rate, report.n_batches)

    def _outcome_errors(self, i: int, result) -> list[str]:
        requests, service, report = result
        if len(report.outcomes) != len(requests):
            return [f"op {i}: {len(report.outcomes)} outcomes for {len(requests)} requests"]
        for req, outcome in zip(requests, report.outcomes):
            if outcome is None or outcome.request is not req:
                return [f"op {i}: request {req.rid} has no outcome of its own"]
            shed = not outcome.admitted and outcome.completion_s is None
            done = outcome.admitted and outcome.completion_s is not None
            if not (shed or done):
                return [f"op {i}: request {req.rid} ended neither shed nor completed"]
        return []

    def expect(self, i: int, result) -> list[str]:
        self._expected[i % TRACES] = self._simulated(result[2])
        return self._outcome_errors(i, result)

    def check(self, i: int, result) -> list[str]:
        errors = self._outcome_errors(i, result)
        if self._simulated(result[2]) != self._expected[i % TRACES]:
            errors.append(f"op {i}: simulated throughput/p99/shed/batches differ from set-up")
        return errors

    def info(self, result) -> dict:
        report = result[2]
        return {
            "simulated_throughput_rps": report.throughput_rps,
            "simulated_p99_s": report.p99_latency_s,
            "simulated_shed_rate": report.shed_rate,
            "simulated_mean_batch": report.mean_batch_size,
        }


class ServeBacklog(_Serve):
    """One dry-run A100, LOFAR blocks at 5x naive capacity, no batching."""

    name = "serve-backlog"
    HORIZON_S = 5e-3
    OVERLOAD = 5.0

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.apps.radioastronomy.beamformer import service_workload

        self.workload = service_workload()
        block_s = self.workload.kernel.make_plan(_dry("A100"), 1).predict_block_cost().time_s
        self.rate_hz = self.OVERLOAD / block_s

    def arrivals(self, seed: int):
        return self._arrivals.poisson_arrivals(self.workload, self.rate_hz, self.HORIZON_S, seed=seed)

    def service(self):
        from repro.serve import SLO, BatchingPolicy, BeamformingService

        return BeamformingService(
            [_dry("A100")],
            policy=BatchingPolicy(max_batch=1, max_wait_s=200e-6),
            slo=SLO(p99_latency_s=5e-3),
        )


class ServeFleet(_Serve):
    """GH200 + MI300X with reactive autoscaling: int1 imaging + diurnal f16 LOFAR."""

    name = "serve-fleet"
    HORIZON_S = 4e-3
    INT1_RATE_HZ = 8_000.0
    #: diurnal mean LOFAR rate relative to one GH200's merged-batch capacity.
    LOFAR_LOAD = 1.5
    MAX_BATCH = 32

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.apps.radioastronomy.beamformer import service_workload as lofar
        from repro.apps.ultrasound.imaging import service_workload as ultrasound

        self.imaging = ultrasound(n_voxels=4096, k=1024, n_frames=64)
        self.beams = lofar(n_samples=2048)
        plan = self.beams.kernel.make_plan(_gh200(), self.MAX_BATCH)
        self.lofar_rate_hz = self.LOFAR_LOAD * self.MAX_BATCH / plan.predict_block_cost().time_s

    def arrivals(self, seed: int):
        arrivals = self._arrivals
        h = self.HORIZON_S
        return arrivals.merge_arrivals(
            arrivals.poisson_arrivals(self.imaging, self.INT1_RATE_HZ, h, seed=seed),
            arrivals.diurnal_arrivals(
                self.beams, self.lofar_rate_hz, 1.0, h, h, seed=seed + 1, phase_s=0.75 * h
            ),
        )

    def service(self):
        from repro.serve import (
            SLO,
            Autoscaler,
            BatchingPolicy,
            BeamformingService,
            Placer,
            ReactiveAutoscaler,
            ServiceMonitor,
        )

        autoscaler = Autoscaler(
            ReactiveAutoscaler(up_pressure_s=0.3e-3, up_ticks=2, down_ticks=2),
            device_factory=_gh200,
            interval_s=250e-6,
            max_workers=4,
            startup_s=400e-6,
        )
        return BeamformingService(
            [_gh200(), _dry("MI300X")],
            policy=BatchingPolicy(max_batch=self.MAX_BATCH, max_wait_s=1e-3),
            class_policies={0: BatchingPolicy(max_batch=4, max_wait_s=50e-6)},
            slo=SLO(p99_latency_s=5e-3),
            placer=Placer(),
            autoscaler=autoscaler,
            monitor=ServiceMonitor(interval_s=100e-6),
        )


WORKLOADS = {cls.name: cls for cls in (BeamformF16, BeamformInt1, ServeBacklog, ServeFleet)}
