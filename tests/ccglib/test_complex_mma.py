"""Complex MMA decomposition (paper §III-B 5-step schedule)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend import NumpyBackend
from repro.backend.validate import _spec_loop
from repro.ccglib.complex_mma import (
    complex_mma_f16,
    complex_mma_f16_batched,
    complex_mma_f16_naive,
    complex_mma_tf32,
    complex_mma_tf32_batched,
    reference_complex_gemm,
)
from repro.ccglib.gemm import Gemm
from repro.ccglib.layouts import to_planar
from repro.ccglib.precision import Precision
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.tcbf import BeamformerPlan, rms


def _planar(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag]).astype(np.float32)


@st.composite
def complex_tile(draw):
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 24))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))).astype(np.complex64)
    b = (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))).astype(np.complex64)
    return a, b


class TestFiveStepSchedule:
    @given(complex_tile())
    def test_matches_reference_within_fp16_tolerance(self, ab):
        a, b = ab
        got = complex_mma_f16(_planar(a), _planar(b))
        want = reference_complex_gemm(a, b)
        got_c = got[0] + 1j * got[1]
        # float16 inputs: relative error bounded by ~2^-10 per element times
        # accumulation; loose but meaningful bound.
        scale = max(np.abs(want).max(), 1e-3)
        assert np.abs(got_c - want).max() / scale < 5e-2

    @given(complex_tile())
    def test_naive_equals_fused(self, ab):
        # The register-negation trick changes scheduling, not results:
        # fp16 negation is exact.
        a, b = ab
        fused = complex_mma_f16(_planar(a), _planar(b))
        naive = complex_mma_f16_naive(_planar(a), _planar(b))
        assert np.allclose(fused, naive, rtol=1e-6, atol=1e-6)

    def test_accumulation(self, rng):
        a = (rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))).astype(np.complex64)
        b = (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))).astype(np.complex64)
        base = complex_mma_f16(_planar(a), _planar(b))
        acc = complex_mma_f16(_planar(a), _planar(b), base.copy())
        assert np.allclose(acc, 2 * base, rtol=1e-6)

    def test_pure_real_inputs(self, rng):
        a = rng.normal(size=(3, 5)).astype(np.complex64)
        b = rng.normal(size=(5, 2)).astype(np.complex64)
        out = complex_mma_f16(_planar(a), _planar(b))
        # real x real: imaginary component exactly zero.
        assert np.all(out[1] == 0)

    def test_pure_imaginary_inputs(self, rng):
        a = (1j * rng.normal(size=(3, 5))).astype(np.complex64)
        b = (1j * rng.normal(size=(5, 2))).astype(np.complex64)
        out = complex_mma_f16(_planar(a), _planar(b))
        # i*x * i*y = -x*y: purely real and negative-definite structure.
        assert np.all(out[1] == 0)
        ref = -(a.imag.astype(np.float16).astype(np.float32)
                @ b.imag.astype(np.float16).astype(np.float32))
        assert np.allclose(out[0], ref, rtol=1e-6)

    def test_output_dtype_float32(self, rng):
        a = rng.normal(size=(2, 2)).astype(np.complex64)
        out = complex_mma_f16(_planar(a), _planar(a))
        assert out.dtype == np.float32

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            complex_mma_f16(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError):
            complex_mma_f16(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                            np.zeros((2, 3, 3), dtype=np.float32))

    def test_fp32_accumulation_beats_fp16_accumulation(self, rng):
        # Long-K sums: fp32 accumulators (the tensor-core mode) must be far
        # more accurate than doing everything in fp16.
        k = 2048
        a = (rng.normal(size=(1, k)) + 1j * rng.normal(size=(1, k))).astype(np.complex64)
        b = (rng.normal(size=(k, 1)) + 1j * rng.normal(size=(k, 1))).astype(np.complex64)
        ref = reference_complex_gemm(a, b)[0, 0]
        got = complex_mma_f16(_planar(a), _planar(b))
        got_c = got[0, 0, 0] + 1j * got[1, 0, 0]
        all_fp16 = (a.astype(np.complex64).real.astype(np.float16).astype(np.float16) @
                    b.real.astype(np.float16)).astype(np.float32)
        # sanity: our error is small relative to the magnitude of the sum
        assert abs(got_c - ref) / max(abs(ref), 1.0) < 0.05


@st.composite
def batched_operands(draw):
    """Planar (…, 2, m, k) / (…, 2, k, n) float32 operands with zero rows/columns.

    Zeroed A rows and B columns (of either sign, in one plane or both) make
    whole output rows/columns sums of ±0 products, where a matmul that
    returns -0 meets the spec's ``0 + prod`` signed-zero map.
    """
    batch_shape = draw(st.sampled_from([(), (2,), (2, 3)]))
    m, n, k = (draw(st.integers(1, 40)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    a = rng.normal(size=batch_shape + (2, m, k)).astype(np.float32)
    b = rng.normal(size=batch_shape + (2, k, n)).astype(np.float32)
    zero = draw(st.sampled_from([0.0, -0.0]))
    planes = draw(st.sampled_from([slice(0, 1), slice(1, 2), slice(0, 2)]))
    for row in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        a[..., planes, row, :] = zero
    for col in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        b[..., planes, :, col] = zero
    return a, b


def _bytes_equal(got, want) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBatchedEqualsSpec:
    """The batched fast path is byte-identical to the per-tile spec."""

    @given(batched_operands())
    def test_f16_batched_is_spec_loop(self, ab):
        a, b = ab
        got = complex_mma_f16_batched(a, b)
        assert _bytes_equal(got, _spec_loop(complex_mma_f16, a, b))

    @given(batched_operands())
    def test_tf32_batched_is_spec_loop(self, ab):
        a, b = ab
        got = complex_mma_tf32_batched(a, b)
        assert _bytes_equal(got, _spec_loop(complex_mma_tf32, a, b))

    @given(batched_operands())
    def test_signed_zero_map_holds_when_matmul_returns_negative_zero(self, ab):
        # OpenBLAS sums start from +0, so NumPy's matmul never returns -0;
        # other libraries may. -(a @ -b) is a @ b with every zero sum -0.
        class NegativeZeroMatmul(NumpyBackend):
            def matmul(self, a, b):
                return -np.matmul(a, -b)

        a, b = ab
        got = complex_mma_f16_batched(a, b, backend=NegativeZeroMatmul())
        assert _bytes_equal(got, _spec_loop(complex_mma_f16, a, b))

    def test_gemm_run_is_spec(self, rng):
        a = (rng.normal(size=(3, 16, 24)) + 1j * rng.normal(size=(3, 16, 24))).astype(np.complex64)
        b = (rng.normal(size=(3, 24, 8)) + 1j * rng.normal(size=(3, 24, 8))).astype(np.complex64)
        a[1, 4] = 0
        b[2, :, 5] = -0.0
        out = Gemm(Device("A100"), Precision.FLOAT16, batch=3, m=16, n=8, k=24).run(a, b).output
        assert _bytes_equal(out, _spec_loop(complex_mma_f16, to_planar(a), to_planar(b)))

    def test_execute_with_restored_scale_is_spec_times_scale(self, rng):
        w = (rng.normal(size=(2, 8, 32)) + 1j * rng.normal(size=(2, 8, 32))).astype(np.complex64)
        d = (30 * (rng.normal(size=(2, 32, 16)) + 1j * rng.normal(size=(2, 32, 16)))).astype(
            np.complex64
        )
        w[0, 3] = 0
        plan = BeamformerPlan(
            Device("A100"), n_beams=8, n_receivers=32, n_samples=16, batch=2,
            include_transpose=False, restore_output_scale=True,
        )
        out = plan.execute(w, d).output
        scale = rms(d)
        spec = _spec_loop(complex_mma_f16, to_planar(w), to_planar((d / scale).astype(np.complex64)))
        assert _bytes_equal(out, spec * scale)
