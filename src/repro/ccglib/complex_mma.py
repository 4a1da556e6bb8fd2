"""Complex matrix multiplication on real-valued tensor-core MMAs.

Tensor cores only execute real-valued matrix products and only provide
accumulation (no subtraction). The paper (§III-B) therefore decomposes one
complex GEMM into four real MMAs plus a register-level negation of the
imaginary part of B::

    1) Re(C) += Re(A) Re(B)
    2) Im(C) += Re(A) Im(B)
    3) Im(B)  = -Im(B)          (in registers; global data untouched)
    4) Re(C) += Im(A) Im(B)     (now the negated copy)
    5) Im(C) += Im(A) Re(B)

This module implements that exact 5-step schedule functionally (on the
fragment model of :mod:`repro.gpusim.tensorcore`) so tests can verify it
against a straightforward complex reference, including the float16
quantization the hardware applies to the inputs.

Two tiers of entry point exist, each one schedule body with the fragment
quantizer as its argument (float16 or TensorFloat-32):

* the single-tile functions (:func:`complex_mma_f16`,
  :func:`complex_mma_tf32`) — NumPy-only, one (2, m, k) tile at a time,
  mirroring one warp's fragment schedule. They are the executable spec;
* the batched functions (:func:`complex_mma_f16_batched`,
  :func:`complex_mma_tf32_batched`) — the production hot path on any
  :class:`~repro.backend.ArrayBackend`. Each operand is quantized and
  widened to float32 once, each schedule step is one batched ``matmul``
  over all leading dims, and the two planes are written straight into the
  complex64 output.

The batched path is byte-identical to a per-item loop of the spec. Its
four ``matmul`` calls take the spec's operands at the spec's shapes, and
on NumPy a batched ``matmul`` equals the looped 2-D one exactly (``einsum``
does *not*, which is why the schedule uses ``matmul`` only). The spec
starts from zero accumulators, so its first product of each plane is
``0 + prod``; the only thing that changes is −0 becoming +0, and the spec
output is never −0. The batched path keeps that map as a ``+ 0.0`` on the
accumulated planes: ``(rr + p) + 0`` equals ``(0 + rr) + p`` for every
float32 value, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import IMAG, REAL
from repro.errors import ShapeError
from repro.gpusim.tensorcore import mma_f16, mma_tf32, quantize_f16, quantize_tf32


def _tile_schedule(a_planar, b_planar, c_planar, quantize, mma) -> np.ndarray:
    """The 5-step schedule on one tile with the given fragment quantizer/MMA."""
    if a_planar.ndim != 3 or a_planar.shape[0] != 2:
        raise ShapeError(f"a_planar must be (2, m, k), got {a_planar.shape}")
    if b_planar.ndim != 3 or b_planar.shape[0] != 2:
        raise ShapeError(f"b_planar must be (2, k, n), got {b_planar.shape}")
    a_re, a_im = quantize(a_planar[REAL]), quantize(a_planar[IMAG])
    b_re, b_im = quantize(b_planar[REAL]), quantize(b_planar[IMAG])

    m, n = a_re.shape[0], b_re.shape[1]
    if c_planar is None:
        c_re = np.zeros((m, n), dtype=np.float32)
        c_im = np.zeros((m, n), dtype=np.float32)
    else:
        if c_planar.shape != (2, m, n):
            raise ShapeError(f"c_planar must be (2, {m}, {n}), got {c_planar.shape}")
        c_re = c_planar[REAL].astype(np.float32)
        c_im = c_planar[IMAG].astype(np.float32)

    c_re = mma(a_re, b_re, c_re)        # step 1
    c_im = mma(a_re, b_im, c_im)        # step 2
    b_im_neg = -b_im                    # step 3 (registers only)
    c_re = mma(a_im, b_im_neg, c_re)    # step 4
    c_im = mma(a_im, b_re, c_im)        # step 5
    return np.stack([c_re, c_im])


def complex_mma_f16(
    a_planar: np.ndarray,
    b_planar: np.ndarray,
    c_planar: np.ndarray | None = None,
) -> np.ndarray:
    """One complex tile product via the paper's 5-step decomposition.

    ``a_planar``: (2, m, k) float-like; ``b_planar``: (2, k, n);
    ``c_planar``: optional (2, m, n) float32 accumulator. Returns the
    accumulated (2, m, n) float32 planar result.

    The negation of Im(B) happens on the float16-quantized register copy,
    exactly like the kernel does — float16 negation is exact, so steps 3+4
    equal a true subtraction of ``Im(A) Im(B)``.
    """
    return _tile_schedule(a_planar, b_planar, c_planar, quantize_f16, mma_f16)


def complex_mma_tf32(
    a_planar: np.ndarray,
    b_planar: np.ndarray,
    c_planar: np.ndarray | None = None,
) -> np.ndarray:
    """The 5-step schedule with TensorFloat-32 fragments (experimental §VI).

    Same structure as :func:`complex_mma_f16`; the inputs keep float32
    range with 10-bit mantissas.
    """
    return _tile_schedule(a_planar, b_planar, c_planar, quantize_tf32, mma_tf32)


def complex_mma_f16_naive(
    a_planar: np.ndarray,
    b_planar: np.ndarray,
) -> np.ndarray:
    """Baseline decomposition without the register negation trick.

    Computes the four partial products into *separate* accumulators and
    combines them afterwards with a subtraction on the regular cores. This
    needs the same four MMAs but an extra full-size combine pass (2*m*n
    reads + m*n subtract/add), which is what the in-register negation
    avoids. Kept as an ablation baseline (DESIGN.md §5.1).
    """
    a_re = quantize_f16(a_planar[REAL])
    a_im = quantize_f16(a_planar[IMAG])
    b_re = quantize_f16(b_planar[REAL])
    b_im = quantize_f16(b_planar[IMAG])
    rr = mma_f16(a_re, b_re)
    ii = mma_f16(a_im, b_im)
    ri = mma_f16(a_re, b_im)
    ir = mma_f16(a_im, b_re)
    return np.stack([rr - ii, ri + ir])


def reference_complex_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full-precision complex reference for accuracy checks (complex128)."""
    return np.asarray(a, dtype=np.complex128) @ np.asarray(b, dtype=np.complex128)


def _validate_batched_planar(a_planar, b_planar) -> None:
    if a_planar.ndim < 3 or a_planar.shape[-3] != 2:
        raise ShapeError(f"a_planar must be (..., 2, m, k), got {a_planar.shape}")
    if b_planar.ndim < 3 or b_planar.shape[-3] != 2:
        raise ShapeError(f"b_planar must be (..., 2, k, n), got {b_planar.shape}")
    if a_planar.shape[:-3] != b_planar.shape[:-3]:
        raise ShapeError(
            f"batch mismatch: A has leading dims {a_planar.shape[:-3]}, "
            f"B has {b_planar.shape[:-3]}"
        )
    if a_planar.shape[-1] != b_planar.shape[-2]:
        raise ShapeError(f"K mismatch: A has K={a_planar.shape[-1]}, B has K={b_planar.shape[-2]}")


def quantize_f16_backend(values, backend: ArrayBackend | None = None):
    """Backend-generic float16 fragment load, widened back to float32.

    The values are rounded to float16 once and returned as float32, the
    dtype the schedule's ``matmul`` accumulates in (every float16 value is
    exact in float32).
    """
    be = get_backend(backend)
    xp = be.xp
    return be.astype(be.astype(be.asarray(values), xp.float16), xp.float32)


def quantize_tf32_backend(values, backend: ArrayBackend | None = None):
    """Backend-generic TensorFloat-32 quantization (round to 10 mantissa bits).

    Same arithmetic as :func:`repro.gpusim.tensorcore.quantize_tf32` —
    round-to-nearest of the low 13 mantissa bits via the IEEE-754 encoding —
    expressed through the backend's :meth:`~repro.backend.ArrayBackend.bitcast`
    instead of a NumPy ``view`` so it runs on immutable/device arrays too.
    """
    be = get_backend(backend)
    xp = be.xp
    v = be.astype(be.asarray(values), xp.float32)
    bits = be.bitcast(v, xp.uint32)
    rounded = (bits + xp.uint32(0x1000)) & xp.uint32(0xFFFFE000)
    return be.bitcast(rounded, xp.float32)


def _batched_schedule(a_planar, b_planar, quantize, backend: ArrayBackend | None):
    """The 5-step schedule over all leading dims, written as complex64."""
    be = get_backend(backend)
    a_planar = be.asarray(a_planar)
    b_planar = be.asarray(b_planar)
    _validate_batched_planar(a_planar, b_planar)
    a = quantize(a_planar, backend=be)
    b = quantize(b_planar, backend=be)
    a_re, a_im = a[..., REAL, :, :], a[..., IMAG, :, :]
    b_re, b_im = b[..., REAL, :, :], b[..., IMAG, :, :]

    re = be.matmul(a_re, b_re)          # step 1
    im = be.matmul(a_re, b_im)          # step 2
    b_im = -b_im                        # step 3 (registers only)
    re += be.matmul(a_im, b_im)         # step 4
    im += be.matmul(a_im, b_re)         # step 5
    # The spec's 0 + prod map of -0 to +0 (module docstring). ``+=`` works
    # in place on the product buffers (and rebinds on immutable backends).
    re += 0.0
    im += 0.0
    return be.complex_from_planes(re, im)


def complex_mma_f16_batched(a_planar, b_planar, backend: ArrayBackend | None = None):
    """Batched 5-step complex MMA: (..., 2, m, k) x (..., 2, k, n) -> complex64 (..., m, n).

    Executes the identical schedule as :func:`complex_mma_f16` — quantize to
    float16, four float32-accumulated products with the Im(B) register
    negation — with each step a single batched ``matmul`` over all leading
    dims; the result is byte-identical to the spec's planes as complex64.
    """
    return _batched_schedule(a_planar, b_planar, quantize_f16_backend, backend)


def complex_mma_tf32_batched(a_planar, b_planar, backend: ArrayBackend | None = None):
    """Batched 5-step schedule with TensorFloat-32 fragments (experimental §VI)."""
    return _batched_schedule(a_planar, b_planar, quantize_tf32_backend, backend)
