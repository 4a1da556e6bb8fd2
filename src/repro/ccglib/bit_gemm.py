"""1-bit complex matrix multiplication in the packed domain.

Implements the arithmetic of paper §III-D and §III-E:

* values are ±1, encoded as binary 1 -> +1 / 0 -> -1 (Fig. 1); zero is not
  representable;
* a real-valued ±1 dot product of length K is ``K - 2 * popc(A ^ B)``
  (Eq. 4, worked example in Table II);
* a complex product needs 2K terms per component. The imaginary part of B
  is negated for the real-part accumulation — for ±1 values negation is a
  bitwise NOT, the 1-bit analogue of the float16 register negation;
* K is padded to the tensor-core fragment size with binary 0 (= -1). The
  padding self-cancels in the real part but adds ``Kpad * (-1) * (-1)``
  twice in the imaginary part, which must be subtracted (Eq. 5);
* on Hopper the XOR multiply op is software-emulated and slow, so the AND
  formulation ``2*(popc(A&B) + popc(~A&~B)) - K`` (Eq. 6) is used, costing
  twice the instructions but running ~4x faster than emulated XOR.

Operand convention: packed planar matrices ``A``: (..., 2, M, W) and
``B``: (..., 2, N, W) uint32 words, W = Kfull/32, K packed along the last
axis, with identical (possibly empty) leading batch dims. Note B rows are
indexed by N here (both operands are "K-major"): the transpose kernel
produces this layout from a (2, K, N) host matrix.

Two host implementations
------------------------
:func:`popcount_bit_gemm` is the executable specification: Eq. 5 (or Eq. 6
for ``BitOp.AND``) evaluated literally with XOR/AND and popcount over the
packed words, blocked over N so the ``(..., M, chunk, W)`` temporary stays
near :data:`POPC_CHUNK_BYTES`. It is the parity reference of every test
and of :mod:`repro.backend.validate`, the way
:func:`~repro.ccglib.packing.pack_sign_planar_scalar` is for packing.

:func:`complex_bit_gemm`, the entry point every caller uses, computes the
same integers as a matrix multiply where that is faster — Navarro et al.'s
reduction-as-matmul idea applied to the host BLAS. With ``d_xy`` the ±1
dot product of rows x and y over the *full* padded K (all ``32*W`` bits,
so non-zero pad bits are honoured too), ``popc(x ^ y) = (Kfull - d_xy)/2``
turns Eq. 5 into::

    real = d_rr - d_ii
    imag = d_ri + d_ir - 2*Kpad

The four ``d_xy`` come from one float32 matmul of the unpacked ±1
operands. Every partial sum is an integer of magnitude <= Kfull, so each
``d_xy`` is exact in float32 whatever the summation order while
``Kfull <= 2**24`` (:data:`F32_EXACT_INT`); they are cast to int32
before they are combined, which keeps that the only bound. The result
therefore equals the popcount formulation bit for bit on every input, and
the AND form of Eq. 6 is the same integer, so ``bit_op`` changes nothing
here — it still selects the instruction mix the cost model prices.

Path selection: the sign path runs whenever ``Kfull`` is within the
float32 bound; above it the popcount spec runs. The sign path unpacks
``(M + N) * Kfull`` bits to float32 before the BLAS call, so on very thin
shapes (operand reuse ``M*N / (M+N)`` below about 16, the "int1: popcount
spec vs sign-GEMM" table of ``repro-bench backend-micro``) the spec would
be faster. Such shapes are small — single-beam or toy GEMMs whose whole
call takes well under a millisecond either way — while the shapes where
the 1-bit GEMM costs time (ultrasound imaging: reuse ~200-250) are far
above it, so no shape-dependent switch is kept. All arithmetic is exact, so both paths
run unchanged — and bit-identically — on every
:class:`~repro.backend.ArrayBackend`; the blocked popcount accumulation
builds each N-chunk functionally (no in-place slice writes) so
immutable-array backends such as JAX work too.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import IMAG, REAL
from repro.errors import ShapeError
from repro.gpusim.arch import BitOp
from repro.util.bits import PACK_WORD_BITS, bits_to_sign, popcount, unpack_bits

#: target size of the uint32 XOR/AND temporary one popcount N-chunk builds
#: (its int64 popcount is twice that), about one core's L2 cache. Against
#: the former fixed 128-row chunk on a 2-vCPU x86 host, all four terms:
#: 186-216 -> 110-117 ms at 1024x256x1024, 188-203 -> 70-72 ms at
#: 128x128x16384, equal within 4% at 64x64x4096, 32x32x16384 and
#: 256x256x1024, and 7.2-7.5 -> 7.9-8.0 ms at 1024x16x1024, where the
#: chunk is two rows.
POPC_CHUNK_BYTES = 256 * 1024

#: float32 represents every integer of magnitude up to this one exactly.
F32_EXACT_INT = 2**24


def _validate_packed(a_words, b_words, k_valid: int) -> tuple[int, int, int, int]:
    """Check the packed operands; return ``(M, N, Kfull, Kpad)``."""
    if a_words.ndim < 3 or a_words.shape[-3] != 2:
        raise ShapeError(f"packed A must be (..., 2, M, W), got {a_words.shape}")
    if b_words.ndim < 3 or b_words.shape[-3] != 2:
        raise ShapeError(f"packed B must be (..., 2, N, W), got {b_words.shape}")
    if np.dtype(a_words.dtype) != np.uint32 or np.dtype(b_words.dtype) != np.uint32:
        raise ShapeError("packed operands must be uint32")
    if a_words.shape[-1] != b_words.shape[-1]:
        raise ShapeError(
            f"packed word-count mismatch: A has W={a_words.shape[-1]}, B has W={b_words.shape[-1]}"
        )
    if a_words.shape[:-3] != b_words.shape[:-3]:
        raise ShapeError(
            f"batch mismatch: A has leading dims {a_words.shape[:-3]}, "
            f"B has {b_words.shape[:-3]}"
        )
    k_full = a_words.shape[-1] * PACK_WORD_BITS
    if not 0 < k_valid <= k_full:
        raise ShapeError(f"k_valid {k_valid} outside (0, {k_full}]")
    return a_words.shape[-2], b_words.shape[-2], k_full, k_full - k_valid


def _popc_gemm(a, b, op: BitOp, n_block: int, be: ArrayBackend):
    """sum_w popc(a[..., m, w] OP b[..., n, w]) for all (m, n), blocked over n.

    Chunks are accumulated into a list and concatenated once — equivalent to
    the historical preallocate-and-slice-assign formulation on NumPy, and
    the only formulation possible on immutable-array backends.
    """
    xp = be.xp
    n = b.shape[-2]
    chunks = []
    for n0 in range(0, n, n_block):
        chunk = b[..., n0 : n0 + n_block, :]
        if op is BitOp.XOR:
            mixed = a[..., :, None, :] ^ chunk[..., None, :, :]
        else:
            mixed = a[..., :, None, :] & chunk[..., None, :, :]
        chunks.append(be.popcount(mixed).sum(axis=-1))
    if len(chunks) == 1:
        return chunks[0]
    return xp.concatenate(chunks, axis=-1)


def _use_sign_gemm(k_full: int) -> bool:
    """Path selection of :func:`complex_bit_gemm` (module docstring).

    The sign path is exact only while every ±1 dot product over ``k_full``
    bits is an exactly representable float32 integer; above that bound the
    popcount spec runs.
    """
    return k_full <= F32_EXACT_INT


def complex_bit_gemm(
    a_words,
    b_words,
    k_valid: int,
    bit_op: BitOp = BitOp.XOR,
    backend: ArrayBackend | None = None,
):
    """Complex 1-bit GEMM on packed operands.

    Parameters
    ----------
    a_words, b_words:
        Packed planar operands (..., 2, M, W) and (..., 2, N, W) with
        matching leading batch dims; padding bits should be binary 0
        (decimal -1), and any other pad bits are treated exactly as
        :func:`popcount_bit_gemm` treats them.
    k_valid:
        The true K before padding; ``Kpad = 32*W - k_valid`` drives the
        imaginary-part correction of Eq. 5.
    bit_op:
        ``BitOp.XOR`` (Eq. 5) or ``BitOp.AND`` (Eq. 6). Both give the same
        integers; the choice matters to the popcount path's instruction mix
        and to the cost model.
    backend:
        Optional :class:`~repro.backend.ArrayBackend`; default NumPy.

    Returns
    -------
    (..., 2, M, N) int32 planar result, bit-identical to
    :func:`popcount_bit_gemm` on every input.
    """
    be = get_backend(backend)
    a_words = be.asarray(a_words)
    b_words = be.asarray(b_words)
    _, _, k_full, k_pad = _validate_packed(a_words, b_words, k_valid)
    if _use_sign_gemm(k_full):
        return _sign_gemm(a_words, b_words, k_pad, be)
    return popcount_bit_gemm(a_words, b_words, k_valid, bit_op, backend=be)


def popcount_bit_gemm(
    a_words,
    b_words,
    k_valid: int,
    bit_op: BitOp = BitOp.XOR,
    n_block: int | None = None,
    backend: ArrayBackend | None = None,
):
    """Executable spec of :func:`complex_bit_gemm`: Eq. 5/6 with popcounts.

    Same operands and result as :func:`complex_bit_gemm`. ``bit_op``
    selects the XOR (Eq. 5) or AND (Eq. 6) formulation; ``n_block`` fixes
    the N-chunk size of the blocked accumulation (default: sized from the
    operand shape to :data:`POPC_CHUNK_BYTES`). The result does not depend
    on either.
    """
    be = get_backend(backend)
    xp = be.xp
    a_words = be.asarray(a_words)
    b_words = be.asarray(b_words)
    _, _, k_full, k_pad = _validate_packed(a_words, b_words, k_valid)
    if n_block is None:
        # Each row of a chunk meets one whole plane of A: batch x M x W words.
        plane_bytes = a_words.size // 2 * 4
        n_block = max(1, POPC_CHUNK_BYTES // max(1, plane_bytes))

    a_re, a_im = a_words[..., REAL, :, :], a_words[..., IMAG, :, :]
    b_re, b_im = b_words[..., REAL, :, :], b_words[..., IMAG, :, :]
    # Register-level negation of Im(B): bitwise NOT flips every ±1 sign,
    # including the padded region (pad bit 0 = -1 becomes +1 there, which is
    # exactly what makes the real-part padding self-cancel).
    b_im_neg = ~b_im

    if bit_op is BitOp.XOR:
        p_rr = _popc_gemm(a_re, b_re, BitOp.XOR, n_block, be)
        p_ii = _popc_gemm(a_im, b_im_neg, BitOp.XOR, n_block, be)
        p_ri = _popc_gemm(a_re, b_im, BitOp.XOR, n_block, be)
        p_ir = _popc_gemm(a_im, b_re, BitOp.XOR, n_block, be)
    elif bit_op is BitOp.AND:
        # Eq. 6: popc(A^B) == K - (popc(A&B) + popc(~A&~B)); substitute into
        # the XOR-based expressions below. Issued as two AND-MMAs per term.
        p_rr = k_full - _and_same_count(a_re, b_re, n_block, be)
        p_ii = k_full - _and_same_count(a_im, b_im_neg, n_block, be)
        p_ri = k_full - _and_same_count(a_re, b_im, n_block, be)
        p_ir = k_full - _and_same_count(a_im, b_re, n_block, be)
    else:  # pragma: no cover - enum is exhaustive
        raise ShapeError(f"unknown bit op {bit_op}")

    # Eq. 5 of the paper (with p_ii computed against the negated Im(B)):
    real = 2 * (k_full - (p_rr + p_ii))
    imag = 2 * (k_full - k_pad - (p_ri + p_ir))
    return xp.stack([real, imag], axis=-3).astype(xp.int32)


def _sign_gemm(a_words, b_words, k_pad: int, be: ArrayBackend):
    """Eq. 5 as one exact float32 matmul of ±1 rows (module docstring).

    Stacking the Re and Im planes along the row axis — a free reshape of
    the planar layout — makes a single ``(2M, Kfull) @ (Kfull, 2N)``
    product whose four quadrants are ``d_rr``, ``d_ri``, ``d_ir`` and
    ``d_ii``: one BLAS call with twice the operand reuse of four separate
    ones.
    """
    xp = be.xp
    m, n = a_words.shape[-2], b_words.shape[-2]
    a = _sign_rows(a_words, be)
    b = _sign_rows(b_words, be)
    d = be.astype(be.matmul(a, xp.swapaxes(b, -1, -2)), xp.int32)
    d_rr, d_ri = d[..., :m, :n], d[..., :m, n:]
    d_ir, d_ii = d[..., m:, :n], d[..., m:, n:]
    return xp.stack([d_rr - d_ii, d_ri + d_ir - 2 * k_pad], axis=-3)


def _sign_rows(words, be: ArrayBackend):
    """(..., 2, R, W) packed words -> (..., 2R, 32W) float32 ±1, Re rows first."""
    signs = bits_to_sign(unpack_bits(words, backend=be), dtype=be.xp.float32, backend=be)
    return signs.reshape(signs.shape[:-3] + (2 * signs.shape[-2], signs.shape[-1]))


def _and_same_count(a, b, n_block: int, be: ArrayBackend):
    """Count of equal bit positions via two AND-popc passes (Eq. 6)."""
    return _popc_gemm(a, b, BitOp.AND, n_block, be) + _popc_gemm(~a, ~b, BitOp.AND, n_block, be)


def real_bit_dot(a_words: np.ndarray, b_words: np.ndarray, k: int) -> int:
    """Real-valued ±1 dot product, Eq. 4: ``K - 2*popc(A ^ B)``.

    This is the Table II primitive; ``k`` is the valid length (padding, if
    present, must be accounted for by the caller).
    """
    a_words = np.atleast_1d(np.asarray(a_words, dtype=np.uint32))
    b_words = np.atleast_1d(np.asarray(b_words, dtype=np.uint32))
    p = int(popcount(a_words ^ b_words).sum())
    return k - 2 * p


def real_bit_dot_and(a_words: np.ndarray, b_words: np.ndarray, k: int) -> int:
    """Real-valued ±1 dot product with AND ops, Eq. 6:
    ``2*(popc(A & B) + popc(~A & ~B)) - K``."""
    a_words = np.atleast_1d(np.asarray(a_words, dtype=np.uint32))
    b_words = np.atleast_1d(np.asarray(b_words, dtype=np.uint32))
    same = int(popcount(a_words & b_words).sum()) + int(popcount(~a_words & ~b_words).sum())
    return 2 * same - k


def bit_gemm_reference(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Unpacked ±1 complex reference GEMM for validation.

    ``a_bits``: (2, M, K) and ``b_bits``: (2, N, K) arrays of {0, 1}.
    Returns the exact (2, M, N) int64 planar complex product of the ±1
    interpretations. This is the ground truth the packed kernels must match
    on the valid K region. Deliberately NumPy-only: every backend's packed
    kernel is checked against this single host-side oracle.
    """
    a_sign = np.asarray(bits_to_sign(a_bits, dtype=np.int64))
    b_sign = np.asarray(bits_to_sign(b_bits, dtype=np.int64))
    a_re, a_im = a_sign[REAL], a_sign[IMAG]
    b_re, b_im = b_sign[REAL], b_sign[IMAG]
    real = a_re @ b_re.T - a_im @ b_im.T
    imag = a_re @ b_im.T + a_im @ b_re.T
    return np.stack([real, imag])


def unpack_planar(words, k_valid: int, backend: ArrayBackend | None = None):
    """Unpack a planar packed matrix (..., 2, R, W) to bits (..., 2, R, k_valid)."""
    return unpack_bits(words, axis=-1, count=k_valid, backend=backend)
