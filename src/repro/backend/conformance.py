"""Protocol-conformance checks for :class:`~repro.backend.ArrayBackend`.

A third-party backend (or a new optional backend added here) can self-check
with :func:`check_backend` before being trusted with the functional data
path. Each check exercises one protocol obligation with a small known-answer
problem and reports a human-readable problem string on violation;
:func:`require_conformant` raises :class:`~repro.errors.BackendError` with
the full list instead. The suite intentionally runs in well under a second
so it can gate backend registration in tests and CI.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend
from repro.errors import BackendError

#: uint32 words with known popcounts (0, 32, 1, 31, 16, 13 bits set).
_POPCOUNT_WORDS = np.array(
    [0x00000000, 0xFFFFFFFF, 0x00000001, 0xFFFFFFFE, 0x0F0F0F0F, 0x12345FFF],
    dtype=np.uint32,
)
_POPCOUNT_EXPECT = np.array([0, 32, 1, 31, 16, 19], dtype=np.int64)


def check_backend(backend: ArrayBackend) -> list[str]:
    """Run every conformance check; returns problem strings (empty = pass)."""
    problems: list[str] = []
    problems += _check_identity(backend)
    problems += _check_conversion(backend)
    problems += _check_matmul(backend)
    problems += _check_popcount(backend)
    problems += _check_bitcast(backend)
    problems += _check_complex_from_planes(backend)
    problems += _check_namespace(backend)
    return problems


def require_conformant(backend: ArrayBackend) -> None:
    """Raise :class:`BackendError` listing every conformance violation."""
    problems = check_backend(backend)
    if problems:
        raise BackendError(
            f"backend {backend.name!r} violates the ArrayBackend protocol: "
            + "; ".join(problems)
        )


def _check_identity(backend: ArrayBackend) -> list[str]:
    problems = []
    if not isinstance(backend.name, str) or not backend.name:
        problems.append("name must be a non-empty string")
    if not isinstance(backend.version, str) or not backend.version:
        problems.append("version must be a non-empty string")
    if backend.device_kind not in ("cpu", "gpu"):
        problems.append(f"device_kind must be 'cpu' or 'gpu', got {backend.device_kind!r}")
    return problems


def _check_conversion(backend: ArrayBackend) -> list[str]:
    problems = []
    host = np.arange(6, dtype=np.float32).reshape(2, 3)
    arr = backend.asarray(host)
    back = backend.to_numpy(arr)
    if not isinstance(back, np.ndarray):
        return [f"to_numpy must return a numpy array, got {type(back).__name__}"]
    if back.shape != host.shape or not np.array_equal(back, host):
        problems.append("asarray -> to_numpy must round-trip values and shape")
    typed = backend.to_numpy(backend.asarray(host, dtype=np.float64))
    if typed.dtype != np.float64:
        problems.append(f"asarray(dtype=float64) produced {typed.dtype}")
    cast = backend.to_numpy(backend.astype(arr, np.float16))
    if cast.dtype != np.float16:
        problems.append(f"astype(float16) produced {cast.dtype}")
    if backend.dtype_of(arr) != np.float32:
        problems.append(f"dtype_of reported {backend.dtype_of(arr)} for a float32 array")
    if not isinstance(backend.device_of(arr), str):
        problems.append("device_of must return a string")
    return problems


def _check_matmul(backend: ArrayBackend) -> list[str]:
    problems = []
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 3, 4)).astype(np.float32)
    b = rng.normal(size=(2, 4, 5)).astype(np.float32)
    got = backend.to_numpy(backend.matmul(backend.asarray(a), backend.asarray(b)))
    want = a @ b
    if got.shape != want.shape:
        problems.append(f"matmul shape {got.shape} != {want.shape} (batched @ semantics)")
    elif not np.allclose(got, want, rtol=1e-5, atol=1e-6):
        problems.append("matmul result deviates from the NumPy product")
    e = backend.to_numpy(
        backend.einsum("bmk,bkn->bmn", backend.asarray(a), backend.asarray(b))
    )
    if e.shape != want.shape or not np.allclose(e, want, rtol=1e-5, atol=1e-5):
        problems.append("einsum('bmk,bkn->bmn') deviates from the NumPy product")
    return problems


def _check_popcount(backend: ArrayBackend) -> list[str]:
    got = backend.to_numpy(backend.popcount(backend.asarray(_POPCOUNT_WORDS)))
    if got.shape != _POPCOUNT_WORDS.shape:
        return [f"popcount changed the shape: {got.shape}"]
    if not np.issubdtype(got.dtype, np.signedinteger):
        return [f"popcount must return a signed integer array, got {got.dtype}"]
    if not np.array_equal(got.astype(np.int64), _POPCOUNT_EXPECT):
        return [f"popcount({_POPCOUNT_WORDS.tolist()}) = {got.tolist()}, want {_POPCOUNT_EXPECT.tolist()}"]
    return []


def _check_bitcast(backend: ArrayBackend) -> list[str]:
    f = backend.asarray(np.array([1.0, -2.5, 0.0], dtype=np.float32))
    bits = backend.bitcast(f, np.uint32)
    if backend.dtype_of(bits) != np.uint32:
        return [f"bitcast(float32 -> uint32) produced {backend.dtype_of(bits)}"]
    want = np.array([1.0, -2.5, 0.0], dtype=np.float32).view(np.uint32)
    got = backend.to_numpy(bits).reshape(-1)
    if not np.array_equal(got, want):
        return ["bitcast must reinterpret bytes exactly (IEEE-754 encodings differ)"]
    back = backend.to_numpy(backend.bitcast(bits, np.float32)).reshape(-1)
    if not np.array_equal(back, want.view(np.float32)):
        return ["bitcast(uint32 -> float32) must invert bitcast(float32 -> uint32)"]
    return []


def _check_complex_from_planes(backend: ArrayBackend) -> list[str]:
    """Planes -> complex64 keeps every bit: -0 and infinities included."""
    real = np.array([[1.0, -0.0, np.inf]], dtype=np.float32)
    imag = np.array([[np.inf, 0.0, -2.5]], dtype=np.float32)
    got = backend.to_numpy(
        backend.complex_from_planes(backend.asarray(real), backend.asarray(imag))
    )
    if got.dtype != np.complex64 or got.shape != real.shape:
        return [f"complex_from_planes(float32) produced {got.dtype} {got.shape}"]
    if got.real.tobytes() != real.tobytes() or got.imag.tobytes() != imag.tobytes():
        return ["complex_from_planes must copy both planes bit for bit (-0, inf)"]
    return []


def _check_namespace(backend: ArrayBackend) -> list[str]:
    """The kernels lean on these namespace functions; probe each one."""
    xp = backend.xp
    missing = [
        fn
        for fn in (
            "asarray", "stack", "concatenate", "moveaxis", "swapaxes",
            "pad", "reshape", "zeros", "arange", "sqrt", "mean", "abs",
        )
        if not hasattr(xp, fn)
    ]
    if missing:
        return [f"xp namespace lacks required functions: {', '.join(missing)}"]
    a = backend.asarray(np.ones((2, 3), dtype=np.float32))
    stacked = backend.to_numpy(xp.stack([a, a], axis=0))
    if stacked.shape != (2, 2, 3):
        return [f"xp.stack produced shape {stacked.shape}, want (2, 2, 3)"]
    padded = backend.to_numpy(xp.pad(a, ((0, 1), (0, 0)), constant_values=0))
    if padded.shape != (3, 3) or padded[2].any():
        return ["xp.pad must zero-pad with constant_values=0"]
    return []
