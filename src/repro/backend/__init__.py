"""Pluggable array-execution backends for the functional data path.

The paper's library runs "as fast as the hardware allows" because the same
API executes on whatever accelerator is present. This package is the
reproduction's equivalent: an :class:`ArrayBackend` protocol (array
namespace + conversion + the handful of primitives the kernels need) with a
NumPy reference backend that is always present, and CuPy / JAX backends
that are *detected lazily* — importing :mod:`repro.backend` never imports
``cupy`` or ``jax``; the probe happens on first :func:`available_backends`
/ :func:`get_backend` call and graceful absence is part of the contract
(the way ``mach`` exposes one beamform API over NumPy/CuPy/JAX arrays).

Every functional kernel in :mod:`repro.ccglib` and :mod:`repro.tcbf`
accepts an optional ``backend`` argument and defaults to the NumPy
reference, so existing NumPy runs are bit-identical to the pre-backend
code and all golden files replay untouched.

Usage::

    from repro.backend import available_backends, get_backend

    available_backends()          # ('numpy',) or ('numpy', 'jax'), ...
    be = get_backend("numpy")     # always present
    be = get_backend("jax")       # BackendError with the available list
                                  # when jax is not importable

Third-party backends register a factory with :func:`register_backend` and
can self-check against the protocol with
:func:`repro.backend.conformance.check_backend`.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import BackendError

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "available_backends",
    "backend_versions",
    "get_backend",
    "numpy_backend",
    "register_backend",
]


class ArrayBackend(abc.ABC):
    """Protocol one array library must implement to run the data path.

    The surface is deliberately small: the kernels are written against the
    NumPy API (``reshape``/``moveaxis``/``pad``/``stack``/arithmetic), which
    CuPy and ``jax.numpy`` mirror, so most operations route through the
    :attr:`xp` namespace directly. Only the operations that differ across
    libraries — conversion, matmul dispatch, population count, same-width
    bitcasts, complex assembly from planes, host synchronization — are
    protocol methods.

    Implementations must be stateless (one instance serves every plan) and
    must raise nothing at *construction* time beyond
    :class:`~repro.errors.BackendError` when the underlying library is
    unusable; availability probing relies on that.
    """

    #: registry name; subclasses override.
    name: str = "abstract"

    # -- identity ------------------------------------------------------------

    @property
    @abc.abstractmethod
    def xp(self) -> Any:
        """The array-API namespace (``numpy``, ``cupy``, ``jax.numpy``)."""

    @property
    @abc.abstractmethod
    def version(self) -> str:
        """Version string of the underlying array library."""

    @property
    def device_kind(self) -> str:
        """Coarse device class the backend executes on: ``cpu`` or ``gpu``."""
        return "cpu"

    # -- conversion ----------------------------------------------------------

    def asarray(self, values: Any, dtype: Any = None) -> Any:
        """Convert ``values`` to this backend's array type (no copy if avoidable)."""
        return self.xp.asarray(values, dtype=dtype)

    def to_numpy(self, values: Any) -> np.ndarray:
        """Materialize a backend array on the host as a NumPy array."""
        return np.asarray(values)

    def astype(self, values: Any, dtype: Any) -> Any:
        """Cast to ``dtype``, avoiding the copy when the dtype already matches."""
        return self.xp.asarray(values, dtype=dtype)

    # -- introspection -------------------------------------------------------

    def dtype_of(self, values: Any) -> np.dtype:
        """The element dtype of a backend array, as a NumPy dtype."""
        return np.dtype(values.dtype)

    def device_of(self, values: Any) -> str:
        """Human-readable placement of one array (``cpu`` for host arrays)."""
        return self.device_kind

    # -- compute primitives --------------------------------------------------

    def matmul(self, a: Any, b: Any) -> Any:
        """Matrix product with NumPy ``@`` semantics (batched over leading dims)."""
        return self.xp.matmul(a, b)

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        """Einstein summation over backend arrays."""
        return self.xp.einsum(subscripts, *operands)

    def popcount(self, words: Any) -> Any:
        """Per-element population count of an unsigned-integer array.

        The default is a branch-free SWAR reduction in ordinary integer
        arithmetic, so any NumPy-like namespace supports it; backends with a
        native instruction (NumPy ``bitwise_count``, ``jax.lax
        .population_count``) override it. The result is a signed integer
        array wide enough to accumulate over the K axis of a GEMM.
        """
        return _popcount_swar(words, self.xp)

    def bitcast(self, values: Any, dtype: Any) -> Any:
        """Reinterpret an array's bytes as a same-itemsize dtype.

        The tf32 quantizer rounds float32 mantissas through their uint32
        encoding; NumPy/CuPy implement this as a zero-copy ``view`` while
        JAX needs ``lax.bitcast_convert_type``.
        """
        return values.view(dtype)

    def complex_from_planes(self, real: Any, imag: Any) -> Any:
        """Complex array whose planes are ``real`` and ``imag``, bit for bit.

        Both planes share one shape and one float dtype: float32 planes give
        complex64, float64 planes complex128. Unlike ``real + 1j * imag``
        this keeps −0 and infinities as they are. NumPy and CuPy write the
        ``.real``/``.imag`` views of an empty complex array; JAX overrides it
        with ``lax.complex``.
        """
        xp = self.xp
        dtype = xp.complex128 if real.dtype == xp.float64 else xp.complex64
        out = xp.empty(real.shape, dtype=dtype)
        out.real = real
        out.imag = imag
        return out

    def synchronize(self) -> None:
        """Block until queued device work completes (no-op on host backends).

        Wall-clock benchmarks call this around timed regions so asynchronous
        dispatch (CuPy streams, JAX async execution) cannot leak work out of
        the measurement.
        """


def _popcount_swar(words: Any, xp: Any) -> Any:
    """Branch-free 32-bit SWAR popcount usable from any NumPy-like namespace."""
    v = xp.asarray(words)
    if v.dtype != xp.uint32:
        v = v.astype(xp.uint32)
    v = v - ((v >> 1) & xp.uint32(0x55555555))
    v = (v & xp.uint32(0x33333333)) + ((v >> 2) & xp.uint32(0x33333333))
    v = (v + (v >> 4)) & xp.uint32(0x0F0F0F0F)
    counts = (v * xp.uint32(0x01010101)) >> xp.uint32(24)
    return counts.astype(xp.int64)


class NumpyBackend(ArrayBackend):
    """The reference backend: plain NumPy on the host CPU.

    Always available, and the default of every functional kernel — NumPy
    runs through the backend layer are bit-identical to the pre-backend
    implementation, which is what keeps the golden CSVs/trace/dashboard
    replaying untouched.
    """

    name = "numpy"

    @property
    def xp(self) -> Any:
        return np

    @property
    def version(self) -> str:
        return np.__version__

    def astype(self, values: Any, dtype: Any) -> Any:
        return np.asarray(values).astype(dtype, copy=False)

    def popcount(self, words: Any) -> Any:
        from repro.util.bits import popcount

        return popcount(words)


# -- registry ----------------------------------------------------------------


def _make_cupy() -> ArrayBackend:
    from repro.backend.cupy_backend import CupyBackend

    return CupyBackend()


def _make_jax() -> ArrayBackend:
    from repro.backend.jax_backend import JaxBackend

    return JaxBackend()


#: backend name -> zero-argument factory. Factories import their library on
#: first call (never at repro.backend import time) and raise BackendError
#: when it is absent or unusable; the registry caches successful instances
#: and remembers failures so each probe runs once per process.
_FACTORIES: dict[str, Callable[[], ArrayBackend]] = {
    "numpy": NumpyBackend,
    "cupy": _make_cupy,
    "jax": _make_jax,
}
_PROBE_FAILURES: dict[str, str] = {}

_NUMPY = NumpyBackend()

#: the reference instance is pre-seeded so ``get_backend("numpy")``,
#: ``get_backend(None)`` and :func:`numpy_backend` all return the same
#: process-wide object.
_INSTANCES: dict[str, ArrayBackend] = {"numpy": _NUMPY}


def numpy_backend() -> NumpyBackend:
    """The process-wide NumPy reference backend instance."""
    return _NUMPY


def register_backend(
    name: str, factory: Callable[[], ArrayBackend], *, overwrite: bool = False
) -> None:
    """Register a third-party backend factory under ``name``.

    ``factory`` is called lazily (on first :func:`get_backend` /
    :func:`available_backends`) and must return an :class:`ArrayBackend`
    or raise :class:`~repro.errors.BackendError`. Registering over an
    existing name requires ``overwrite=True``; the ``numpy`` reference can
    never be replaced.
    """
    if name == "numpy" and name in _FACTORIES:
        raise BackendError("the 'numpy' reference backend cannot be replaced")
    if name in _FACTORIES and not overwrite:
        raise BackendError(f"backend {name!r} is already registered (pass overwrite=True)")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)
    _PROBE_FAILURES.pop(name, None)


def _probe(name: str) -> ArrayBackend | None:
    """Instantiate a registered backend once, remembering failures."""
    if name in _INSTANCES:
        return _INSTANCES[name]
    if name in _PROBE_FAILURES:
        return None
    try:
        instance = _FACTORIES[name]()
    except BackendError as exc:
        _PROBE_FAILURES[name] = str(exc)
        return None
    except ImportError as exc:  # factory imported its library directly
        _PROBE_FAILURES[name] = f"import failed: {exc}"
        return None
    _INSTANCES[name] = instance
    return instance


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend that is importable right now.

    ``numpy`` is always first; optional backends appear in registration
    order when their probe succeeds. Probes are cached, so calling this
    repeatedly (the CLI, the validation harness, the bench) is free.
    """
    return tuple(name for name in _FACTORIES if _probe(name) is not None)


def backend_versions() -> dict[str, str]:
    """Mapping of every *available* backend to its library version string.

    This is the ``backends`` block of the bench ``--output`` JSON report —
    a run is only comparable to another run when the same backends at the
    same versions were visible.
    """
    versions: dict[str, str] = {}
    for name in _FACTORIES:
        instance = _probe(name)
        if instance is not None:
            versions[name] = instance.version
    return versions


def get_backend(name: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend by name (``None`` -> the NumPy reference).

    Passing an :class:`ArrayBackend` instance returns it unchanged, so
    every functional kernel can accept either form. Unknown names and
    known-but-unavailable backends raise :class:`~repro.errors.BackendError`
    naming the backends that *are* available.
    """
    if name is None:
        return _NUMPY
    if isinstance(name, ArrayBackend):
        return name
    if name not in _FACTORIES:
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    instance = _probe(name)
    if instance is None:
        reason = _PROBE_FAILURES.get(name, "probe failed")
        raise BackendError(
            f"backend {name!r} is not available ({reason}); "
            f"available: {', '.join(available_backends())}"
        )
    return instance
