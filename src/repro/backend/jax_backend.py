"""JAX array backend: the functional data path through ``jax.numpy``.

Imported lazily by :mod:`repro.backend`. Works on the CPU build
(``pip install jax``) and transparently uses an accelerator when the
installed jaxlib has one. Two JAX-isms the backend papers over:

* arrays are immutable and the default integer width is 32-bit unless
  ``jax_enable_x64`` is set — :meth:`popcount` therefore returns the
  widest integer dtype the runtime allows (int64 under x64, int32
  otherwise), which is why cross-backend comparisons go through the
  per-dtype tolerances of :mod:`repro.backend.validate` rather than
  dtype equality;
* same-width dtype reinterpretation is ``lax.bitcast_convert_type``,
  not ``ndarray.view``, and complex assembly from two planes is
  ``lax.complex``, not a write into ``.real``/``.imag``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import ArrayBackend
from repro.errors import BackendError


class JaxBackend(ArrayBackend):
    """Execution through ``jax.numpy`` (CPU or accelerator, jaxlib decides)."""

    name = "jax"

    def __init__(self) -> None:
        try:
            import jax
            import jax.numpy as jnp
        except ImportError as exc:
            raise BackendError(f"jax is not importable: {exc}") from exc
        try:
            devices = jax.devices()
        except Exception as exc:  # no usable jaxlib platform
            raise BackendError(f"jax is installed but unusable: {exc}") from exc
        if not devices:
            raise BackendError("jax reports no devices")
        self._jax = jax
        self._jnp = jnp
        self._platform = devices[0].platform

    @property
    def xp(self) -> Any:
        return self._jnp

    @property
    def version(self) -> str:
        return self._jax.__version__

    @property
    def device_kind(self) -> str:
        return "cpu" if self._platform == "cpu" else "gpu"

    def to_numpy(self, values: Any) -> np.ndarray:
        return np.asarray(values)

    def device_of(self, values: Any) -> str:
        devices = getattr(values, "devices", None)
        if callable(devices):
            owners = devices()
            if owners:
                d = next(iter(owners))
                return f"{d.platform}:{d.id}"
        return self.device_kind

    def popcount(self, words: Any) -> Any:
        counts = self._jax.lax.population_count(self._jnp.asarray(words))
        # Accumulating over K must not overflow; int64 silently narrows to
        # int32 without jax_enable_x64, which the validate tolerances absorb.
        return counts.astype(self._jnp.int64)

    def bitcast(self, values: Any, dtype: Any) -> Any:
        return self._jax.lax.bitcast_convert_type(values, dtype)

    def complex_from_planes(self, real: Any, imag: Any) -> Any:
        return self._jax.lax.complex(real, imag)

    def synchronize(self) -> None:
        # block_until_ready exists on arrays, not the namespace; a tiny
        # reduction forces the queue to drain.
        self._jnp.zeros(1).block_until_ready()
