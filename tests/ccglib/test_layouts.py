"""Complex layout conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.layouts import (
    IMAG,
    REAL,
    ensure_batched,
    to_interleaved,
    to_planar,
    validate_planar_pair,
)
from repro.errors import ShapeError


class TestPlanarConversion:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31))
    def test_roundtrip(self, r, c, seed):
        rng = np.random.default_rng(seed)
        z = (rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))).astype(np.complex64)
        assert np.array_equal(to_interleaved(to_planar(z)), z)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_roundtrip_is_byte_identical_on_special_values(self, dtype):
        parts = [0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan]
        z = np.array([complex(r, i) for r in parts for i in parts], dtype=dtype)
        z = z.reshape(7, 7)
        back = to_interleaved(to_planar(z))
        assert back.dtype == z.dtype
        assert back.tobytes() == z.tobytes()

    def test_infinite_imaginary_part_keeps_a_finite_real_part(self):
        z = np.array([[1 + 0j, 0j]], dtype=np.complex64)
        z.imag[0, 0] = np.inf
        z.real[0, 1] = -0.0
        back = to_interleaved(to_planar(z))
        assert back[0, 0].real == 1.0 and back[0, 0].imag == np.inf
        assert np.signbit(back[0, 1].real)

    def test_float16_planes_give_complex64(self):
        p = np.array([[[1.0]], [[-0.0]]], dtype=np.float16)
        back = to_interleaved(p)
        assert back.dtype == np.complex64
        assert back[0, 0].real == 1.0 and np.signbit(back[0, 0].imag)

    def test_plane_order(self):
        z = np.array([[1 + 2j]], dtype=np.complex64)
        p = to_planar(z)
        assert p[REAL, 0, 0] == 1.0
        assert p[IMAG, 0, 0] == 2.0

    def test_dtype_quantization(self):
        z = np.array([[1.0 + 1.0j]], dtype=np.complex64)
        assert to_planar(z, dtype=np.float16).dtype == np.float16

    def test_rejects_real_input(self):
        with pytest.raises(ShapeError):
            to_planar(np.zeros((2, 2)))

    def test_interleaved_rejects_bad_axis(self):
        with pytest.raises(ShapeError):
            to_interleaved(np.zeros((3, 2, 2)))

    def test_batched_shapes(self):
        z = np.zeros((4, 3, 2), dtype=np.complex64)
        p = to_planar(z)
        assert p.shape == (4, 2, 3, 2)
        assert to_interleaved(p).shape == z.shape


class TestEnsureBatched:
    def test_adds_batch(self):
        arr, had = ensure_batched(np.zeros((3, 4)), 3)
        assert arr.shape == (1, 3, 4)
        assert not had

    def test_keeps_batch(self):
        arr, had = ensure_batched(np.zeros((2, 3, 4)), 3)
        assert arr.shape == (2, 3, 4)
        assert had

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            ensure_batched(np.zeros((4,)), 3)


class TestValidatePlanarPair:
    def test_extracts_dims(self):
        a = np.zeros((2, 2, 5, 7))
        b = np.zeros((2, 2, 7, 3))
        assert validate_planar_pair(a, b) == (2, 5, 3, 7)

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [
            ((2, 2, 5, 7), (2, 2, 6, 3)),  # K mismatch
            ((2, 2, 5, 7), (3, 2, 7, 3)),  # batch mismatch
            ((2, 1, 5, 7), (2, 2, 7, 3)),  # bad complex axis
            ((2, 5, 7), (2, 7, 3)),        # missing batch
        ],
    )
    def test_rejects(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            validate_planar_pair(np.zeros(a_shape), np.zeros(b_shape))
