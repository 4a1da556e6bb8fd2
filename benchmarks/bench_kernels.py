"""Bench: wall-clock throughput of the functional kernels themselves.

These measure the *simulator's* real compute speed (NumPy on the host),
not modelled GPU time — useful to track regressions in the functional
paths that tests and examples depend on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccglib.bit_gemm import complex_bit_gemm, popcount_bit_gemm
from repro.ccglib.complex_mma import complex_mma_f16
from repro.ccglib.packing import pack_sign_planar
from repro.ccglib.transpose import planar_to_kmajor, tile_planar
from repro.gpusim.arch import BitOp
from repro.util.bits import popcount


@pytest.fixture(scope="module")
def data(rng=np.random.default_rng(3)):
    m, n, k = 128, 96, 4096
    a = rng.normal(size=(2, m, k)).astype(np.float32)
    b = rng.normal(size=(2, k, n)).astype(np.float32)
    words = k // 32
    a_bits = rng.integers(0, 2**32, size=(2, m, words), dtype=np.uint32)
    b_bits = rng.integers(0, 2**32, size=(2, n, words), dtype=np.uint32)
    return a, b, a_bits, b_bits, (m, n, k)


def test_complex_mma_f16_throughput(benchmark, data):
    a, b, *_ , shape = data
    m, n, k = shape
    out = benchmark(complex_mma_f16, a, b)
    assert out.shape == (2, m, n)
    benchmark.extra_info["useful_ops"] = 8 * m * n * k


def test_packed_bit_gemm_throughput(benchmark, data):
    *_, a_bits, b_bits, shape = data
    m, n, k = shape
    out = benchmark(complex_bit_gemm, a_bits, b_bits, k)
    assert out.shape == (2, m, n)
    benchmark.extra_info["useful_ops"] = 8 * m * n * k


def test_popcount_spec_xor_throughput(benchmark, data):
    *_, a_bits, b_bits, shape = data
    m, n, k = shape
    out = benchmark(popcount_bit_gemm, a_bits, b_bits, k, BitOp.XOR)
    assert out.shape == (2, m, n)
    benchmark.extra_info["useful_ops"] = 8 * m * n * k


def test_popcount_spec_and_throughput(benchmark, data):
    *_, a_bits, b_bits, shape = data
    m, n, k = shape
    out = benchmark(popcount_bit_gemm, a_bits, b_bits, k, BitOp.AND)
    assert out.shape == (2, m, n)


def test_pack_kernel_throughput(benchmark, rng):
    values = rng.normal(size=(2, 256, 8192)).astype(np.float32)
    packed = benchmark(pack_sign_planar, values)
    assert packed.shape == (2, 256, 256)
    benchmark.extra_info["values_packed"] = values.size


def test_popcount_throughput(benchmark, rng):
    words = rng.integers(0, 2**32, size=2**20, dtype=np.uint32)
    counts = benchmark(popcount, words)
    assert counts.shape == words.shape
    benchmark.extra_info["bits_counted"] = words.size * 32


def test_transpose_throughput(benchmark, rng):
    planar = rng.normal(size=(2, 1024, 512)).astype(np.float32)
    out = benchmark(planar_to_kmajor, planar)
    assert out.shape == (2, 512, 1024)


def test_tiling_throughput(benchmark, rng):
    planar = rng.normal(size=(2, 1024, 1024)).astype(np.float32)
    tiled = benchmark(tile_planar, planar, 16, 16)
    assert tiled.tiles.shape == (2, 64, 64, 16, 16)
