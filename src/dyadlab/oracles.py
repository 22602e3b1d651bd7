"""Definition-level references that the fast routes are checked against.

Each is evaluated over the Walsh matrix W[k, j] = (-1)**popcount(k & rev(j))
of walsh.walsh_matrix, which shares no code with the butterfly, the
bit-reversal permutation or the XOR fold; dyadic convolution is its XOR
double sum.  They cost O(4**n) or more and are meant for small n.

The transform and convolution oracles add their terms left to right, one
vector add per term, as a scalar sum would: a pairwise sum or a matmul
rounds most entries differently, which can move verify's printed errors.
"""

from __future__ import annotations

import numpy as np

from .best_approx import ConvolutionSymbol
from .operators import DenseOperator
from .walsh import GridFunction, WalshSpectrum, walsh_matrix

__all__ = [
    "best_symbol_naive",
    "dyadic_convolve_naive",
    "fwht_forward_naive",
    "fwht_inverse_naive",
    "sequency_counts_naive",
    "symbol_to_operator_naive",
]


def fwht_forward_naive(f: GridFunction) -> WalshSpectrum:
    """Oracle for fwht_forward: coeffs[k] = 2**-n sum_j f(x_j) W[k, j]."""
    n = f.resolution
    w = walsh_matrix(n)
    coeffs = np.zeros(2**n)
    for j in range(2**n):
        coeffs += f.values[j] * w[:, j]
    return WalshSpectrum(coeffs * 2.0**-n)


def fwht_inverse_naive(s: WalshSpectrum) -> GridFunction:
    """Oracle for fwht_inverse: values[j] = sum_k coeffs[k] W[k, j]."""
    n = s.resolution
    w = walsh_matrix(n)
    values = np.zeros(2**n)
    for k in range(2**n):
        values += s.coeffs[k] * w[k]
    return GridFunction(values)


def dyadic_convolve_naive(f: GridFunction, g: GridFunction) -> GridFunction:
    """Oracle for dyadic_convolve: (f * g)(x_j) = 2**-n sum_t f(x_j XOR t) g(t)."""
    if f.resolution != g.resolution:
        raise ValueError(
            f"resolution mismatch: {f.resolution} != {g.resolution}"
        )
    size = f.values.size
    idx = np.arange(size)
    out = np.zeros(size)
    for t in range(size):
        out += f.values[idx ^ t] * g.values[t]
    return GridFunction(out / size)


def best_symbol_naive(a: DenseOperator) -> ConvolutionSymbol:
    """Oracle for best_convolution_symbol: the diagonal of 2**-n W A W^T."""
    n = a.resolution
    w = walsh_matrix(n)
    return ConvolutionSymbol(np.sum((w @ a.entries) * w, axis=1) * 2.0**-n)


def symbol_to_operator_naive(s: ConvolutionSymbol) -> DenseOperator:
    """Oracle for symbol_to_operator: the matrix 2**-n W^T diag(s) W."""
    n = s.resolution
    w = walsh_matrix(n)
    return DenseOperator((w.T @ (s.coeffs[:, None] * w)) * 2.0**-n)


def sequency_counts_naive(n: int) -> np.ndarray:
    """Oracle for sequency_counts: sign changes along each row of W."""
    w = walsh_matrix(n, dtype=np.int8)
    return np.count_nonzero(w[:, 1:] != w[:, :-1], axis=1)
