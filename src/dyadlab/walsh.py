"""Walsh functions in Paley order and the normalized fast transform.

Pairing convention, fixed once here: the k-th Walsh function is

    w_k(x) = (-1)**<k, x>,   <k, x> = sum_i k_i * x_{i+1}  (mod 2),

which on the resolution-n grid reads w_k(x_j) = (-1)**popcount(k & rev(j))
with rev reversing the lowest n bits of the cell index.  The forward
transform carries the 2**-n cell weight and the inverse carries none, so
forward-then-inverse is the identity and the transform is an isometry from
the normalized grid inner product to the plain spectral sum.

walsh_matrix evaluates that pairing directly; the definition-level oracles
that check the fast routes here are in dyadlab.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import GridPoint, bit_reverse, bit_reversal_permutation

__all__ = [
    "GridFunction",
    "WalshSpectrum",
    "convolution_unit",
    "dyadic_convolve",
    "fwht_forward",
    "fwht_inverse",
    "sequency",
    "sequency_counts",
    "walsh_eval",
    "walsh_matrix",
    "walsh_values",
]


def _as_power_of_two_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1 or (v.size & (v.size - 1)) != 0:
        raise ValueError("expected a 1-D real vector of power-of-two length")
    return v


@dataclass(frozen=True)
class GridFunction:
    """Real step function on the resolution-n grid; values[j] = f(j * 2**-n)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_power_of_two_vector(self.values))

    @property
    def resolution(self) -> int:
        return int(self.values.size).bit_length() - 1


@dataclass(frozen=True)
class WalshSpectrum:
    """Walsh coefficients of a grid function; coeffs[k] pairs with w_k."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_power_of_two_vector(self.coeffs))

    @property
    def resolution(self) -> int:
        return int(self.coeffs.size).bit_length() - 1


def walsh_eval(k: int, x: GridPoint) -> int:
    """Value of the k-th Walsh function at the grid point x; +1 or -1."""
    n = x.resolution
    if not 0 <= k < 2**n:
        raise ValueError(
            f"index {k} outside [0, 2**{n}); w_k is not constant on the cells"
        )
    parity = (k & bit_reverse(x.cell_index, n)).bit_count() & 1
    return 1 - 2 * parity


def walsh_values(k: int, n: int) -> np.ndarray:
    """Values of w_k on all 2**n grid cells, as an int array of +-1."""
    if not 0 <= k < 2**n:
        raise ValueError(f"index {k} outside [0, 2**{n})")
    perm = bit_reversal_permutation(n)
    parity = (np.bitwise_count(perm & k) & 1).astype(np.int64)
    return 1 - 2 * parity


def walsh_matrix(n: int, dtype=np.float64) -> np.ndarray:
    """Matrix W[k, j] = w_k(x_j) = (-1)**popcount(k & rev(j)).

    Evaluated from the definition, with rev taken from the scalar
    bit_reverse, so it shares no code with the butterfly; the oracles in
    dyadlab.oracles are built on it.
    """
    size = 2**n
    rev = np.array(
        [bit_reverse(j, n) for j in range(size)], dtype=np.min_scalar_type(size - 1)
    )
    parity = np.bitwise_count(rev[:, None] & np.arange(size, dtype=rev.dtype)) & 1
    # evaluated as W^T and returned transposed, so W is F-ordered: BLAS
    # rounds products with W by layout, and verify's pinned errors read them
    return (1 - 2 * parity.astype(np.int8)).astype(dtype).T


def _butterfly(a: np.ndarray) -> np.ndarray:
    """In-place radix-2 butterfly: multiplies by the 2**n Hadamard matrix."""
    a = a.astype(np.float64, copy=True)
    size = a.size
    half = 1
    while half < size:
        blocks = a.reshape(-1, 2, half)
        top = blocks[:, 0, :].copy()
        blocks[:, 0, :] += blocks[:, 1, :]
        blocks[:, 1, :] = top - blocks[:, 1, :]
        half *= 2
    return a


def fwht_forward(f: GridFunction) -> WalshSpectrum:
    """Walsh coefficients coeffs[k] = 2**-n * sum_j f(x_j) w_k(x_j).

    O(n 2**n): one bit-reversal permutation feeding the in-place butterfly.
    """
    n = f.resolution
    perm = bit_reversal_permutation(n)
    return WalshSpectrum(_butterfly(f.values[perm]) * 2.0**-n)


def fwht_inverse(s: WalshSpectrum) -> GridFunction:
    """Grid values values[j] = sum_k coeffs[k] w_k(x_j)."""
    perm = bit_reversal_permutation(s.resolution)
    return GridFunction(_butterfly(s.coeffs)[perm])


def convolution_unit(n: int) -> GridFunction:
    """The unit of dyadic convolution: 2**n times the indicator of cell 0."""
    values = np.zeros(2**n)
    values[0] = 2.0**n
    return GridFunction(values)


def dyadic_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Dyadic convolution (f * g)(x_j) = 2**-n sum_t f(x_j (+) t) g(t).

    Computed spectrally: transform, multiply coefficientwise, invert.
    """
    if f.resolution != g.resolution:
        raise ValueError(
            f"resolution mismatch: {f.resolution} != {g.resolution}"
        )
    fs = fwht_forward(f)
    gs = fwht_forward(g)
    return fwht_inverse(WalshSpectrum(fs.coeffs * gs.coeffs))


def sequency(k: int, n: int) -> int:
    """Number of sign changes of w_k across the resolution-n grid.

    Counts indices j in [1, 2**n) where w_k(x_{j-1}) != w_k(x_j); the count
    does not depend on n as long as k < 2**n.
    """
    if not 0 <= k < 2**n:
        raise ValueError(f"index {k} outside [0, 2**{n})")
    vals = walsh_values(k, n)
    return int(np.count_nonzero(vals[1:] != vals[:-1]))


def sequency_counts(n: int) -> np.ndarray:
    """Sign-change counts of every w_k, k < 2**n, on the resolution-n grid.

    Equal to [sequency(k, n) for k in range(2**n)], counted in O(n 2**n) by
    the tail-mask rule: w_k changes sign between cells j-1 and j exactly when
    popcount(k & rev(j ^ (j-1))) is odd, and j ^ (j-1) = 2**(b+1) - 1 depends
    only on the lowest set bit b of j, which 2**(n-1-b) cells share.  So

        counts[k] = sum_{b<n} 2**(n-1-b) * parity(k & rev(2**(b+1) - 1)).

    verify's sign_change_predicate check tests the rule against the values.
    """
    ks = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        # reversing the low b+1 set bits of an n-bit index moves them to the top
        tail = ((2 << b) - 1) << (n - 1 - b)
        counts += (np.bitwise_count(ks & tail) & 1).astype(np.int64) << (n - 1 - b)
    return counts
