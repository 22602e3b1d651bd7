"""Dense operators on the resolution-n grid and Hilbert-Schmidt metrics.

The grid-basis Frobenius norm is the Hilbert-Schmidt norm: with the
normalized inner product 2**-n * sum on grid functions, the scaled cell
indicators 2**(n/2) * 1_cell form an orthonormal basis, and the matrix of
an operator in that basis equals its plain grid matrix (the scale factors
cancel), so no rescaling is needed anywhere below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .walsh import GridFunction, walsh_matrix

__all__ = [
    "ORIENTATIONS",
    "DenseOperator",
    "compressed_antiderivative",
    "difference_operator",
    "hs_inner",
    "hs_norm",
    "hs_norm_monte_carlo",
    "symmetric_difference_operator",
    "translation_operator",
    "walsh_conjugate",
]

# 2**n (I - T) is the classical backward difference quotient; the negated
# orientation is 2**n (T - I).
ORIENTATIONS = ("backward_quotient", "negated_backward_quotient")


@dataclass(frozen=True)
class DenseOperator:
    """Linear operator on grid functions, stored as its 2**n x 2**n matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        size = m.shape[0]
        if size < 2 or (size & (size - 1)) != 0:
            raise ValueError("matrix dimension must be 2**n with n >= 1")
        object.__setattr__(self, "entries", m)

    @property
    def resolution(self) -> int:
        return int(self.entries.shape[0]).bit_length() - 1

    def apply(self, f: GridFunction) -> GridFunction:
        if f.resolution != self.resolution:
            raise ValueError(
                f"resolution mismatch: {self.resolution} != {f.resolution}"
            )
        return GridFunction(self.entries @ f.values)


def translation_operator(n: int, steps: int) -> DenseOperator:
    """Cyclic translation by steps cells: (T f)(x_j) = f(x_(j-steps mod 2**n)).

    steps=1 translates by one cell width; the matrix is a cyclic (not
    dyadic) permutation.
    """
    if n < 1:
        raise ValueError("resolution must be a positive integer")
    size = 2**n
    entries = np.zeros((size, size))
    j = np.arange(size)
    entries[j, (j - steps) % size] = 1.0
    return DenseOperator(entries)


def difference_operator(n: int, orientation: str = "backward_quotient") -> DenseOperator:
    """Scaled cyclic difference at step 2**-n.

    backward_quotient (default) is 2**n (I - T), the classical backward
    difference quotient (f(t) - f(t - 2**-n)) / 2**-n; the
    negated_backward_quotient orientation is its entrywise negation
    2**n (T - I).
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"orientation must be one of {ORIENTATIONS}")
    if n < 1:
        raise ValueError("resolution must be a positive integer")
    size = 2**n
    j = np.arange(size)
    entries = np.zeros((size, size))
    entries[j, j] = 2.0**n
    entries[j, (j - 1) % size] = -(2.0**n)
    if orientation == "negated_backward_quotient":
        # negating in place also turns the off-band zeros into -0.0
        np.negative(entries, out=entries)
    return DenseOperator(entries)


def symmetric_difference_operator(n: int) -> DenseOperator:
    """Centered difference 2**(n-1) (T_+ - T_-) with one-cell translations."""
    if n < 1:
        raise ValueError("resolution must be a positive integer")
    size = 2**n
    j = np.arange(size)
    entries = np.zeros((size, size))
    entries[j, (j - 1) % size] = 2.0 ** (n - 1)
    # at n = 1 both translations are the same swap and cancel to +0.0
    entries[j, (j + 1) % size] -= 2.0 ** (n - 1)
    return DenseOperator(entries)


def compressed_antiderivative(n: int) -> DenseOperator:
    """Cell-averaged running integral f -> (x -> integral_0^x f).

    Applying the running integral to a cell indicator and averaging over
    cells gives, with h = 2**-n, exactly h below the diagonal, h/2 on it,
    and 0 above; row j sums to h * (j + 1/2).
    """
    if n < 1:
        raise ValueError("resolution must be a positive integer")
    size = 2**n
    h = 2.0**-n
    entries = np.tri(size, k=-1)
    entries *= h
    entries.flat[:: size + 1] = h / 2
    return DenseOperator(entries)


def hs_inner(a: DenseOperator, b: DenseOperator) -> float:
    """Hilbert-Schmidt inner product trace(B^T A) of two grid operators."""
    if a.resolution != b.resolution:
        raise ValueError(
            f"resolution mismatch: {a.resolution} != {b.resolution}"
        )
    return float(np.sum(a.entries * b.entries))


def hs_norm(a: DenseOperator) -> float:
    """Hilbert-Schmidt (Frobenius) norm of a grid operator."""
    return float(np.linalg.norm(a.entries, "fro"))


def walsh_conjugate(a: DenseOperator) -> np.ndarray:
    """Matrix of the operator in the orthonormal Walsh basis: U A U^T.

    U = 2**(-n/2) W with W[k, j] = w_k(x_j) is orthogonal, so the result
    has the same Frobenius norm as the grid matrix.
    """
    n = a.resolution
    u = walsh_matrix(n) * 2.0 ** (-n / 2)
    return u @ a.entries @ u.T


def hs_norm_monte_carlo(a: DenseOperator, samples: int, seed: int) -> float:
    """Sphere-sampling estimate of the squared Hilbert-Schmidt norm.

    Averages N * ||A X||**2 over uniform unit-sphere samples X (normalized
    standard Gaussian vectors from a PCG64 generator), N = 2**n.  The
    estimate converges to hs_norm(a)**2 and is deterministic for a fixed
    seed; the seed is part of the contract.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    size = a.entries.shape[0]
    chunk = max(1, (1 << 22) // size)
    total = 0.0
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        g = rng.standard_normal((m, size))
        x = g / np.linalg.norm(g, axis=1, keepdims=True)
        y = x @ a.entries.T
        total += float(np.sum(y * y))
        remaining -= m
    return size * total / samples
