"""Projection onto the dyadic convolution algebra and closed-form symbols.

A dyadic convolution operator is diagonalized by the Walsh basis; its
symbol is the vector of eigenvalues indexed by Paley index.  The symbol of
the convolution operator closest to an arbitrary operator A in the
Hilbert-Schmidt norm is the Walsh diagonal coeffs[k] = <A w_k, w_k> under
the normalized grid inner product, i.e. the orthogonal projection of A
onto the convolution algebra.

Symbols are stored in Paley index order throughout; the Gray re-indexing
used by the closed-form constructors is applied explicitly there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dyadic import bit, gray, gray_inverse
from .operators import DenseOperator
from .walsh import GridFunction, WalshSpectrum, fwht_forward, fwht_inverse

__all__ = [
    "BUTZER_WAGNER",
    "FAMILIES",
    "ONNEWEER",
    "OPTIMAL",
    "ConvolutionSymbol",
    "GammaFamily",
    "apply_symbol",
    "approx_error",
    "best_convolution_symbol",
    "butzer_wagner_gamma",
    "gamma_symbol",
    "onneweer_gamma",
    "optimal_gamma",
    "symbol_to_operator",
    "translation_symbol_closed_form",
]


@dataclass(frozen=True)
class ConvolutionSymbol:
    """Walsh eigenvalues of a dyadic convolution operator, in Paley order."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or c.size < 2 or (c.size & (c.size - 1)) != 0:
            raise ValueError("coeffs must be a 1-D vector of length 2**n, n >= 1")
        object.__setattr__(self, "coeffs", c)

    @property
    def resolution(self) -> int:
        return int(self.coeffs.size).bit_length() - 1


@dataclass(frozen=True)
class GammaFamily:
    """A named eigenvalue rule: Paley index k -> gamma(k)."""

    name: str
    rule: Callable[[int], float]


def optimal_gamma(m: int) -> float:
    """Eigenvalue 2 * (m_0 + m) attached to the Walsh function of sequency m.

    Equals 2m for even m and 2(m + 1) for odd m.  Placed at Paley index
    gray(m), this rule is the best-fit derivative symbol for the backward
    difference quotient at every resolution.
    """
    if m < 0:
        raise ValueError("sequency label must be nonnegative")
    return 2.0 * (bit(m, 0) + m)


def butzer_wagner_gamma(k: int) -> float:
    """Butzer-Wagner derivative eigenvalue: gamma(k) = k on Paley indices."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return float(k)


def onneweer_gamma(k: int) -> float:
    """Onneweer derivative eigenvalue: 2**floor(log2 k) for k >= 1, else 0."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return 0.0
    return float(2 ** (k.bit_length() - 1))


def _optimal_paley_rule(k: int) -> float:
    return optimal_gamma(gray_inverse(k))


OPTIMAL = GammaFamily("optimal", _optimal_paley_rule)
BUTZER_WAGNER = GammaFamily("butzer_wagner", butzer_wagner_gamma)
ONNEWEER = GammaFamily("onneweer", onneweer_gamma)
FAMILIES = {f.name: f for f in (OPTIMAL, BUTZER_WAGNER, ONNEWEER)}


def gamma_symbol(family: GammaFamily | str, n: int) -> ConvolutionSymbol:
    """Symbol with coeffs[k] = gamma(k) for k < 2**n.

    family may be a GammaFamily or one of the registered names
    ('optimal', 'butzer_wagner', 'onneweer').
    """
    if isinstance(family, str):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; know {sorted(FAMILIES)}")
        family = FAMILIES[family]
    if n < 1:
        raise ValueError("resolution must be a positive integer")
    return ConvolutionSymbol(np.array([family.rule(k) for k in range(2**n)]))


def best_convolution_symbol(a: DenseOperator) -> ConvolutionSymbol:
    """Walsh diagonal of A: the unique HS-closest convolution symbol.

    coeffs[k] = <A w_k, w_k> with the normalized grid inner product; the
    residual A - C is HS-orthogonal to every convolution operator.  Since
    w_k(x_i) * w_k(x_j) = w_k(x_(i XOR j)), the symbol is the forward
    transform of the XOR-diagonal sums of A:

        coeffs = fwht_forward(b),   b[d] = sum_i A[i, i XOR d],

    which costs O(N**2) additions for N = 2**n, against O(N**3) for the
    dense W A W^T diagonal.  The 2**-n weight is applied as a single
    power-of-two scaling so that operators with dyadic-rational entries get
    exact symbols.
    """
    return ConvolutionSymbol(fwht_forward(GridFunction(_xor_fold(a.entries))).coeffs)


def _xor_fold(entries: np.ndarray) -> np.ndarray:
    """XOR-diagonal sums b[d] = sum_i entries[i, i XOR d], by halving.

    Splitting i and j on their top bit, the diagonal blocks hold the d with
    top bit 0 and the off-diagonal blocks those with top bit 1; each pair of
    blocks is added into one slot, and the (slots, h, h) stack is split again
    until h = 1, when slot d holds b[d].
    """
    size = entries.shape[0]
    blocks = entries.reshape(1, size, size)
    while blocks.shape[1] > 1:
        h = blocks.shape[1] // 2
        quads = blocks.reshape(-1, 2, h, 2, h)
        folded = np.empty((quads.shape[0], 2, h, h))
        np.add(quads[:, 0, :, 0], quads[:, 1, :, 1], out=folded[:, 0])
        np.add(quads[:, 0, :, 1], quads[:, 1, :, 0], out=folded[:, 1])
        blocks = folded.reshape(-1, h, h)
    return blocks.reshape(size)


def translation_symbol_closed_form(n: int) -> ConvolutionSymbol:
    """Best symbol of the one-cell cyclic translation, in closed form.

    The value at Paley index gray(m) is 1 - 2**(1-n) * (m + m_0).
    """
    if n < 1:
        raise ValueError("resolution must be a positive integer")
    coeffs = np.empty(2**n)
    for m in range(2**n):
        coeffs[gray(m)] = 1.0 - 2.0 ** (1 - n) * (m + bit(m, 0))
    return ConvolutionSymbol(coeffs)


def symbol_to_operator(s: ConvolutionSymbol) -> DenseOperator:
    """Dense matrix of g -> f * g where f has Walsh coefficients s.

    The matrix is 2**-n W^T diag(s) W, i.e. it is diagonalized by the
    Walsh basis with eigenvalues s.  Its entries depend on i XOR j only:

        C[i, j] = 2**-n f[i XOR j],   f = fwht_inverse(s),

    so it is built in O(N**2) copies for N = 2**n, with no matmul: row 0 is
    2**-n f, and rows i and i XOR 2**b differ by swapping the column blocks
    of width 2**b, so each pass copies the rows filled so far.
    """
    f = fwht_inverse(WalshSpectrum(s.coeffs)).values * 2.0**-s.resolution
    size = f.size
    entries = np.empty((size, size))
    entries[0] = f
    h = 1
    while h < size:
        entries[h : 2 * h].reshape(h, -1, 2, h)[:] = (
            entries[:h].reshape(h, -1, 2, h)[:, :, ::-1]
        )
        h *= 2
    return DenseOperator(entries)


def apply_symbol(s: ConvolutionSymbol, g: GridFunction) -> GridFunction:
    """Apply the convolution operator with symbol s via the fast transform."""
    if s.resolution != g.resolution:
        raise ValueError(
            f"resolution mismatch: {s.resolution} != {g.resolution}"
        )
    spec = fwht_forward(g)
    return fwht_inverse(WalshSpectrum(s.coeffs * spec.coeffs))


def approx_error(a: DenseOperator, s: ConvolutionSymbol) -> float:
    """HS distance between A and the convolution operator with symbol s."""
    if a.resolution != s.resolution:
        raise ValueError(
            f"resolution mismatch: {a.resolution} != {s.resolution}"
        )
    # C - A, formed in C's buffer, holds the entries of A - C negated: the
    # same norm, bit for bit, without a second N x N array
    residual = symbol_to_operator(s).entries
    residual -= a.entries
    return float(np.linalg.norm(residual, "fro"))
