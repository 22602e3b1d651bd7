"""Exact invariants of the projection onto the convolution algebra.

For an integer matrix every route to the symbol adds integers that a double
holds exactly and scales once by a power of two, so these relations hold with
tolerance 0 and need no oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.best_approx import (
    ConvolutionSymbol,
    best_convolution_symbol,
    symbol_to_operator,
)
from dyadlab.operators import DenseOperator

resolutions = st.integers(1, 7)
seeds = st.integers(0, 2**32 - 1)
exact = settings(max_examples=15, deadline=None)


def integer_matrix(rng, n):
    return rng.integers(-50, 51, (2**n, 2**n)).astype(np.float64)


def symbol(entries):
    return best_convolution_symbol(DenseOperator(entries)).coeffs


def xor_diagonal_sums(m):
    """b[d] = sum_i m[i, i ^ d], one explicit gather per d."""
    i = np.arange(m.shape[0])
    return np.array([m[i, i ^ d].sum() for d in range(m.shape[0])])


@given(resolutions, seeds)
@exact
def test_symbol_is_transpose_invariant(n, seed):
    a = integer_matrix(np.random.default_rng(seed), n)
    assert np.array_equal(symbol(a.T), symbol(a))


@given(resolutions, seeds)
@exact
def test_symbol_is_dyadic_translation_invariant(n, seed):
    rng = np.random.default_rng(seed)
    a = integer_matrix(rng, n)
    shifted = np.arange(2**n) ^ int(rng.integers(2**n))
    assert np.array_equal(symbol(a[np.ix_(shifted, shifted)]), symbol(a))


@given(resolutions, seeds)
@exact
def test_symbol_of_convolution_operator_is_its_symbol(n, seed):
    t = np.random.default_rng(seed).integers(-400, 401, 2**n) / 8.0
    c = symbol_to_operator(ConvolutionSymbol(t))
    assert np.array_equal(best_convolution_symbol(c).coeffs, t)


@given(resolutions, seeds)
@exact
def test_residual_has_zero_xor_diagonal_sums(n, seed):
    a = integer_matrix(np.random.default_rng(seed), n)
    c = symbol_to_operator(best_convolution_symbol(DenseOperator(a))).entries
    assert np.array_equal(xor_diagonal_sums(a - c), np.zeros(2**n))


@given(resolutions, seeds, st.integers(-3, 3))
@exact
def test_symbol_is_linear(n, seed, k):
    rng = np.random.default_rng(seed)
    a, b = integer_matrix(rng, n), integer_matrix(rng, n)
    assert np.array_equal(symbol(a + b), symbol(a) + symbol(b))
    assert np.array_equal(symbol(k * a), k * symbol(a))
