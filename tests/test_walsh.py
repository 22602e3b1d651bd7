import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.dyadic import GridPoint, bit_reversal_permutation, gray
from dyadlab.oracles import (
    dyadic_convolve_naive,
    fwht_forward_naive,
    fwht_inverse_naive,
    sequency_counts_naive,
)
from dyadlab.walsh import (
    GridFunction,
    WalshSpectrum,
    convolution_unit,
    dyadic_convolve,
    fwht_forward,
    fwht_inverse,
    sequency,
    sequency_counts,
    walsh_eval,
    walsh_matrix,
    walsh_values,
)


def grid_functions(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=2**n, max_size=2**n
        ).map(GridFunction)
    )


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        WalshSpectrum(np.ones((2, 2)))
    f = GridFunction([1.0, 2.0, 3.0, 4.0])
    assert f.resolution == 2


def test_walsh_eval_examples():
    for j in range(8):
        assert walsh_eval(0, GridPoint(j, 3)) == 1
    assert walsh_eval(1, GridPoint(1, 2)) == 1  # x = 1/4, first digit 0
    assert walsh_eval(1, GridPoint(2, 2)) == -1  # x = 1/2, first digit 1
    with pytest.raises(ValueError):
        walsh_eval(4, GridPoint(0, 2))
    with pytest.raises(ValueError):
        walsh_eval(-1, GridPoint(0, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_walsh_values_and_matrix_match_pointwise(n):
    w = walsh_matrix(n)
    for k in range(2**n):
        expected = np.array(
            [walsh_eval(k, GridPoint(j, n)) for j in range(2**n)], dtype=np.float64
        )
        assert np.array_equal(walsh_values(k, n).astype(float), expected)
        assert np.array_equal(w[k], expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_character_laws_exhaustive(n):
    size = 2**n
    w = walsh_matrix(n, dtype=np.int64)
    idx = np.arange(size)
    for y in range(size):
        assert np.array_equal(w[:, idx ^ y], w * w[:, [y]])
    for m in range(size):
        assert np.array_equal(w[idx ^ m, :], w * w[[m], :])


@pytest.mark.parametrize("n", range(1, 7))
def test_orthonormality_exhaustive(n):
    w = walsh_matrix(n)
    gram = (w @ w.T) * 2.0**-n
    assert np.max(np.abs(gram - np.eye(2**n))) == 0.0


def test_fwht_forward_examples():
    ones = GridFunction(np.ones(8))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.array_equal(fwht_forward(ones).coeffs, expected)

    w1 = GridFunction([1.0, 1.0, -1.0, -1.0])
    assert np.array_equal(fwht_forward(w1).coeffs, [0.0, 1.0, 0.0, 0.0])

    unit = convolution_unit(3)
    assert np.array_equal(fwht_forward(unit).coeffs, np.ones(8))


def test_fwht_inverse_examples():
    spectrum = np.zeros(8)
    spectrum[0] = 1.0
    assert np.array_equal(fwht_inverse(WalshSpectrum(spectrum)).values, np.ones(8))
    for k in range(8):
        basis = np.zeros(8)
        basis[k] = 1.0
        out = fwht_inverse(WalshSpectrum(basis)).values
        assert np.array_equal(out, walsh_values(k, 3).astype(float))


@pytest.mark.parametrize("n", range(1, 9))
def test_fwht_matches_naive_oracle(n):
    rng = np.random.default_rng(100 + n)
    f = GridFunction(rng.uniform(-1, 1, 2**n))
    fast = fwht_forward(f).coeffs
    slow = fwht_forward_naive(f).coeffs
    assert np.max(np.abs(fast - slow)) <= 1e-12

    s = WalshSpectrum(rng.uniform(-1, 1, 2**n))
    fast_inv = fwht_inverse(s).values
    slow_inv = fwht_inverse_naive(s).values
    assert np.max(np.abs(fast_inv - slow_inv)) <= 1e-12


@given(grid_functions())
@settings(max_examples=60, deadline=None)
def test_fwht_roundtrip(f):
    back = fwht_inverse(fwht_forward(f)).values
    assert np.max(np.abs(back - f.values)) <= 1e-12


@given(grid_functions(max_n=8))
@settings(max_examples=60, deadline=None)
def test_parseval(f):
    s = fwht_forward(f)
    assert abs(np.mean(f.values**2) - np.sum(s.coeffs**2)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_parseval_random_large(n):
    rng = np.random.default_rng(200 + n)
    f = GridFunction(rng.uniform(-1, 1, 2**n))
    s = fwht_forward(f)
    assert abs(np.mean(f.values**2) - np.sum(s.coeffs**2)) <= 1e-12


def test_convolution_unit():
    rng = np.random.default_rng(5)
    f = GridFunction(rng.uniform(-1, 1, 16))
    out = dyadic_convolve(f, convolution_unit(4))
    assert np.max(np.abs(out.values - f.values)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_character_idempotence_under_convolution(n):
    for k in range(2**n):
        wk = GridFunction(walsh_values(k, n).astype(float))
        out = dyadic_convolve(wk, wk)
        assert np.max(np.abs(out.values - wk.values)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_convolve_fast_vs_naive(n):
    rng = np.random.default_rng(300 + n)
    f = GridFunction(rng.uniform(-1, 1, 2**n))
    g = GridFunction(rng.uniform(-1, 1, 2**n))
    fast = dyadic_convolve(f, g).values
    slow = dyadic_convolve_naive(f, g).values
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_convolve_resolution_mismatch():
    f = GridFunction(np.ones(4))
    g = GridFunction(np.ones(8))
    with pytest.raises(ValueError):
        dyadic_convolve(f, g)
    with pytest.raises(ValueError):
        dyadic_convolve_naive(f, g)


@given(grid_functions(max_n=5), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_convolution_commutes(f, seed):
    rng = np.random.default_rng(seed)
    g = GridFunction(rng.uniform(-1, 1, f.values.size))
    left = dyadic_convolve(f, g).values
    right = dyadic_convolve(g, f).values
    assert np.max(np.abs(left - right)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_convolution_theorem(n):
    rng = np.random.default_rng(400 + n)
    f = GridFunction(rng.uniform(-1, 1, 2**n))
    g = GridFunction(rng.uniform(-1, 1, 2**n))
    conv = dyadic_convolve(f, g)
    product = fwht_forward(f).coeffs * fwht_forward(g).coeffs
    assert np.max(np.abs(fwht_forward(conv).coeffs - product)) <= 1e-12


def test_sequency_examples():
    assert gray(3) == 2
    assert sequency(2, 2) == 3
    assert sequency(0, 9) == 0
    with pytest.raises(ValueError):
        sequency(4, 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_sequency_of_gray_index(n):
    for k in range(2**n):
        assert sequency(gray(k), n) == k


@pytest.mark.parametrize("n", range(1, 7))
def test_sequency_matches_scan_oracle(n):
    scan = sequency_counts_naive(n)
    assert np.array_equal(sequency_counts(n), scan)
    for k in range(2**n):
        assert sequency(k, n) == scan[k]


def test_sequency_independent_of_resolution():
    for k in range(16):
        reference = sequency(k, 4)
        for n in range(5, 10):
            assert sequency(k, n) == reference


@pytest.mark.parametrize("n", range(0, 13))
def test_sequency_counts_matches_scalar(n):
    counts = sequency_counts(n)
    assert counts.shape == (2**n,)
    for k in range(2**n):
        assert counts[k] == sequency(k, n)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(13, 16).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1))
    )
)
def test_sequency_counts_matches_scalar_at_large_n(nk):
    n, k = nk
    assert sequency_counts(n)[k] == sequency(k, n)


@pytest.mark.parametrize("n", range(1, 11))
def test_sign_change_predicate_matches_values(n):
    # w_k changes sign between cells j-1 and j exactly when its pairing
    # with the tail mask h_{M(x_j)} is odd
    from dyadlab.dyadic import h_mask, last_set_position

    size = 2**n
    w = walsh_matrix(n, dtype=np.int8)
    value_changes = w[:, 1:] != w[:, :-1]
    h_indices = np.array(
        [
            h_mask(last_set_position(GridPoint(j, n)), n).cell_index
            for j in range(1, size)
        ]
    )
    rev_h = bit_reversal_permutation(n)[h_indices]
    ks = np.arange(size, dtype=np.int64)
    predicate = (np.bitwise_count(ks[:, None] & rev_h[None, :]) & 1).astype(bool)
    assert np.array_equal(value_changes, predicate)
