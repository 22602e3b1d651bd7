import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.best_approx import (
    BUTZER_WAGNER,
    FAMILIES,
    ONNEWEER,
    OPTIMAL,
    ConvolutionSymbol,
    GammaFamily,
    apply_symbol,
    approx_error,
    best_convolution_symbol,
    butzer_wagner_gamma,
    gamma_symbol,
    onneweer_gamma,
    optimal_gamma,
    symbol_to_operator,
    translation_symbol_closed_form,
)
from dyadlab.dyadic import gray
from dyadlab.operators import (
    DenseOperator,
    compressed_antiderivative,
    difference_operator,
    hs_inner,
    hs_norm,
    symmetric_difference_operator,
    translation_operator,
    walsh_conjugate,
)
from dyadlab.oracles import best_symbol_naive, symbol_to_operator_naive
from dyadlab.walsh import GridFunction, walsh_values


def random_operator(n, seed):
    rng = np.random.default_rng(seed)
    return DenseOperator(rng.standard_normal((2**n, 2**n)))


def test_symbol_validation():
    with pytest.raises(ValueError):
        ConvolutionSymbol([1.0, 2.0, 3.0])
    s = ConvolutionSymbol([1.0, 2.0])
    assert s.resolution == 1


# ---------------------------------------------------------------------------
# diagonal extraction


@pytest.mark.parametrize("n", range(1, 6))
def test_best_symbol_matches_bruteforce_oracle(n):
    a = random_operator(n, 600 + n)
    fast = best_convolution_symbol(a).coeffs
    slow = best_symbol_naive(a).coeffs
    assert np.max(np.abs(fast - slow)) <= 1e-12


@given(st.integers(1, 6), st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_fold_matches_bruteforce_oracle(n, seed):
    a = random_operator(n, seed)
    fast = best_convolution_symbol(a).coeffs
    assert np.max(np.abs(fast - best_symbol_naive(a).coeffs)) <= 1e-12 * hs_norm(a)


@given(st.integers(1, 6), st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_unfold_matches_walsh_outer_products(n, seed):
    s = np.random.default_rng(seed).standard_normal(2**n)
    oracle = symbol_to_operator_naive(ConvolutionSymbol(s)).entries
    fast = symbol_to_operator(ConvolutionSymbol(s)).entries
    assert np.max(np.abs(fast - oracle)) <= 1e-12 * np.linalg.norm(s)


def test_best_symbol_of_identity():
    for n in range(1, 7):
        symbol = best_convolution_symbol(DenseOperator(np.eye(2**n)))
        assert np.array_equal(symbol.coeffs, np.ones(2**n))


@pytest.mark.parametrize("n", range(1, 9))
def test_best_symbol_of_symmetric_difference_is_zero(n):
    symbol = best_convolution_symbol(symmetric_difference_operator(n))
    assert np.max(np.abs(symbol.coeffs)) <= 1e-12


def test_translation_symbol_frozen_values():
    # brute-force 2x2 and 4x4 projections of the cyclic shift
    assert np.array_equal(
        best_symbol_naive(translation_operator(1, 1)).coeffs, [1.0, -1.0]
    )
    assert np.array_equal(
        best_symbol_naive(translation_operator(2, 1)).coeffs, [1.0, 0.0, -1.0, 0.0]
    )
    assert np.array_equal(translation_symbol_closed_form(1).coeffs, [1.0, -1.0])
    n2 = translation_symbol_closed_form(2).coeffs
    assert np.array_equal(n2, [1.0, 0.0, -1.0, 0.0])
    assert n2[gray(3)] == -1.0


@pytest.mark.parametrize("n", range(1, 9))
def test_translation_closed_form_matches_projection(n):
    numeric = best_convolution_symbol(translation_operator(n, 1)).coeffs
    closed = translation_symbol_closed_form(n).coeffs
    assert np.max(np.abs(numeric - closed)) <= 1e-12
    assert closed[0] == 1.0


@pytest.mark.parametrize("n", range(1, 17))
def test_translation_closed_form_equals_per_index_rule(n):
    # the value at Paley index gray(m) is 1 - 2**(1-n) * (m + m_0)
    reference = np.empty(2**n)
    for m in range(2**n):
        reference[gray(m)] = 1.0 - 2.0 ** (1 - n) * (m + (m & 1))
    assert np.array_equal(translation_symbol_closed_form(n).coeffs, reference)


# ---------------------------------------------------------------------------
# gamma families


def test_optimal_gamma_examples():
    assert optimal_gamma(0) == 0.0
    assert optimal_gamma(1) == 4.0
    assert optimal_gamma(2) == 4.0
    assert optimal_gamma(3) == 8.0
    with pytest.raises(ValueError):
        optimal_gamma(-1)


def test_optimal_gamma_two_branch_form():
    for m in range(2**16):
        expected = 2.0 * m if m % 2 == 0 else 2.0 * (m + 1)
        assert optimal_gamma(m) == expected


def test_family_rules():
    assert butzer_wagner_gamma(11) == 11.0
    assert onneweer_gamma(0) == 0.0
    for k in range(1, 4097):
        value = onneweer_gamma(k)
        # 2**floor(log2 k): the unique power of two with 2**e <= k < 2**(e+1)
        assert value <= k < 2 * value
        assert value == 2 ** int(np.log2(k))
    assert set(FAMILIES) == {"optimal", "butzer_wagner", "onneweer"}
    assert FAMILIES["optimal"] is OPTIMAL
    assert BUTZER_WAGNER.rule is butzer_wagner_gamma
    assert ONNEWEER.rule is onneweer_gamma


def test_gamma_symbol_examples():
    assert np.array_equal(gamma_symbol("optimal", 2).coeffs, [0.0, 4.0, 8.0, 4.0])
    assert np.array_equal(
        gamma_symbol("butzer_wagner", 2).coeffs, [0.0, 1.0, 2.0, 3.0]
    )
    assert np.array_equal(gamma_symbol("onneweer", 2).coeffs, [0.0, 1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        gamma_symbol("unknown", 2)


def test_gamma_symbol_places_optimal_at_gray_index():
    for n in range(1, 8):
        coeffs = gamma_symbol(OPTIMAL, n).coeffs
        for m in range(2**n):
            assert coeffs[gray(m)] == optimal_gamma(m)


def test_custom_gamma_family():
    squares = GammaFamily("custom", lambda k: float(k * k))
    assert np.array_equal(gamma_symbol(squares, 2).coeffs, [0.0, 1.0, 4.0, 9.0])


# ---------------------------------------------------------------------------
# the difference quotient and its optimal symbol


@pytest.mark.parametrize("n", range(1, 9))
def test_difference_projection_reproduces_optimal_gamma(n):
    numeric = best_convolution_symbol(difference_operator(n)).coeffs
    closed = gamma_symbol("optimal", n).coeffs
    assert np.max(np.abs(numeric - closed)) <= 1e-9 * 2**n


@pytest.mark.parametrize("n", range(1, 9))
def test_negated_orientation_negates_the_symbol(n):
    backward = best_convolution_symbol(difference_operator(n)).coeffs
    negated = best_convolution_symbol(
        difference_operator(n, "negated_backward_quotient")
    ).coeffs
    assert np.array_equal(negated, -backward)


@pytest.mark.parametrize("n", range(1, 8))
def test_gamma_rule_consistent_across_resolutions(n):
    coarse = best_convolution_symbol(difference_operator(n)).coeffs
    fine = best_convolution_symbol(difference_operator(n + 1)).coeffs
    assert np.max(np.abs(coarse - fine[: 2**n])) <= 1e-9


@pytest.mark.parametrize("n", range(1, 11))
def test_antiderivative_projection(n):
    symbol = best_convolution_symbol(compressed_antiderivative(n)).coeffs
    expected = np.zeros(2**n)
    expected[0] = 0.5
    assert np.max(np.abs(symbol - expected)) <= 1e-12


# ---------------------------------------------------------------------------
# realizing symbols as operators


def test_symbol_to_operator_examples():
    assert np.array_equal(
        symbol_to_operator(ConvolutionSymbol(np.ones(8))).entries, np.eye(8)
    )
    averaging = symbol_to_operator(ConvolutionSymbol([1.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(averaging.entries, np.full((4, 4), 0.25))


@pytest.mark.parametrize("n", range(1, 7))
def test_symbol_to_operator_is_walsh_diagonal(n):
    rng = np.random.default_rng(700 + n)
    s = ConvolutionSymbol(rng.uniform(-2, 2, 2**n))
    c = symbol_to_operator(s)
    conjugated = walsh_conjugate(c)
    assert np.max(np.abs(conjugated - np.diag(s.coeffs))) <= 1e-12
    assert np.max(np.abs(best_convolution_symbol(c).coeffs - s.coeffs)) <= 1e-12


def test_apply_symbol_eigenrelation():
    for n in (2, 3):
        s = gamma_symbol("optimal", n)
        for k in range(2**n):
            wk = GridFunction(walsh_values(k, n).astype(float))
            out = apply_symbol(s, wk).values
            assert np.max(np.abs(out - s.coeffs[k] * wk.values)) <= 1e-12


def test_apply_symbol_identity_and_mismatch():
    rng = np.random.default_rng(13)
    g = GridFunction(rng.uniform(-1, 1, 16))
    out = apply_symbol(ConvolutionSymbol(np.ones(16)), g)
    assert np.max(np.abs(out.values - g.values)) <= 1e-12
    with pytest.raises(ValueError):
        apply_symbol(ConvolutionSymbol(np.ones(8)), g)


@pytest.mark.parametrize("n", range(1, 7))
def test_apply_symbol_matches_dense_matrix(n):
    rng = np.random.default_rng(800 + n)
    s = ConvolutionSymbol(rng.uniform(-2, 2, 2**n))
    g = GridFunction(rng.uniform(-1, 1, 2**n))
    fast = apply_symbol(s, g).values
    dense = symbol_to_operator(s).apply(g).values
    assert np.max(np.abs(fast - dense)) <= 1e-12


# ---------------------------------------------------------------------------
# approximation error


def test_approx_error_zero_for_own_operator():
    rng = np.random.default_rng(17)
    s = ConvolutionSymbol(rng.uniform(-1, 1, 8))
    assert approx_error(symbol_to_operator(s), s) <= 1e-13
    with pytest.raises(ValueError):
        approx_error(DenseOperator(np.eye(4)), ConvolutionSymbol(np.ones(8)))


@pytest.mark.parametrize("n", range(1, 7))
def test_approx_error_pythagoras(n):
    # the projection residual satisfies err^2 = ||A||^2 - sum s_k^2
    a = random_operator(n, 900 + n)
    s = best_convolution_symbol(a)
    direct = approx_error(a, s)
    via_norms = np.sqrt(hs_norm(a) ** 2 - np.sum(s.coeffs**2))
    assert direct == pytest.approx(via_norms, abs=1e-10)


@given(st.integers(1, 6), st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_projection_is_optimal(n, seed):
    rng = np.random.default_rng(seed)
    a = DenseOperator(rng.standard_normal((2**n, 2**n)))
    best = best_convolution_symbol(a)
    e_best = approx_error(a, best)
    for _ in range(10):
        other = ConvolutionSymbol(rng.standard_normal(2**n))
        assert e_best <= approx_error(a, other) + 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_residual_orthogonality(n):
    rng = np.random.default_rng(1000 + n)
    a = DenseOperator(rng.standard_normal((2**n, 2**n)))
    best = best_convolution_symbol(a)
    residual = DenseOperator(a.entries - symbol_to_operator(best).entries)
    for _ in range(20):
        g = ConvolutionSymbol(rng.standard_normal(2**n))
        assert abs(hs_inner(residual, symbol_to_operator(g))) <= 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_optimal_family_beats_the_others(n):
    delta = difference_operator(n)
    e_optimal = approx_error(delta, gamma_symbol("optimal", n))
    assert e_optimal < approx_error(delta, gamma_symbol("butzer_wagner", n))
    assert e_optimal < approx_error(delta, gamma_symbol("onneweer", n))
    assert e_optimal < approx_error(delta, ConvolutionSymbol(np.zeros(2**n)))


@pytest.mark.parametrize("n", range(1, 10))
def test_minimal_error_in_closed_form(n):
    # the attainable minimum sqrt(2N(N**2 - 4)/3) against the operator's
    # own HS norm sqrt(2N**3), the error of the zero symbol; their ratio
    # sqrt((1 - 4/N**2)/3) tends to 1/sqrt(3)
    size = 2**n
    delta = difference_operator(n)
    e_optimal = approx_error(delta, gamma_symbol("optimal", n))
    e_zero = approx_error(delta, ConvolutionSymbol(np.zeros(size)))
    assert e_optimal == pytest.approx(np.sqrt(2 * size * (size**2 - 4) / 3), rel=1e-12)
    assert e_zero == pytest.approx(np.sqrt(2 * size**3), rel=1e-12)
