"""Output checks for the benchmark's operations.

Every check recomputes its expectation here, from numpy bit operations and
direct sums, and never trusts a value the program derives for itself (such
as the CLI's footers).  A check raises CheckError on the first mismatch; a
malformed output (wrong header, missing field, unparsable number) is a
mismatch too.
"""

from __future__ import annotations

import json

import numpy as np

# Tolerance the CLI runs with by default; `verify` compares floating-point
# identities at this value (scaled by 2**n for the difference quotient).
TOL = 1e-9
# Relative tolerance for identities that sum many printed 15-digit values.
REL_TOL = 1e-9


class CheckError(Exception):
    """An operation's output does not match the benchmark's expectation."""


# ---------------------------------------------------------------------------
# reference arithmetic, independent of dyadlab


def gray(k: np.ndarray) -> np.ndarray:
    return k ^ (k >> 1)


def gray_inverse(k: np.ndarray) -> np.ndarray:
    out = k.copy()
    shifted = k >> 1
    while shifted.any():
        out ^= shifted
        shifted >>= 1
    return out


def bit_reverse(n: int) -> np.ndarray:
    j = np.arange(2**n, dtype=np.int64)
    out = np.zeros_like(j)
    for b in range(n):
        out |= ((j >> b) & 1) << (n - 1 - b)
    return out


def walsh_rows(n: int) -> np.ndarray:
    """The matrix W[k, j] = w_k(x_j) = (-1)**popcount(k & rev(j)), as float64."""
    k = np.arange(2**n, dtype=np.int32)
    parity = np.bitwise_count(k[:, None] & bit_reverse(n).astype(np.int32)[None, :]) & 1
    return 1.0 - 2.0 * parity


def optimal_paley(n: int) -> np.ndarray:
    """gamma at Paley index k: 2(m_0 + m) with m = gray_inverse(k)."""
    m = gray_inverse(np.arange(2**n, dtype=np.int64))
    return 2.0 * ((m & 1) + m)


def onneweer(k: np.ndarray) -> np.ndarray:
    """2**floor(log2 k) for k >= 1, and 0 at k = 0, by bit smearing."""
    top = k.copy()
    for s in (1, 2, 4, 8, 16, 32):
        top |= top >> s
    return ((top + 1) >> 1).astype(np.float64)


def closed_form(operator: str, n: int, orientation: str) -> np.ndarray:
    """The paper's closed-form best symbol of each named operator."""
    size = 2**n
    if operator == "translation":
        m = np.arange(size, dtype=np.int64)
        out = np.empty(size)
        out[gray(m)] = 1.0 - 2.0 ** (1 - n) * (m + (m & 1))
        return out
    if operator == "difference":
        sign = -1.0 if orientation == "negated_backward_quotient" else 1.0
        return sign * optimal_paley(n)
    out = np.zeros(size)
    if operator == "antiderivative":
        out[0] = 0.5
    return out


def hs_norm_squared(operator: str, n: int) -> float:
    """Squared Hilbert-Schmidt norm of each named operator, from its entries."""
    size = float(2**n)
    if operator == "translation":
        return size
    if operator == "difference":
        return 2.0 * size**3
    if operator == "symmetric-difference":
        return size**3 / 2.0
    h = 1.0 / size
    return h * h * size * (size - 1) / 2.0 + (h / 2.0) ** 2 * size


# ---------------------------------------------------------------------------
# parsing


def _parse_csv(text: str, header: list[str]) -> tuple[list[list[str]], dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(header):
        raise CheckError(f"header is not {','.join(header)!r}")
    rows, footer = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, sep, value = line[2:].partition("=")
            if not sep:
                raise CheckError(f"malformed footer line {line!r}")
            footer[key] = value
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"row {line!r} has {len(cells)} fields, not {len(header)}")
        rows.append(cells)
    return rows, footer


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _table(text: str, fmt: str, header: list[str], key: str = "rows") -> tuple[list[list], dict]:
    """Rows as lists of raw cells in header order, and the footer or payload."""
    if fmt == "csv":
        return _parse_csv(text, header)
    payload = _json(text)
    try:
        rows = [[row[name] for name in header] for row in payload[key]]
    except (KeyError, TypeError) as exc:
        raise CheckError(f"JSON rows lack a field: {exc}") from None
    return rows, payload


def _numbers(cells) -> np.ndarray:
    try:
        return np.array([float(c) for c in cells], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"non-numeric cell: {exc}") from None


def _columns(rows: list[list], count: int) -> list[np.ndarray]:
    return [_numbers([row[i] for row in rows]) for i in range(count)]


def _expect_rows(rows: list, size: int) -> None:
    if len(rows) != size:
        raise CheckError(f"{len(rows)} rows, expected {size}")


def _exact(name: str, got: np.ndarray, want: np.ndarray) -> None:
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        raise CheckError(f"{name}[{i}] = {got[i]!r}, expected {want[i]!r}")


def _close(name: str, got, want, atol: float) -> None:
    got = np.atleast_1d(np.asarray(got, dtype=np.float64))
    want = np.atleast_1d(np.asarray(want, dtype=np.float64))
    err = np.abs(got - want)
    if not np.all(err <= atol):
        i = int(np.argmax(~(err <= atol)))
        raise CheckError(f"{name}[{i}] = {got[i]!r}, expected {want[i]!r} within {atol:g}")


def _scalar(payload: dict, key: str) -> float:
    if key not in payload:
        raise CheckError(f"missing {key!r}")
    return float(_numbers([payload[key]])[0])


# ---------------------------------------------------------------------------
# CLI outputs


def check_approx(text: str, fmt: str, operator: str, n: int, orientation: str) -> None:
    rows, extra = _table(text, fmt, ["k", "oracle", "closed_form", "abs_diff"])
    size = 2**n
    _expect_rows(rows, size)
    k, oracle, closed, diffs = _columns(rows, 4)
    want = closed_form(operator, n, orientation)
    _exact("k", k, np.arange(size, dtype=np.float64))
    _exact("closed_form", closed, want)
    # the tolerance `verify` applies to this identity
    tol = TOL * 2**n if operator == "difference" else TOL
    _close("oracle", oracle, want, tol)
    scale = max(1.0, float(np.max(np.abs(want))))
    _close("abs_diff", diffs, np.abs(oracle - closed), 1e-12 * scale)
    # residual^2 = |A|^2 - |P|^2 for the orthogonal projection P
    residual = np.sqrt(hs_norm_squared(operator, n) - float(np.sum(want**2)))
    _close("max_abs_diff", _scalar(extra, "max_abs_diff"), np.max(diffs), 1e-12 * scale)
    _close(
        "residual_hs_error",
        _scalar(extra, "residual_hs_error"),
        residual,
        REL_TOL * max(1.0, residual),
    )
    if fmt == "json" and (extra.get("operator"), extra.get("n")) != (operator, n):
        raise CheckError("JSON operator or n does not match the request")


COMPARE_SYMBOLS = ("optimal", "butzer_wagner", "onneweer", "zero")


def check_compare(text: str, fmt: str, n: int) -> None:
    rows, _ = _table(text, fmt, ["symbol", "hs_error"])
    _expect_rows(rows, len(COMPARE_SYMBOLS))
    names = [row[0] for row in rows]
    if names != list(COMPARE_SYMBOLS):
        raise CheckError(f"symbols {names}, expected {list(COMPARE_SYMBOLS)}")
    errors = _numbers([row[1] for row in rows])
    k = np.arange(2**n, dtype=np.int64)
    gamma = optimal_paley(n)
    # |D - C_s|^2 = |D - C_opt|^2 + |gamma - s|^2, with |D - C_opt|^2 = 2N^3 - sum gamma^2
    base = hs_norm_squared("difference", n) - float(np.sum(gamma**2))
    symbols = (gamma, k.astype(np.float64), onneweer(k), np.zeros(2**n))
    want = np.sqrt([base + float(np.sum((gamma - s) ** 2)) for s in symbols])
    _close("hs_error", errors, want, REL_TOL * float(np.max(want)))
    if not np.all(errors[0] < errors[1:]):
        raise CheckError("optimal is not the strict minimum")


def check_gamma(text: str, fmt: str, n: int, ordering: str) -> None:
    header = ["k", "gray_k", "gamma_optimal", "gamma_bw", "gamma_onneweer", "sequency"]
    rows, extra = _table(text, fmt, header)
    _expect_rows(rows, 2**n)
    k, gray_k, opt, bw, onw, seq = _columns(rows, 6)
    idx = np.arange(2**n, dtype=np.int64)
    # row k describes w_k (paley) or the Walsh function with k sign changes
    paley = idx if ordering == "paley" else gray(idx)
    _exact("k", k, idx.astype(np.float64))
    _exact("gray_k", gray_k, gray(idx).astype(np.float64))
    _exact("gamma_optimal", opt, optimal_paley(n)[paley])
    _exact("gamma_bw", bw, paley.astype(np.float64))
    _exact("gamma_onneweer", onw, onneweer(paley))
    _exact("sequency", seq, gray_inverse(paley).astype(np.float64))
    if fmt == "json" and (extra.get("n"), extra.get("ordering")) != (n, ordering):
        raise CheckError("JSON n or ordering does not match the request")


def check_sequency(text: str, fmt: str, n: int) -> None:
    rows, extra = _table(text, fmt, ["k", "gray_k", "sequency"])
    _expect_rows(rows, 2**n)
    k, gray_k, seq = _columns(rows, 3)
    idx = np.arange(2**n, dtype=np.int64)
    _exact("k", k, idx.astype(np.float64))
    _exact("gray_k", gray_k, gray(idx).astype(np.float64))
    _exact("sequency", seq, idx.astype(np.float64))
    if fmt == "json" and extra.get("n") != n:
        raise CheckError("JSON n does not match the request")


def check_transform(
    text: str, fmt: str, direction: str, vector: np.ndarray, probes: np.ndarray
) -> None:
    """Parseval plus direct O(N) sums at seeded indices, both ways round.

    For a forward transform c of grid values f: c_k = 2**-n sum_j f_j w_k(x_j)
    at each probe k, and f_j = sum_k c_k w_k(x_j) at each probe j.  The
    second family reads the whole output, so swapping two output values is
    caught unless every probe character agrees on them (odds 2**-probes).
    """
    if fmt == "csv":
        values = _numbers(text.splitlines())
    else:
        payload = _json(text)
        if payload.get("direction") != direction or payload.get("length") != vector.size:
            raise CheckError("JSON direction or length does not match the input")
        values = _numbers(payload.get("values", []))
    if values.size != vector.size:
        raise CheckError(f"{values.size} values, expected {vector.size}")
    n = vector.size.bit_length() - 1
    grid, spectrum = (vector, values) if direction == "forward" else (values, vector)
    energy = float(np.sum(spectrum**2))
    _close("parseval", np.mean(grid**2), energy, REL_TOL * max(1.0, energy))
    rev = bit_reverse(n)
    k = np.arange(vector.size, dtype=np.int64)
    coeff_tol = TOL * max(1.0, float(np.max(np.abs(grid))))
    value_tol = TOL * max(1.0, float(np.sum(np.abs(spectrum))))
    for p in probes.tolist():
        w_p = 1.0 - 2.0 * (np.bitwise_count(rev & p) & 1)  # w_p(x_j) over j
        w_at_p = 1.0 - 2.0 * (np.bitwise_count(k & int(rev[p])) & 1)  # w_k(x_p) over k
        _close(f"coeff[{p}]", spectrum[p], np.dot(grid, w_p) / vector.size, coeff_tol)
        _close(f"value[{p}]", grid[p], np.dot(spectrum, w_at_p), value_tol)


def _verify_plan(n_max: int, tol: float) -> list[tuple[str, int, float]]:
    """(name, n, tolerance) of every record `verify --n-max` must emit, in order."""
    # (name, cap on n, tolerance kind) in the suite's order
    suite = (
        ("gray_bijection", None, "exact"),
        ("shift_gray_commute", None, "exact"),
        ("tail_mask_identity", None, "exact"),
        ("last_set_position_counts", None, "exact"),
        ("character_law", 6, "exact"),
        ("orthonormality", 6, "tol"),
        ("parseval", None, "tol"),
        ("fwht_vs_naive", 8, "tol"),
        ("fwht_roundtrip", None, "tol"),
        ("convolution_theorem", 8, "tol"),
        ("sign_change_predicate", 10, "exact"),
        ("sequency_gray", None, "exact"),
        ("hs_conjugation_invariance", 8, "tol"),
        ("translation_full_cycle", None, "exact"),
        ("difference_annihilates_constants", None, "tol"),
        ("antiderivative_row_sums", None, "tol"),
        ("translation_closed_form", None, "tol"),
        ("difference_gamma_closed_form", None, "tol_scaled"),
        ("negated_orientation_symmetry", None, "tol"),
        ("symmetric_difference_zero_symbol", None, "tol"),
        ("antiderivative_half_delta_symbol", None, "tol"),
        ("gamma_two_branch_consistency", None, "exact"),
        ("projection_optimality", 6, "tol"),
        ("residual_orthogonality", 6, "tol"),
    )
    plan = []
    for name, cap, kind in suite:
        for n in range(1, (n_max if cap is None else min(n_max, cap)) + 1):
            t = {"exact": 0.0, "tol": tol, "tol_scaled": tol * 2**n}[kind]
            plan.append((name, n, t))
    plan += [("resolution_consistency", n, tol) for n in range(1, n_max)]
    plan.append(("mc_hs_identity", min(n_max, 4), 0.05))
    return plan


def check_verify(code: int, text: str, fmt: str, n_max: int, seed: int) -> None:
    if code != 0:
        raise CheckError(f"exit code {code}")
    rows, extra = _table(text, fmt, ["name", "n", "max_abs_error", "tolerance", "pass"], "checks")
    plan = _verify_plan(n_max, TOL)
    _expect_rows(rows, len(plan))
    got_plan = [(row[0], row[1]) for row in rows]
    want_plan = [(name, n if fmt == "json" else str(n)) for name, n, _ in plan]
    if got_plan != want_plan:
        i = next(i for i, (a, b) in enumerate(zip(got_plan, want_plan)) if a != b)
        raise CheckError(f"record {i} is {got_plan[i]}, expected {want_plan[i]}")
    errors = _numbers([row[2] for row in rows])
    tolerances = _numbers([row[3] for row in rows])
    _exact("tolerance", tolerances, np.array([t for _, _, t in plan]))
    if not np.all(errors <= tolerances):
        i = int(np.argmax(~(errors <= tolerances)))
        raise CheckError(f"record {i} error {errors[i]!r} exceeds {tolerances[i]!r}")
    passes = [row[4] for row in rows]
    if any(p not in ("true", True) for p in passes):
        raise CheckError("a record does not pass")
    if fmt == "csv":
        if extra != {"overall_pass": "true"}:
            raise CheckError(f"footer is {extra}, expected overall_pass=true")
    elif (extra.get("overall_pass"), extra.get("n_max"), extra.get("seed")) != (True, n_max, seed):
        raise CheckError("JSON overall_pass, n_max or seed is wrong")


# ---------------------------------------------------------------------------
# library outputs on dense operators


class DenseReference:
    """Expectations for one dense matrix A, computed before its operation runs.

    ``w`` is walsh_rows(n), shared by every matrix of one resolution.
    """

    def __init__(self, a: np.ndarray, probes: np.ndarray, w: np.ndarray):
        self.size = a.shape[0]
        self.probes = probes
        self.norm = float(np.linalg.norm(a))
        rows = w[probes]
        # Freivalds vectors v; the products (U A U^T) v with U = 2**(-n/2) W
        # share one pass over A with the probed symbol entries
        self.vectors = np.random.default_rng(int(probes[0])).standard_normal((2, self.size))
        a_right = a @ np.hstack([rows.T, w.T @ self.vectors.T])
        # symbol entries w_k^T A w_k / N at the probe indices
        self.diag = np.einsum("pi,ip->p", rows, a_right[:, : probes.size]) / self.size
        # fold sums b_t = sum_i A[i, i ^ t], which equal sum_k s_k w_k(x_t)
        i = np.arange(self.size)
        self.fold = np.array([a[i, i ^ t].sum() for t in probes.tolist()])
        self.characters_at = np.ascontiguousarray(w[:, probes].T)  # w_k(x_t) over k
        self.products = (w @ a_right[:, probes.size :]).T / self.size

    def check_fit(self, symbol: np.ndarray, error: float) -> None:
        symbol = np.asarray(symbol, dtype=np.float64)
        if symbol.shape != (self.size,):
            raise CheckError(f"symbol shape {symbol.shape}, expected ({self.size},)")
        tol = REL_TOL * self.norm
        _close("symbol", symbol[self.probes], self.diag, tol)
        _close("fold", self.characters_at @ symbol, self.fold, tol)
        # |A - C_s|^2 = |A|^2 - |s|^2 when s is the projection
        want = np.sqrt(max(0.0, self.norm**2 - float(np.sum(symbol**2))))
        _close("approx_error", error, want, tol)

    def check_conjugate(self, m: np.ndarray) -> None:
        if m.shape != (self.size, self.size):
            raise CheckError(f"matrix shape {m.shape}, expected ({self.size}, {self.size})")
        tol = REL_TOL * self.norm
        _close("diagonal", m[self.probes, self.probes], self.diag, tol)
        _close("norm", np.linalg.norm(m), self.norm, tol)
        products = (m @ self.vectors.T).T
        _close("freivalds", products.ravel(), self.products.ravel(), tol * np.sqrt(self.size))
