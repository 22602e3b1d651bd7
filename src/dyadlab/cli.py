"""Command-line front end.

Subcommands: gamma, approx, compare, verify, transform, sequency.  Shared
flags on every subcommand: --format {csv,json}, --out PATH (default
stdout).  Only verify takes --seed INT and --tol FLOAT; any other
subcommand rejects them as a usage error.  Exit codes: 0 success, 1
verification failure, 2 usage or I/O error, reported as one `error:` line
on stderr.  CSV output uses fixed headers and 15 significant digits; JSON
output is key-sorted and byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .best_approx import (
    FAMILIES,
    NAMED_OPERATORS,
    ConvolutionSymbol,
    approx_error,
    best_convolution_symbol,
    butzer_wagner_gamma,
    gamma_symbol,
    named_problem,
    onneweer_gamma,
    optimal_gamma,
)
from .dyadic import gray, gray_inverse
from .operators import ORIENTATIONS, difference_operator
from .verify import DEFAULT_SEED, DEFAULT_TOLERANCE, run_verification
from .walsh import GridFunction, WalshSpectrum, fwht_forward, fwht_inverse, sequency_counts

__all__ = ["main"]


class UsageError(Exception):
    """Invalid arguments or failed I/O; reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as one `error:` line, like every exit-2 failure."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".15g")


def _emit(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _render(args, header, rows, meta, footer=None, key="rows") -> None:
    """Write one table in args.format.

    CSV: the header, one line per row and a `# name=value` line per footer
    entry.  JSON: meta and footer entries plus the rows under `key`, one
    object per row, key-sorted.
    """
    footer = footer or {}
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(map(_fmt, row)) for row in rows]
        lines += [f"# {name}={_fmt(value)}" for name, value in footer.items()]
        text = "\n".join(lines) + "\n"
    else:
        payload = {**meta, **footer, key: [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)


def _require_range(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise UsageError(f"{name} must lie in [{low}, {high}], got {value}")


def cmd_gamma(args) -> int:
    _require_range("n", args.n, 1, 16)
    size = 2**args.n
    counts = sequency_counts(args.n).tolist()
    rows = []
    for k in range(size):
        # in paley ordering row k describes w_k; in sequency ordering it
        # describes the Walsh function with k sign changes, w_gray(k)
        p = k if args.ordering == "paley" else gray(k)
        rows.append(
            [
                k,
                gray(k),
                optimal_gamma(gray_inverse(p)),
                butzer_wagner_gamma(p),
                onneweer_gamma(p),
                counts[p],
            ]
        )
    header = ["k", "gray_k", "gamma_optimal", "gamma_bw", "gamma_onneweer", "sequency"]
    _render(args, header, rows, {"n": args.n, "ordering": args.ordering})
    return 0


def cmd_approx(args) -> int:
    _require_range("n", args.n, 1, 12)
    operator, symbol = named_problem(args.operator, args.n, args.orientation)
    closed = symbol.coeffs
    oracle = best_convolution_symbol(operator)
    diffs = np.abs(oracle.coeffs - closed)
    rows = list(
        zip(range(2**args.n), oracle.coeffs.tolist(), closed.tolist(), diffs.tolist())
    )
    meta = {"operator": args.operator, "n": args.n, "orientation": args.orientation}
    footer = {
        "max_abs_diff": float(np.max(diffs)),
        "residual_hs_error": approx_error(operator, oracle),
    }
    _render(args, ["k", "oracle", "closed_form", "abs_diff"], rows, meta, footer)
    return 0


def cmd_compare(args) -> int:
    _require_range("n", args.n, 2, 10)
    delta = difference_operator(args.n, "backward_quotient")
    symbols = [(name, gamma_symbol(f, args.n)) for name, f in FAMILIES.items()]
    symbols.append(("zero", ConvolutionSymbol(np.zeros(2**args.n))))
    rows = [[name, approx_error(delta, s)] for name, s in symbols]
    _render(args, ["symbol", "hs_error"], rows, {"n": args.n})
    return 0


def cmd_verify(args) -> int:
    _require_range("n_max", args.n_max, 1, 10)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"tol must be finite and nonnegative, got {args.tol}")
    if args.seed < 0:
        raise UsageError(f"seed must be nonnegative, got {args.seed}")
    report = run_verification(n_max=args.n_max, tolerance=args.tol, seed=args.seed)
    rows = [
        [c.name, c.n, c.max_abs_error, c.tolerance, c.passed] for c in report.checks
    ]
    _render(
        args,
        ["name", "n", "max_abs_error", "tolerance", "pass"],
        rows,
        {"n_max": report.n_max, "seed": report.seed},
        {"overall_pass": report.overall_pass},
        key="checks",
    )
    return 0 if report.overall_pass else 1


def _read_vector(path: str) -> np.ndarray:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise UsageError(f"input file not found: {path}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read input: {exc}") from None
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise UsageError(f"line {lineno} is not a number: {line!r}") from None
        if not math.isfinite(value):
            raise UsageError(f"line {lineno} is not finite: {line!r}")
        values.append(value)
    if not values:
        raise UsageError("input vector is empty")
    return np.asarray(values, dtype=np.float64)


def cmd_transform(args) -> int:
    vector = _read_vector(args.input)
    if vector.size & (vector.size - 1):
        raise UsageError(f"input length {vector.size} is not a power of two")
    if args.direction == "forward":
        result = fwht_forward(GridFunction(vector)).coeffs
    else:
        result = fwht_inverse(WalshSpectrum(vector)).values
    if args.format == "csv":
        _emit("\n".join(_fmt(v) for v in result) + "\n", args.out)
    else:
        payload = {
            "direction": args.direction,
            "length": int(result.size),
            "values": result.tolist(),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_sequency(args) -> int:
    _require_range("n", args.n, 1, 14)
    counts = sequency_counts(args.n).tolist()
    rows = [[k, gray(k), counts[gray(k)]] for k in range(2**args.n)]
    _render(args, ["k", "gray_k", "sequency"], rows, {"n": args.n})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    common.add_argument("--out", default=None, help="output path (default stdout)")

    parser = _Parser(
        prog="dyadlab",
        description="Walsh analysis tables, operator approximation, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gamma", parents=[common], help="eigenvalue families for every index below 2**n"
    )
    p.add_argument("-n", type=int, required=True, help="resolution, 1..16")
    p.add_argument("--ordering", choices=("paley", "sequency"), default="paley")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser(
        "approx",
        parents=[common],
        help="best convolution symbol of a named operator vs its closed form",
    )
    p.add_argument("operator", choices=NAMED_OPERATORS)
    p.add_argument("-n", type=int, required=True, help="resolution, 1..12")
    p.add_argument(
        "--orientation",
        choices=ORIENTATIONS,
        default="backward_quotient",
        help="sign convention for the difference operator",
    )
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser(
        "compare",
        parents=[common],
        help="HS distance from the difference quotient to each symbol family",
    )
    p.add_argument("-n", type=int, required=True, help="resolution, 2..10")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "verify", parents=[common], help="run the full invariant suite"
    )
    p.add_argument("--n-max", type=int, default=8, help="largest resolution, 1..10")
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks"
    )
    p.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="tolerance for floating-point checks",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "transform", parents=[common], help="Walsh transform of a vector file"
    )
    p.add_argument("input", help="file with one number per line, or - for stdin")
    p.add_argument(
        "--direction", choices=("forward", "inverse"), default="forward"
    )
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser(
        "sequency", parents=[common], help="sign-change counts in sequency order"
    )
    p.add_argument("-n", type=int, required=True, help="resolution, 1..14")
    p.set_defaults(func=cmd_sequency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
