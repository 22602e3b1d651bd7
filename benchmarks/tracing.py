"""Timing wrappers around dyadlab's public functions, for the traced run.

``Tracer.install`` wraps every callable named in the ``__all__`` of the six
modules and rebinds the wrapper in every dyadlab namespace that holds the
original, so calls through ``from .x import y`` are caught as well as calls
through ``module.y``.  Each call's self time is its duration minus the time
of the wrapped calls it makes.  Calls of functions that run once per
element (``SCALAR``) only add to a count and a time; every other call also
leaves a span (name, layer, start, end, parent span, operation id) that is
kept in memory and written out by ``write_spans``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dyadic", "walsh", "operators", "best_approx", "verify", "cli")

# (layer, function) -> the metric group it reports under; a function of a
# layer without an entry only counts towards that layer's totals
GROUPS = {
    ("best_approx", "best_convolution_symbol"): "project",
    ("best_approx", "approx_error"): "error",
    ("best_approx", "symbol_to_operator"): "symbol_to_operator",
    ("best_approx", "gamma_symbol"): "closed_form",
    ("best_approx", "translation_symbol_closed_form"): "closed_form",
    ("best_approx", "optimal_gamma"): "gamma_rule",
    ("best_approx", "butzer_wagner_gamma"): "gamma_rule",
    ("best_approx", "onneweer_gamma"): "gamma_rule",
    ("walsh", "walsh_matrix"): "walsh_matrix",
    ("walsh", "sequency_counts"): "sequency_counts",
    ("walsh", "fwht_forward"): "fwht",
    ("walsh", "fwht_inverse"): "fwht",
    ("walsh", "fwht_forward_naive"): "naive",
    ("walsh", "fwht_inverse_naive"): "naive",
    ("walsh", "dyadic_convolve_naive"): "naive",
    ("walsh", "walsh_eval"): "walsh_eval",
    ("operators", "translation_operator"): "build",
    ("operators", "difference_operator"): "build",
    ("operators", "symmetric_difference_operator"): "build",
    ("operators", "compressed_antiderivative"): "build",
    ("operators", "walsh_conjugate"): "walsh_conjugate",
    ("operators", "hs_inner"): "hs",
    ("operators", "hs_norm"): "hs",
    ("operators", "hs_norm_monte_carlo"): "hs_norm_monte_carlo",
    ("verify", "run_verification"): "run",
    ("cli", "main"): "main",
}

SCALAR_FUNCTIONS = {
    ("walsh", "walsh_eval"),
    ("best_approx", "optimal_gamma"),
    ("best_approx", "butzer_wagner_gamma"),
    ("best_approx", "onneweer_gamma"),
}

# work counters read off arguments and results (see Tracer._probe)
COUNTERS = (
    "walsh.walsh_matrix.bytes_computed",
    "walsh.sequency_counts.pairs",
    "walsh.fwht.elements",
    "walsh.fwht.bytes_computed",
    "operators.build.bytes_computed",
    "verify.checks",
    "verify.checks_failed",
    "cli.bytes_in",
    "cli.bytes_out",
    "cli.exit_nonzero",
    "dyadic.bit_reversal_permutation.hit_ratio",
    "bench.op_s",
    "bench.self_s",
)


def _is_scalar(layer: str, name: str) -> bool:
    return layer == "dyadic" or (layer, name) in SCALAR_FUNCTIONS


def _result_nbytes(result) -> int:
    for attr in ("entries", "coeffs", "values"):
        if hasattr(result, attr):
            return int(getattr(result, attr).nbytes)
    return int(result.nbytes)


def _cli_bytes(argv) -> tuple[int, int]:
    """Sizes of the input file of `transform` and of the --out file."""
    argv = list(argv)
    bytes_in = 0
    if argv and argv[0] == "transform" and argv[1] != "-" and os.path.exists(argv[1]):
        bytes_in = os.path.getsize(argv[1])
    bytes_out = 0
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            bytes_out = os.path.getsize(out)
    return bytes_in, bytes_out


class Tracer:
    """Call counts, self times, counters and spans of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)  # (layer, name) -> calls
        self.self_s = defaultdict(float)  # (layer, name) -> self time
        self.counters = dict.fromkeys(COUNTERS, 0.0)  # metric name -> value
        self.errors = defaultdict(int)  # layer -> exceptions raised
        self.spans: list = []
        # frames of the calls in progress: [time of wrapped children, span id]
        self._stack = [[0.0, -1]]
        self._op_id = -1
        self._restore: list = []
        self._cache_before = None
        self._cache = None

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: int, label: str) -> None:
        self._op_id = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, span_id, label, self.clock()])

    def end_op(self) -> None:
        end = self.clock()
        children, span_id, label, start = self._stack.pop()
        duration = end - start
        self.counters["bench.op_s"] += duration
        self.counters["bench.self_s"] += duration - children
        self.spans[span_id] = (label, "bench", start, end, -1, self._op_id)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        key = (layer, name)
        scalar = _is_scalar(layer, name)
        stack, clock, calls, self_s = self._stack, self.clock, self.calls, self.self_s
        probe = self._probe

        def traced(*args, **kwargs):
            parent = stack[-1]
            if scalar:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(self.spans)]
                self.spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                calls[key] += 1
                self_s[key] += duration - frame[0]
                if not scalar:
                    self.spans[frame[1]] = (name, layer, start, end, parent[1], self._op_id)
            probe(key, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _probe(self, key, args, result) -> None:
        """Work counters read off a call's arguments and result."""
        group = GROUPS.get(key)
        c = self.counters
        if group == "walsh_matrix":
            c["walsh.walsh_matrix.bytes_computed"] += result.nbytes
        elif group == "sequency_counts":
            c["walsh.sequency_counts.pairs"] += float(result.size) ** 2
        elif group == "fwht":
            c["walsh.fwht.elements"] += _result_nbytes(result) // 8
            c["walsh.fwht.bytes_computed"] += _result_nbytes(result)
        elif group == "build":
            c["operators.build.bytes_computed"] += _result_nbytes(result)
        elif group == "run":
            c["verify.checks"] += len(result.checks)
            c["verify.checks_failed"] += sum(not r.passed for r in result.checks)
        elif group == "main":
            bytes_in, bytes_out = _cli_bytes(args[0] if args else [])
            c["cli.bytes_in"] += bytes_in
            c["cli.bytes_out"] += bytes_out
            c["cli.exit_nonzero"] += result != 0

    def install(self) -> None:
        """Wrap each public callable and rebind it wherever dyadlab holds it."""
        import dyadlab
        from dyadlab import best_approx, cli, dyadic, operators, verify, walsh

        modules = {
            "dyadic": dyadic, "walsh": walsh, "operators": operators,
            "best_approx": best_approx, "verify": verify, "cli": cli,
        }
        namespaces = [dyadlab, *modules.values()]
        self._cache = dyadic.bit_reversal_permutation
        self._cache_before = self._cache.cache_info()
        wrappers = {}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type):
                    wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((ns, name, value))
                    object.__setattr__(ns, name, wrappers[id(value)][1])
        # the eigenvalue families hold their rules directly
        for family in best_approx.FAMILIES.values():
            if id(family.rule) in wrappers:
                self._restore.append((family, "rule", family.rule))
                object.__setattr__(family, "rule", wrappers[id(family.rule)][1])

    def uninstall(self) -> None:
        info = self._cache.cache_info()
        hits = info.hits - self._cache_before.hits
        lookups = hits + info.misses - self._cache_before.misses
        self.counters["dyadic.bit_reversal_permutation.hit_ratio"] = hits / lookups if lookups else 0.0
        for owner, name, value in reversed(self._restore):
            # object.__setattr__ also writes the frozen GammaFamily
            object.__setattr__(owner, name, value)
        self._restore.clear()

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every metric the tracer computes, zero where nothing was called."""
        out = dict(self.counters)
        for layer in ("best_approx", "walsh", "operators"):
            out[f"{layer}.self_s"] = 0.0
        for (layer, _), group in GROUPS.items():
            if layer in ("best_approx", "walsh", "operators"):
                out[f"{layer}.{group}.calls"] = 0.0
                out[f"{layer}.{group}.self_s"] = 0.0
        out.update({"dyadic.calls": 0.0, "dyadic.self_s": 0.0, "verify.run.self_s": 0.0,
                    "cli.main.calls": 0.0, "cli.self_s": 0.0})
        for (layer, name), calls in self.calls.items():
            spent = self.self_s[(layer, name)]
            group = GROUPS.get((layer, name))
            if layer == "dyadic":
                out["dyadic.calls"] += calls
                out["dyadic.self_s"] += spent
            elif layer == "verify":
                out["verify.run.self_s"] += spent
            elif layer == "cli":
                out["cli.main.calls"] += calls
                out["cli.self_s"] += spent
            else:
                out[f"{layer}.self_s"] += spent
            if group and layer in ("best_approx", "walsh", "operators"):
                out[f"{layer}.{group}.calls"] += calls
                out[f"{layer}.{group}.self_s"] += spent
        for layer in LAYERS:
            out[f"{layer}.errors"] = float(self.errors[layer])
        return {name: float(value) for name, value in out.items()}

    def layer_self_s(self) -> dict[str, float]:
        """Self time of each layer and of the benchmark's own code."""
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _), spent in self.self_s.items():
            out[layer] += spent
        out["bench"] = self.counters["bench.self_s"]
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, layer, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span, separators=(",", ":")) + "\n")
