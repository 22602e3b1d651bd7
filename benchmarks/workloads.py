"""The benchmark's four workloads.

A workload hands out rounds: lists of operations with fixed proportions,
shuffled from the seed.  Each operation is a call into dyadlab made
in-process, either the CLI's ``main`` with an argument list or a library
function, plus a check of what it returned.  Operations that take data
(dense matrices, transform input files) build fresh seeded data before
their timer starts, so no two calls see the same input.  The program
receives only the generated inputs; the seed never reaches it except as
`verify`'s own ``--seed``, which is an input of that command.

Sizes and proportions are chosen so that a round of at least 100
operations fits one run on a 2-core machine, and so that the median and
the 90th percentile each fall inside one size class.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    label: str
    size: str  # the operation's size class
    run: Callable[[object], object]  # the measured call, given prepare()'s inputs
    check: Callable[[object, object], None]  # (result, inputs); raises checks.CheckError
    prepare: Callable[[], object] = lambda: None  # fresh inputs, built untimed


class Workload:
    """Inputs plus the composition of one round; subclasses fill both."""

    def __init__(self, seed: int, work: Path):
        import dyadlab.cli

        self.dyadlab = dyadlab
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.out = work / "out"
        self.ops: list[Op] = []
        self.warmup: list[Op] = []

    def round(self) -> list[Op]:
        return [self.ops[i] for i in self.rng.permutation(len(self.ops))]

    def cli(self, label: str, size: str, argv: list[str], check, prepare=None) -> Op:
        """An in-process CLI call writing to the work directory.

        ``check(code, text, inputs)`` sees the exit code, the written output
        and what ``prepare`` returned.
        The output file is removed after each check, so an operation that
        writes nothing cannot pass on a stale file.
        """
        argv = argv + ["--out", str(self.out)]
        out = self.out
        ns = self.dyadlab

        def run(inputs):
            # looked up at call time, so the traced run sees the wrapper
            return ns.cli.main(argv)

        def verify(code, inputs):
            try:
                text = out.read_text(encoding="utf-8") if out.exists() else ""
                if code != 0:
                    raise checks.CheckError(f"exit code {code}")
                check(code, text, inputs)
            finally:
                out.unlink(missing_ok=True)

        return Op(label, size, run, verify, prepare or Op.prepare)


class ApproxCap(Workload):
    VARIANTS = (
        ("translation", "backward_quotient"),
        ("difference", "backward_quotient"),
        ("difference", "negated_backward_quotient"),
        ("symmetric-difference", "backward_quotient"),
        ("antiderivative", "backward_quotient"),
    )

    def __init__(self, seed, work):
        super().__init__(seed, work)
        # per round: 38 compare -n 10, 12 x 5 approx at n=11, and approx at
        # n=12 for two variants drawn from the seed.  Both percentiles fall
        # among the n=11 calls: compare -n 10 is four 2-thread BLAS products
        # whose times swing with the other core's load.
        self.ops = [self._compare(10) for _ in range(38)]
        for variant in self.VARIANTS:
            self.ops += [self._approx(*variant, 11) for _ in range(12)]
        for i in self.rng.choice(len(self.VARIANTS), size=2, replace=False):
            self.ops.append(self._approx(*self.VARIANTS[i], 12))
        self.warmup = [self._compare(6)] + [self._approx(*v, 6) for v in self.VARIANTS]

    def _approx(self, operator, orientation, n):
        argv = ["approx", operator, "-n", str(n), "--orientation", orientation]

        def check(code, text, inputs):
            checks.check_approx(text, "csv", operator, n, orientation)

        return self.cli(f"approx {operator} {orientation} -n {n}", f"n{n}", argv, check)

    def _compare(self, n):
        return self.cli(f"compare -n {n}", f"n{n}", ["compare", "-n", str(n)],
                        lambda code, text, inputs: checks.check_compare(text, "csv", n))


class ProjectDense(Workload):
    PROBES = 8

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.walsh_rows = {n: checks.walsh_rows(n) for n in (6, 10, 11)}
        # per round: 20 fits + 20 conjugations at n=10 (8 MB matrices),
        # 40 + 40 at n=11 (32 MB), each on a fresh seeded matrix.  The median
        # falls in the middle of the n=11 conjugations and p90 among the n=11
        # fits: n=10 calls are short 2-thread BLAS products whose times swing
        # with the other core's load.
        for n, count in ((10, 20), (11, 40)):
            self.ops += [self._fit(n) for _ in range(count)]
            self.ops += [self._conjugate(n) for _ in range(count)]
        self.warmup = [self._fit(6), self._conjugate(6)]

    def _matrix(self, n):
        """A fresh seeded matrix and the expectations for it."""
        from dyadlab.operators import DenseOperator

        a = self.rng.uniform(-1.0, 1.0, (2**n, 2**n))
        probes = self.rng.choice(2**n, size=self.PROBES, replace=False)
        return DenseOperator(a), checks.DenseReference(a, probes, self.walsh_rows[n])

    def _fit(self, n):
        ns = self.dyadlab

        def run(inputs):
            a, _ = inputs
            symbol = ns.best_approx.best_convolution_symbol(a)
            return symbol.coeffs, ns.best_approx.approx_error(a, symbol)

        return Op(f"fit n={n}", f"n{n}", run,
                  lambda result, inputs: inputs[1].check_fit(*result), lambda: self._matrix(n))

    def _conjugate(self, n):
        ns = self.dyadlab
        return Op(f"walsh_conjugate n={n}", f"n{n}",
                  lambda inputs: ns.operators.walsh_conjugate(inputs[0]),
                  lambda result, inputs: inputs[1].check_conjugate(result), lambda: self._matrix(n))


class TablesIO(Workload):
    N = 13
    TRANSFORM_LENGTH = 2**16

    def __init__(self, seed, work):
        super().__init__(seed, work)
        formats = ("csv", "json")
        directions = ("forward", "inverse")
        # per round: gamma -n 16 twice, then ten of each of the ten small variants
        self.ops = [self._gamma(16, "paley", "csv", "n16"), self._gamma(16, "sequency", "json", "n16")]
        for _ in range(10):
            for fmt in formats:
                self.ops += [self._gamma(self.N, o, fmt, "small") for o in ("paley", "sequency")]
                self.ops.append(self._sequency(self.N, fmt))
                self.ops += [self._transform(d, fmt, self.TRANSFORM_LENGTH) for d in directions]
        self.warmup = [op for fmt in formats for op in (
            self._gamma(4, "sequency", fmt, "small"), self._sequency(4, fmt),
            *(self._transform(d, fmt, 16) for d in directions))]

    def _gamma(self, n, ordering, fmt, size):
        argv = ["gamma", "-n", str(n), "--ordering", ordering, "--format", fmt]
        return self.cli(f"gamma -n {n} {ordering} {fmt}", size, argv,
                        lambda code, text, inputs: checks.check_gamma(text, fmt, n, ordering))

    def _sequency(self, n, fmt):
        return self.cli(f"sequency -n {n} {fmt}", "small",
                        ["sequency", "-n", str(n), "--format", fmt],
                        lambda code, text, inputs: checks.check_sequency(text, fmt, n))

    def _transform(self, direction, fmt, length):
        path = self.work / "vector.txt"

        def prepare():
            """A fresh seeded input file, with the probes its check uses."""
            vector = self.rng.standard_normal(length)
            probes = self.rng.choice(length, size=8, replace=False)
            path.write_text("\n".join(map(repr, vector.tolist())) + "\n", encoding="utf-8")
            return vector, probes

        argv = ["transform", str(path), "--direction", direction, "--format", fmt]
        return self.cli(
            f"transform {direction} {length} {fmt}", "small", argv,
            lambda code, text, inputs: checks.check_transform(text, fmt, direction, *inputs),
            prepare)


class VerifySuite(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        # per round: 40 + 40 at --n-max 7, 10 + 10 at --n-max 10
        for n_max, count in ((7, 40), (10, 10)):
            for fmt in ("csv", "json"):
                self.ops += [self._verify(n_max, fmt) for _ in range(count)]
        self.warmup = [self._verify(3, fmt) for fmt in ("csv", "json")]

    def _verify(self, n_max, fmt):
        seed = int(self.rng.integers(2**31))
        argv = ["verify", "--n-max", str(n_max), "--format", fmt, "--seed", str(seed)]
        return self.cli(f"verify --n-max {n_max} {fmt}", f"n{n_max}", argv,
                        lambda code, text, inputs: checks.check_verify(code, text, fmt, n_max, seed))


WORKLOADS = {
    "approx_cap": ApproxCap,
    "project_dense": ProjectDense,
    "tables_io": TablesIO,
    "verify_suite": VerifySuite,
}
