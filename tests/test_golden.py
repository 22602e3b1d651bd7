"""Golden bytes of every CLI subcommand, in CSV and in JSON.

Small cases are stored whole under tests/golden/; cases at the n caps are
stored as sha256 digests in tests/golden/SHA256SUMS.  Every case also pins
its exit code.  After a deliberate change of output, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
from pathlib import Path

import pytest

from dyadlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUT = GOLDEN / "transform_input.txt"
DIGESTS = GOLDEN / "SHA256SUMS"

_APPROX_VARIANTS = (
    "translation",
    "difference",
    "difference --orientation negated_backward_quotient",
    "symmetric-difference",
    "antiderivative",
)

# (argv, exit code); INPUT stands for the fixed vector file
FULL = [
    ("gamma -n 3", 0),
    ("gamma -n 3 --ordering sequency", 0),
    ("sequency -n 4", 0),
    ("compare -n 5", 0),
    *((f"approx {v} -n 4", 0) for v in _APPROX_VARIANTS),
    ("transform INPUT", 0),
    ("transform INPUT --direction inverse", 0),
    ("verify --n-max 3", 0),
    ("verify --n-max 3 --tol 1e-30", 1),
]
CAPPED = [
    ("gamma -n 16", 0),
    ("sequency -n 14", 0),
    ("compare -n 10", 0),
    *((f"approx {v} -n 11", 0) for v in _APPROX_VARIANTS),
    ("approx difference -n 12", 0),
    ("verify --n-max 10", 0),
]
FORMATS = ("csv", "json")


def _name(spec: str, fmt: str) -> str:
    words = [w.lstrip("-").replace("-", "_") for w in spec.split()]
    return "_".join(words) + "." + fmt


def _run(spec: str, fmt: str, out: Path) -> tuple[int, bytes]:
    argv = [str(INPUT) if w == "INPUT" else w for w in spec.split()]
    code = main(argv + ["--format", fmt, "--out", str(out)])
    return code, out.read_bytes()


def _digests() -> dict[str, str]:
    lines = DIGESTS.read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("spec,code", FULL, ids=[s for s, _ in FULL])
def test_golden_full(tmp_path, spec, code, fmt):
    name = _name(spec, fmt)
    assert _run(spec, fmt, tmp_path / name) == (code, (GOLDEN / name).read_bytes())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("spec,code", CAPPED, ids=[s for s, _ in CAPPED])
def test_golden_capped(tmp_path, spec, code, fmt):
    name = _name(spec, fmt)
    got_code, got = _run(spec, fmt, tmp_path / name)
    assert (got_code, hashlib.sha256(got).hexdigest()) == (code, _digests()[name])


def regenerate() -> None:
    sums = []
    for cases, whole in ((FULL, True), (CAPPED, False)):
        for spec, code in cases:
            for fmt in FORMATS:
                name = _name(spec, fmt)
                got_code, got = _run(spec, fmt, GOLDEN / name)
                assert got_code == code, f"{spec} --format {fmt} exited {got_code}"
                if not whole:
                    (GOLDEN / name).unlink()
                    sums.append(f"{hashlib.sha256(got).hexdigest()}  {name}\n")
    DIGESTS.write_text("".join(sums))


if __name__ == "__main__":
    regenerate()
