"""Golden outputs: default CLI runs must reproduce the stored CSVs byte for
byte.

tests/golden/<run>/ holds every CSV the run writes. A change that moves a
value on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and lists each changed value with its size in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dqdsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

# run name -> CLI arguments (before --out); "{golden}" is the golden folder
RUNS = {
    "sweep_l": ["sweep-l"],
    "solve_b0": ["solve", "--b", "0"],
    "solve_b8": ["solve", "--b", "8"],
    "sweep_b": ["sweep-b"],
    "calibrate": ["calibrate", "{golden}/calibrate_targets.csv"],
}


def run(name: str, out: Path) -> None:
    argv = [arg.format(golden=GOLDEN) for arg in RUNS[name]]
    code = main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"dqdsim {' '.join(argv)} exited {code}")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csvs_byte_identical(name, tmp_path, capsys):
    run(name, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / name).glob("*.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == expected
    for csv in expected:
        assert (tmp_path / csv).read_bytes() == \
            (GOLDEN / name / csv).read_bytes(), f"{name}/{csv} differs"


if __name__ == "__main__":
    for name in RUNS:
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for old in (GOLDEN / name).glob("*.csv"):
            old.unlink()
        run(name, GOLDEN / name)
    sys.exit(0)
