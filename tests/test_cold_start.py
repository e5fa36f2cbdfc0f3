"""The package runs without scipy: every command and
effective_interdot_distance complete in a fresh interpreter in which any
import of a scipy module raises ImportError, and importing the package
loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = str(ROOT / "src")
GOLDEN = ROOT / "tests" / "golden"
SCIPY_MODULES = (
    "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    " or None)")
# a finder ahead of every other one on sys.meta_path, refusing scipy
NO_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)


def test_import_loads_no_scipy():
    done = fresh_interpreter(f"import sys, dqdsim\n{SCIPY_MODULES}")
    assert done.returncode == 0, done.stderr


def test_blocker_refuses_scipy():
    # the tests below would pass vacuously if the finder let scipy through
    done = fresh_interpreter(NO_SCIPY + "import scipy.optimize\n")
    assert done.returncode == 1
    assert "ImportError: scipy is blocked" in done.stderr


@pytest.mark.parametrize("argv", [
    ["solve", "--b", "8"], ["solve"], ["sweep-b"], ["sweep-l"],
    ["calibrate", str(GOLDEN / "calibrate_targets.csv")],
    ["fit-powerlaw", str(GOLDEN / "sweep_l" / "gap_vs_L.csv")],
], ids=["solve", "solve-b0", "sweep-b", "sweep-l", "calibrate",
        "fit-powerlaw"])
def test_command_loads_no_scipy(argv, tmp_path):
    argv = argv + ["--out", str(tmp_path)]
    done = fresh_interpreter(
        f"{NO_SCIPY}from dqdsim.cli import main\n"
        f"assert main({argv!r}) == 0\n{SCIPY_MODULES}")
    assert done.returncode == 0, done.stderr
    assert any(tmp_path.glob("*.csv"))


def test_effective_distance_runs_without_scipy():
    done = fresh_interpreter(
        f"{NO_SCIPY}from dqdsim import default_device, "
        "effective_interdot_distance\n"
        "l = effective_interdot_distance(46.650122, default_device())\n"
        f"assert abs(l - 7.0) < 0.01, l\n{SCIPY_MODULES}")
    assert done.returncode == 0, done.stderr


def test_degenerate_fits_rejected_without_scipy():
    done = fresh_interpreter(
        f"{NO_SCIPY}from dqdsim import fit_powerlaw\n"
        "from dqdsim.errors import SingularFitError\n"
        "for points in ([(3.0, 27.0), (7.0, 27.0), (9.5, 27.0)],\n"
        "               [(3.0, 27.0), (7.0, 28.0), (9.5, 29.0)]):\n"
        "    try:\n"
        "        fit_powerlaw(points)\n"
        "    except SingularFitError:\n"
        "        continue\n"
        "    raise AssertionError(points)\n"
        f"{SCIPY_MODULES}")
    assert done.returncode == 0, done.stderr
