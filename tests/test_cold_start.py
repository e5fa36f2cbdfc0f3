"""The import path of the package and of the commands that solve spectra
holds no scipy module: scipy's root finders load on first use, in
calibrate, fit-powerlaw and effective_interdot_distance only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent.parent / "src")
SCIPY_MODULES = (
    "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    " or None)")


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)


def test_import_loads_no_scipy():
    done = fresh_interpreter(f"import sys, dqdsim\n{SCIPY_MODULES}")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [["solve", "--b", "8"], ["sweep-b"],
                                  ["sweep-l"]], ids=lambda a: a[0])
def test_command_loads_no_scipy(argv, tmp_path):
    argv = argv + ["--out", str(tmp_path)]
    done = fresh_interpreter(
        "import sys\nfrom dqdsim.cli import main\n"
        f"assert main({argv!r}) == 0\n{SCIPY_MODULES}")
    assert done.returncode == 0, done.stderr
    assert any(tmp_path.iterdir())


def test_fit_loads_scipy_on_use():
    # the check above would pass if no path ever loaded scipy
    done = fresh_interpreter(
        "import sys\nfrom dqdsim import fit_powerlaw\n"
        "fit_powerlaw([(3, 50.0), (5, 40.0), (7, 31.0), (9, 28.0)])\n"
        f"{SCIPY_MODULES}")
    assert done.returncode == 1 and "scipy.optimize" in done.stderr
