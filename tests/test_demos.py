"""The demos run to the end without a warning or an error.

Each runs in a fresh interpreter with gravent on its path.  Demo 03
rewrites demos/out, so it runs from a copy that writes to a temporary
directory, and every file it writes must match demos/out byte for byte.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gravent

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_geometry_and_orbits", "02_entanglement_pipeline",
                                  "04_radial_and_kruskal_frames"])
def test_demo_runs_cleanly(name):
    src = str(Path(gravent.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def test_figure_demo_rewrites_demos_out_byte_for_byte(tmp_path):
    # runs preset_config and render_sweep of gravent.cli without its main
    script = tmp_path / "03_figure_sweeps.py"
    shutil.copy(DEMOS / "03_figure_sweeps.py", script)
    src = str(Path(gravent.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted(p.name for p in (DEMOS / "out").iterdir())
    for name in written:
        assert (tmp_path / "out" / name).read_bytes() == (DEMOS / "out" / name).read_bytes(), name
