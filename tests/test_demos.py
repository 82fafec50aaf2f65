"""The demos run to the end without a warning or an error.

Each runs in a fresh interpreter with gravent on its path.  Demo 03 is
left out: it rewrites demos/out, whose bytes test_cli checks instead.
"""

import os
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
