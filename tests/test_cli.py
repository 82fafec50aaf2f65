import argparse
import ast
import atexit
import functools
import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import pytest

import gravent
import gravent.cli as cli
from gravent import (AssertionFailure, DomainError, EmptyDataError, OrbitParams, SweepSpec,
                     emit_csv, emit_json, emit_svg, figure_preset)
from gravent.cli import main, preset_config, render_sweep
from gravent.roots import DOMAIN_CHECKS, MAX_COUNT, check_domain

DEMO_OUT = Path(__file__).resolve().parents[1] / "demos" / "out"

Z1_016 = 1.2424428900898052


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeros_command(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--xi2", "0.16")
    assert code == 0
    values = [float(line) for line in out.split()]
    assert len(values) == 1
    assert abs(values[0] - 1.2425) < 1e-4
    code, out, _ = run_cli(capsys, "zeros", "--xi2", "0.265")
    values = [float(line) for line in out.split()]
    assert abs(values[0] - 0.5697) < 1e-4
    assert abs(values[1] - 0.9303) < 1e-4
    code, out, _ = run_cli(capsys, "zeros", "--xi2", "0.3")
    assert code == 0
    assert "no zeros" in out


def test_horizons_command(capsys):
    code, out, _ = run_cli(capsys, "horizons", "--xi2", "0.16")
    assert code == 0
    values = [float(line) for line in out.split()]
    assert values == pytest.approx([0.2, 0.8], abs=1e-12)
    code, out, _ = run_cli(capsys, "horizons", "--xi2", "0.5")
    assert code == 0
    assert "naked singularity" in out


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "zeros", "--xi2", "-1")
    assert code == 1
    assert "DomainError" in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["figure", "9"]) == 2
    capsys.readouterr()


def test_figure_csv_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure", "4", "--samples", "40", "-o", str(a)]) == 0
    assert main(["figure", "4", "--samples", "40", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_figure_csv_schema(tmp_path, capsys):
    path = tmp_path / "fig4.csv"
    assert main(["figure", "4", "--samples", "25", "-o", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    meta_lines = [ln for ln in lines if ln.startswith("#")]
    assert any("variable = 'z'" in ln for ln in meta_lines)
    assert any("xi2 = 0.16" in ln for ln in meta_lines)
    assert any("clamped" in ln for ln in meta_lines)
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "z,C,S,concurrence,E,flags"
    data = [ln.split(",") for ln in lines[header_idx + 1:]]
    assert len(data) == 25
    assert float(data[0][0]) == pytest.approx(0.801, abs=1e-12)
    # every E value parses as float (possibly nan)
    for rec in data:
        float(rec[4])


def test_sweep_config_round_trip(tmp_path, capsys):
    cfg = preset_config(4)
    cfg["samples"] = 30
    cfg_path = tmp_path / "fig4.json"
    cfg_path.write_text(json.dumps(cfg))
    by_config = tmp_path / "by_config.csv"
    by_figure = tmp_path / "by_figure.csv"
    assert main(["sweep", "--config", str(cfg_path), "-o", str(by_config)]) == 0
    assert main(["figure", "4", "--samples", "30", "-o", str(by_figure)]) == 0
    capsys.readouterr()
    assert by_config.read_bytes() == by_figure.read_bytes()


def test_sweep_flags_override_config(tmp_path, capsys):
    cfg = preset_config(4)
    cfg["samples"] = 30
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--samples", "12",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    rows = [ln for ln in out_path.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 12


def test_unknown_config_key_rejected(tmp_path, capsys):
    # a sweep names no Bell state: every Bell input has the same concurrence
    for key, value in (("charge", 0.1), ("bell", "chi1")):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"variable": "z", "lo": 1.0, "hi": 2.0,
                                        key: value}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == 2
        assert f"unknown config keys: ['{key}']" in err


def test_sweep_requires_variable(capsys):
    code, _, err = run_cli(capsys, "sweep", "--lo", "0", "--hi", "1")
    assert code == 1
    assert "variable" in err


def test_sweep_requires_both_ends(capsys):
    code, out, err = run_cli(capsys, "sweep", "--variable", "z", "--lo", "1")
    assert code == 1
    assert "a sweep needs 'lo' and 'hi'" in err and out == ""


def test_packet_reaching_zero_momentum_computes_every_row(capsys):
    # the angle turns 3.4-3.7 per unit of x at q = -108 but far faster at
    # p = 0, which this packet reaches: measured at the centre, the rows
    # stayed on the real line, and 3 were refused and 1 flagged
    code, out, err = run_cli(capsys, "sweep", "--variable", "tau_ratio", "--lo", "0.009",
                             "--hi", "0.0105", "--samples", "7", "--xi2", "0.265",
                             "--z", "76.5", "--q", "-108", "--beta", "44")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "tau_ratio"))]
    assert len(rows) == 7
    assert all(row[-1] == "" and all(math.isfinite(float(v)) for v in row[1:5])
               for row in rows)


def test_config_variable_must_be_a_sweep_variable(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"variable": "mass", "lo": 1, "hi": 3}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 1
    assert "DomainError" in err and "'mass'" in err and out == ""


@pytest.mark.parametrize("flag, value", [("--xi2", "nan"), ("--hi", "inf")])
def test_sweep_rejects_non_finite_values(capsys, flag, value):
    code, out, err = run_cli(capsys, "sweep", "--variable", "q", "--lo", "0",
                             "--hi", "3", "--samples", "3", flag, value)
    assert code == 1
    assert "DomainError" in err and "finite" in err
    assert out == ""


@pytest.mark.parametrize("samples", [2.9, True])
def test_config_samples_must_be_an_integer(tmp_path, capsys, samples):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"variable": "z", "lo": 1, "hi": 3,
                                    "samples": samples, "xi2": 0.16}))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "samples must be an integer" in err
    assert out == ""


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config"),
    ('{"variable": "z", "lo": 1,', "not valid JSON"),
    ("5", "must hold a JSON object, got int"),
    ('{"variable": "z", "lo": "abc", "hi": 3}', "lo must be a number, got 'abc'"),
    ('{"variable": "z", "lo": 1, "hi": 3, "xi2": "abc"}', "xi2 must be a number, got 'abc'"),
    ('{"variable": "z", "lo": 1, "hi": 3, "format": "xml"}', "format must be one of"),
    ('{"variable": "z", "lo": 1, "hi": 3, "format": 0}', "format must be one of"),
    ('{"variable": "z", "lo": 1, "hi": 3, "format": false}', "format must be one of"),
    ('{"variable": "z", "lo": 1, "hi": 3, "format": ""}', "format must be one of"),
    ('{"variable": "z", "lo": 1, "hi": 3, "stationary_phase": "no"}',
     "stationary_phase must be true or false, got 'no'"),
    ('{"variable": "z", "lo": 1, "hi": 3, "output": 1}', "output must be a string, got 1"),
    ('{"variable": "z", "lo": 1, "hi": 3, "output": true}', "output must be a string, got True"),
    ('{"variable": "z", "lo": 1, "hi": 3, "output": 2}', "output must be a string, got 2"),
    ('{"variable": "z", "lo": 1, "hi": 3, "output": ["a"]}',
     "output must be a string, got ['a']"),
], ids=["missing", "malformed", "not-an-object", "lo", "xi2", "format", "format-0",
        "format-false", "format-empty", "stationary-phase-string", "output-1",
        "output-true", "output-2", "output-list"])
def test_bad_config_is_a_usage_error(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert err.startswith("usage error: ") and message in err
    assert err.count("\n") == 1 and out == ""


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "fig4.csv"
    code, out, err = run_cli(capsys, "figure", "4", "--samples", "4", "-o", str(path))
    assert code == 2
    assert err.startswith("usage error: cannot write") and err.count("\n") == 1
    assert out == ""


def test_sweep_rejects_huge_momentum(capsys):
    code, out, err = run_cli(capsys, "sweep", "--variable", "z", "--lo", "1",
                             "--hi", "3", "--samples", "3", "--q", "1e200")
    assert code == 1
    assert "DomainError" in err and "1e+08" in err
    assert out == ""


def test_json_format(tmp_path, capsys):
    path = tmp_path / "fig1.json"
    assert main(["figure", "1", "--samples", "20", "--format", "json",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["meta"]["variable"] == "q"
    assert doc["meta"]["xi2"] == 0.265
    assert len(doc["rows"]) == 20
    assert doc["rows"][0]["q"] == 0.0
    assert doc["rows"][0]["E"] == pytest.approx(1.0, abs=1e-6)
    # the q = 20 tail row is computed: fully decohered, no flag
    tail = doc["rows"][-1]
    assert tail["flags"] == []
    assert 0.0 <= tail["E"] < 1e-12


def test_svg_output(tmp_path, capsys):
    path = tmp_path / "fig4.svg"
    assert main(["figure", "4", "--samples", "60", "--format", "svg",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert polylines
    for poly in polylines:
        assert len(poly.attrib["points"].split()) >= 2


def test_figure4_curve_touches_unity_near_rotation_free_circle():
    from gravent import figure_preset, run_sweep

    rows = run_sweep(figure_preset(4))
    near_peak = [r.E for r in rows if abs(r.x - 1.2424) < 0.02 and not r.flags]
    assert near_peak
    assert max(near_peak) > 0.995


def test_emit_svg_gap_splitting():
    rows = [(0.0, 1.0), (1.0, 0.8), (2.0, math.nan), (3.0, 0.5), (4.0, 0.6)]
    svg = emit_svg({"E": rows}, axes=("z", "E"))
    assert svg.count("<polyline") == 2
    two_points = emit_svg({"E": [(0.0, 1.0), (1.0, 0.5)]}, axes=("x", "y"))
    assert two_points.count("<polyline") == 1


def test_emit_svg_points_at_one_x():
    # a zero-width x range is widened by 1 on each side, so the points sit
    # mid-plot rather than dividing by zero
    svg = emit_svg({"E": [(2.0, 0.5), (2.0, 0.7), (2.0, math.nan)]}, axes=("x", "y"))
    points = ET.fromstring(svg).find(".//{*}polyline").get("points").split()
    xs = {float(point.split(",")[0]) for point in points}
    assert len(points) == 2 and len(xs) == 1
    assert math.isfinite(xs.pop())


def test_emit_svg_empty_data():
    with pytest.raises(EmptyDataError):
        emit_svg({"E": [(0.0, 1.0)]}, axes=("x", "y"))
    with pytest.raises(EmptyDataError):
        emit_svg({"E": [(0.0, math.nan), (1.0, math.nan)]}, axes=("x", "y"))


def test_emit_csv_and_json_shapes():
    meta = {"alpha": 1, "beta": "two"}
    csv_text = emit_csv(["x", "y", "flags"], [(1.0, 2.0, ("a", "b"))], meta)
    assert "# alpha = 1" in csv_text
    assert "1.0,2.0,a;b" in csv_text
    doc = json.loads(emit_json(["x", "y"], [(1.0, math.nan)], meta))
    assert doc["rows"][0]["y"] is None


def test_minima_command(tmp_path, capsys):
    out_path = tmp_path / "minima.csv"
    code = main(["minima", "--variable", "z", "--lo", "1.3", "--hi", "3.5",
                 "--samples", "60", "--xi2", "0.16", "--q", "0.6",
                 "--beta", "1.0", "--tau-ratio", "5.0", "-o", str(out_path)])
    capsys.readouterr()
    assert code == 0
    rows = [ln for ln in out_path.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert len(rows) == 1
    z_min = float(rows[0].split(",")[0])
    assert abs(z_min - 2.2864) < 0.05


def test_minima_lays_sweep_flags_on_the_preset(tmp_path, capsys):
    out_path = tmp_path / "minima.csv"
    assert main(["minima", "--figure", "5", "--samples", "50", "-o", str(out_path)]) == 0
    capsys.readouterr()
    meta = out_path.read_text()
    assert "# samples = 50\n" in meta
    assert "# xi2 = 0.265\n" in meta


MINIMA_FIGURE_4 = """\
# gravent output
# beta = 1.0
# feature = 'entanglement minima'
# hi = 6.0
# lo = 0.801
# notes = ['lo clamped from 0.8 to 0.801 (outer horizon at 0.8)']
# package = 'gravent 0.1.0'
# q = 0.6
# samples = 400
# tau_ratio = 5.0
# variable = 'z'
# xi2 = 0.16
z,E
2.28644010317236,0.3910461595213355
"""


def test_minima_records_only_the_settings_it_uses(capsys):
    code, out, _ = run_cli(capsys, "minima", "--figure", "4")
    assert code == 0
    assert out == MINIMA_FIGURE_4


@pytest.mark.parametrize("argv", [
    ["figure", "4", "--bell", "chi2"],
    ["sweep", "--variable", "z", "--lo", "1", "--hi", "3", "--bell", "chi2"],
    ["minima", "--figure", "4", "--bell", "chi2"],
    ["minima", "--figure", "4", "--stationary-phase"],
], ids=["figure-bell", "sweep-bell", "minima-bell", "minima-stationary-phase"])
def test_flags_that_change_no_output_are_gone(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err and out == ""


@pytest.mark.parametrize("key, value", [("format", "svg"), ("stationary_phase", True),
                                        ("bell", "chi1")])
def test_minima_config_holds_only_minima_settings(tmp_path, capsys, key, value):
    cfg = {**preset_config(4), key: value}
    cfg_path = tmp_path / "minima.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "minima", "--config", str(cfg_path))
    assert code == 2
    assert err == f"usage error: unknown config keys: ['{key}']\n" and out == ""


def test_sweep_config_stationary_phase_survives_absent_flag(tmp_path, capsys):
    cfg = {**preset_config(4), "samples": 6, "stationary_phase": True}
    cfg_path = tmp_path / "fig4.json"
    cfg_path.write_text(json.dumps(cfg))
    code, by_config, _ = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    code, by_flag, _ = run_cli(capsys, "figure", "4", "--samples", "6",
                               "--stationary-phase")
    assert code == 0
    assert by_config == by_flag and "# stationary_phase = True\n" in by_flag


def test_figure_number_with_config_is_a_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "fig5.json"
    cfg_path.write_text(json.dumps(preset_config(5)))
    code, out, err = run_cli(capsys, "minima", "--figure", "5", "--config", str(cfg_path))
    assert code == 2
    assert "not both" in err and out == ""
    code, _, _ = run_cli(capsys, "minima", "--figure", "5", "--samples", "50",
                         "--xi2", "0.16", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_minima_rejects_non_z_sweep(capsys):
    code, _, err = run_cli(capsys, "minima", "--figure", "1")
    assert code == 1
    assert "z-sweep" in err


def test_radial_check_command(capsys):
    code, out, _ = run_cli(capsys, "radial-check")
    assert code == 0
    for tag in ("chi1", "chi2", "chi3", "chi4"):
        assert f"{tag}: PASS" in out


def test_frame_compare_command(tmp_path, capsys):
    path = tmp_path / "frames.csv"
    code = main(["frame-compare", "--r-lo", "1.0", "--r-hi", "3.0",
                 "--samples", "5", "--q", "1.0", "--p", "0.0",
                 "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "r,static_rate,kruskal_rate,flags"
    first = lines[1].split(",")
    assert first[1] == "nan"
    assert "static-divergent" in first[3]
    # the r=1.5 grid point sits exactly on the static zero
    mid = lines[2].split(",")
    assert float(mid[0]) == 1.5
    assert float(mid[1]) == 0.0


def test_validate_command(capsys):
    code, out, _ = run_cli(capsys, "validate", "--draws", "5")
    assert code == 0
    assert "ALL CHECKS PASSED" in out
    assert out.count("PASS") >= 8
    # the radial check reports the deviation it measured
    line = next(ln for ln in out.splitlines() if "radial-geodesic invariance" in ln)
    assert 0.0 <= float(line.split("max deviation ")[1].rstrip(")")) <= 1e-10


# `validate --draws 5`: the oracle's lines are the report of its random.Random
# draws taken one draw and one matrix at a time (tests/test_experiments.py);
# the product integral's deviation moved from 3.170e-13 when its factors
# were multiplied one at a time to 1.937e-13 multiplied pairwise
VALIDATE_5 = """\
PASS  oracle equivalence (closed vs brute force)  (max entry deviation 3.886e-16)
PASS  concurrence equals C^2+S^2  (max |conc - (C^2+S^2)| 1.443e-15)
PASS  concurrence identical across Bell states  (max spread 1.776e-15)
PASS  density matrices Hermitian, unit trace, PSD  (herm 5.6e-17, trace 4.4e-16, min eig -1.2e-16)
PASS  moment bound C^2+S^2 <= 1  (max C^2+S^2 = 0.999173848278)
PASS  spin_rep homomorphism  (max deviation 4.441e-16)
PASS  product integral vs closed-form rotation  (max deviation 1.937e-13)
PASS  radial-geodesic invariance (all Bell states)  (max deviation 0.000e+00)
PASS  frame transform preserves the Minkowski metric  (max deviation 9.770e-15)
PASS  angle zeros are roots of 2z^2 - 3z + 4xi2  (max residual 7.772e-16 over 9 xi2 values, root count matches 9 - 32xi2)
PASS  fast sweep rows in s match trig_moments in x  (max C, S deviation 1.753e-13 over 8 rows of figures 1-2)
ALL CHECKS PASSED
"""


def test_validate_output_keeps_its_bytes(capsys):
    code, out, err = run_cli(capsys, "validate", "--draws", "5")
    assert (code, out, err) == (0, VALIDATE_5, "")


def test_validate_checks_angle_zeros_against_the_quadratic(capsys, monkeypatch):
    import gravent.experiments as experiments

    true_zeros = experiments.theta_zeros
    monkeypatch.setattr(experiments, "theta_zeros",
                        lambda xi2: [z * (1.0 + 1e-9) for z in true_zeros(xi2)])
    code, out, _ = run_cli(capsys, "validate", "--draws", "1")
    assert code == 1
    assert "FAIL  angle zeros" in out
    monkeypatch.setattr(experiments, "theta_zeros", lambda xi2: [])
    code, out, _ = run_cli(capsys, "validate", "--draws", "1")
    assert code == 1
    assert "root count wrong at xi2 = [0.0, 0.1" in out


def test_validate_holds_the_sweep_path_to_the_x_oracle(capsys, monkeypatch):
    import gravent.experiments as experiments

    true_characteristic = experiments.batch_characteristic

    def perturbed(*args):
        out = true_characteristic(*args)
        return replace(out, values=out.values + 1e-10)

    monkeypatch.setattr(experiments, "batch_characteristic", perturbed)
    code, out, _ = run_cli(capsys, "validate", "--draws", "1")
    assert code == 1
    assert "FAIL  fast sweep rows in s match trig_moments in x" in out
    assert out.count("FAIL") == 2  # the check's line and the summary


def test_validate_reports_a_failing_radial_check(capsys, monkeypatch):
    import gravent.experiments as experiments

    def fails(bells, *args, **kwargs):
        raise AssertionFailure(f"{bells[0].tag}: entry (0, 0) deviates")

    monkeypatch.setattr(experiments, "radial_invariance_check", fails)
    code, out, _ = run_cli(capsys, "validate", "--draws", "1")
    assert code == 1
    assert ("FAIL  radial-geodesic invariance (all Bell states)  "
            "(chi1: entry (0, 0) deviates)") in out


def test_sweep_rejects_zero_samples(capsys):
    code, out, err = run_cli(capsys, "sweep", "--variable", "z", "--lo", "1.0",
                             "--hi", "3.0", "--samples", "0")
    assert code == 1
    assert "samples must be >= 2" in err
    assert out == ""


def test_validate_rejects_zero_draws(capsys):
    code, out, err = run_cli(capsys, "validate", "--draws", "0")
    assert code == 1
    assert "draws must be >= 1" in err
    assert "PASS" not in out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_figure_matches_committed_output(n, fmt):
    # demos/out/ holds `gravent figure N`; any byte that moves is a
    # behaviour change
    expected = (DEMO_OUT / f"figure{n}.{fmt}").read_bytes().decode("utf-8")
    got = render_sweep(figure_preset(n), False, fmt)
    lines = zip_longest(got.splitlines(keepends=True),
                        expected.splitlines(keepends=True))
    for i, (new, old) in enumerate(lines, 1):
        if new != old:
            pytest.fail(f"figure{n}.{fmt} differs from demos/out at line {i}: "
                        f"got {new!r}, committed {old!r}")


def test_no_module_reads_the_environment():
    # every setting is a flag or a config key; none hides in the environment
    for path in Path(gravent.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\b(environ|getenv)\b", text), path.name


# imported where perfbench/layers.py wraps them, and not called there
_TRACED_ONLY = {("experiments", "theta_circular")}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports the public API in order to export it
    unused = set()
    for path in Path(gravent.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused <= _TRACED_ONLY


def test_every_field_given_to_check_domain_has_a_rule():
    # check_domain runs only the entries of the fields it is given, so a
    # misspelt field or name would pass every value silently
    fields = {field for field, _, _ in DOMAIN_CHECKS}
    given = set()
    for path in Path(gravent.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_domain":
                given |= {(path.stem, key.value)
                          for arg in [*node.args, *(k.value for k in node.keywords)]
                          if isinstance(arg, ast.Dict)
                          for key in arg.keys if isinstance(key, ast.Constant)}
    assert {"bell", "count", "samples", "span", "variable"} <= {key for _, key in given}
    assert {(module, key) for module, key in given if key not in fields} == set()


def test_import_does_not_load_scipy_xml_sax_or_urllib():
    # counted on top of numpy: its pathlib import loads urllib.parse
    src = str(Path(gravent.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy; before = set(sys.modules); import gravent, gravent.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] in ('scipy', 'urllib') or m.startswith('xml.sax')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# the boot of the `gravent` console script, as perfbench/run.py's CLI_BOOT
CLI_BOOT = "import sys; from gravent.cli import main; sys.exit(main())"
# prints whether numpy and json are loaded as the last line of stdout, at exit
REPORT_MODULES = ("import atexit, sys; "
                  "atexit.register(lambda: print('numpy' in sys.modules, 'json' in sys.modules)); ")
# prints, at exit, whether the collector's objects are frozen by then
REPORT_FROZEN = ("import atexit, gc; "
                 "atexit.register(lambda: print(gc.get_freeze_count() > 0)); ")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with args, importing gravent from this tree."""
    src = str(Path(gravent.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    return run_python("-c", code, *argv)


def test_import_loads_no_numpy():
    # the collector too is left as it was: only main registers the freeze at exit
    done = run_fresh(REPORT_FROZEN + "import sys, gravent, gravent.cli; "
                                     "print('numpy' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\nFalse\n", "")


@pytest.mark.parametrize("argv, code, out", [
    (["horizons", "--xi2", "0.16"], 0, "0.2\n0.8\n"),
    (["zeros", "--xi2", "0.265"], 0, "0.5697224362\n0.9302775638\n"),
    (["horizons", "--xi2", "nan"], 1, ""),
    (["zeros", "--xi2", "nan"], 1, ""),
], ids=["horizons", "zeros", "horizons-nan", "zeros-nan"])
def test_horizons_and_zeros_load_no_numpy(argv, code, out):
    # nor json, which only --config and JSON or SVG output load
    done = run_fresh(REPORT_MODULES + CLI_BOOT, *argv)
    assert (done.returncode, done.stdout) == (code, out + "False False\n")
    if code:
        assert done.stderr.startswith("error: DomainError: ")
        assert done.stderr.count("\n") == 1
    else:
        assert done.stderr == ""


@pytest.mark.parametrize("argv, code", [
    (["horizons", "--xi2", "0.16"], 0),
    (["figure", "1", "--samples", "3"], 0),
    (["figure", "7"], 2),
    (["validate", "--draws", "0"], 1),
], ids=["horizons", "figure", "usage-error", "domain-error"])
def test_main_freezes_the_collector_at_exit(argv, code):
    # registered after the reporter, the freeze runs before it (atexit is
    # LIFO); the usage error, which parsing raises before the pipeline
    # loads, shows the hook is registered first
    done = run_fresh(REPORT_FROZEN + CLI_BOOT, *argv)
    assert done.returncode == code
    assert done.stdout.endswith("True\n")


def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch):
    hooks = []
    monkeypatch.setattr(atexit, "register", hooks.append)
    # a fresh cache, as in a process that has not called main yet
    monkeypatch.setattr(cli, "_freeze_at_exit", functools.cache(cli._freeze_at_exit.__wrapped__))
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(capsys, "horizons", "--xi2", "0.16")[0] == 0
    assert run_cli(capsys, "figure", "7")[0] == 2
    assert (gc.get_freeze_count(), gc.isenabled()) == before
    assert hooks == [gc.freeze]


@pytest.mark.parametrize("argv", [
    ["horizons", "--xi2", "0.16"],
    ["figure", "1", "--samples", "3"],
    ["figure", "7"],
], ids=["horizons", "figure", "usage-error"])
def test_python_m_gravent_is_the_command(argv):
    done = run_python("-m", "gravent", *argv)
    booted = run_fresh(CLI_BOOT, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        booted.returncode, booted.stdout, booted.stderr)


def test_python_m_gravent_horizons_loads_no_numpy():
    done = run_python("-X", "importtime", "-m", "gravent", "horizons", "--xi2", "0.16")
    # one line per module imported: "import time: self | cumulative | name"
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert (done.returncode, done.stdout) == (0, "0.2\n0.8\n")
    assert "gravent.cli" in imported and "numpy" not in imported


def test_a_name_set_on_cli_before_the_pipeline_loads_is_the_one_called():
    # a wrapper put on gravent.cli before main runs stays the function the command calls
    code = ("import gravent.cli as cli, gravent.experiments as experiments\n"
            "calls = []\n"
            "cli.emit_csv = lambda columns, records, meta: calls.append(len(records)) or ''\n"
            "code = cli.main(['figure', '1', '--samples', '3'])\n"
            "print(code, calls, cli.run_sweep is experiments.run_sweep)")
    done = run_fresh(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 [3] True\n", "")


def test_render_sweep_runs_without_main():
    # demos/03 calls render_sweep and preset_config directly, in a fresh interpreter
    code = ("from dataclasses import replace\n"
            "from gravent import figure_preset\n"
            "from gravent.cli import preset_config, render_sweep\n"
            "text = render_sweep(replace(figure_preset(1), samples=3), False, 'csv')\n"
            "print(len(text.splitlines()) > 3, preset_config(4)['variable'])")
    done = run_fresh(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True z\n", "")


@pytest.mark.parametrize("argv", [
    ["zeros", "--xi2", "nan"],
    ["zeros", "--xi2", "inf"],
    ["horizons", "--xi2", "nan"],
    ["horizons", "--xi2", "inf"],
    ["frame-compare", "--r-lo", "nan"],
    ["frame-compare", "--q", "inf"],
    ["frame-compare", "--samples", "0"],
    ["frame-compare", "--samples", "-3"],
], ids=["zeros-nan", "zeros-inf", "horizons-nan", "horizons-inf", "frame-r-lo-nan",
        "frame-q-inf", "frame-samples-0", "frame-samples-negative"])
def test_small_commands_reject_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["frame-compare", "--q", "1e200"],
    ["frame-compare", "--p", "1e200"],
    ["frame-compare", "--r-lo", "1", "--r-hi", "1e300", "--samples", "3"],
    ["sweep", "--variable", "z", "--lo", "1", "--hi", "2", "--samples", "3",
     "--beta", "1e300"],
    ["sweep", "--variable", "q", "--lo=-1e308", "--hi=1e308", "--samples", "3"],
    ["frame-compare", "--r-lo=-1e308", "--r-hi=1e308"],
    ["sweep", "--variable", "z", "--lo", "2", "--hi", "6", "--samples", "4",
     "--xi2", "0.265", "--beta", "1e-200"],
    ["frame-compare", "--r-lo", "1e-320", "--r-hi", "1", "--samples", "2"],
], ids=["frame-q-huge", "frame-p-huge", "frame-r-huge", "sweep-beta-huge",
        "sweep-span-overflows", "frame-span-overflows", "sweep-beta-tiny", "frame-r-tiny"])
def test_commands_reject_out_of_range_input(capsys, argv):
    # past these bounds the rates read nan or come from an overflowed p * p,
    # a grid whose span hi - lo overflows has an infinite step, below
    # beta = 1e-150 the ends of a line in s come from an underflowed 49 beta^2,
    # and below r ~ 4e-206 the falling-frame rate overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--variable", "q", "--lo", "0", "--hi", "1", "--samples"], "samples"),
    (["frame-compare", "--samples"], "samples"),
    (["validate", "--draws"], "draws"),
], ids=["sweep", "frame-compare", "validate"])
def test_counts_above_the_bound_are_domain_errors(capsys, argv, name):
    # --samples 1000000000000 asked numpy for 7.28 TiB and ended in a traceback
    code, out, err = run_cli(capsys, *argv, str(MAX_COUNT + 1))
    assert (code, out) == (1, "")
    assert err == f"error: DomainError: {name} must be <= {MAX_COUNT}, got {MAX_COUNT + 1}\n"


def test_frame_compare_names_the_end_it_was_given(capsys):
    # linspace made the grid nan from an infinite end, and the message named r and nan
    code, out, err = run_cli(capsys, "frame-compare", "--r-lo", "inf")
    assert (code, out, err) == (1, "", "error: DomainError: r_lo must be finite, got inf\n")


def _table_message(field, value, name):
    with pytest.raises(DomainError) as exc:
        check_domain({field: value}, {field: name})
    return str(exc.value)


@pytest.mark.parametrize("field, value, spec, sweep, frame", [
    ("variable", "x", dict(variable="x"), {"variable": "x", "lo": 0, "hi": 1}, None),
    ("hi", math.inf, dict(hi=math.inf), ["--hi", "inf"], ["--r-hi", "inf"]),
    ("span", math.inf, dict(lo=-1e308, hi=1e308), ["--lo=-1e308", "--hi=1e308"],
     ["--r-lo=-1e308", "--r-hi=1e308"]),
], ids=["variable", "non-finite-end", "span-overflows"])
def test_each_rule_has_one_message(tmp_path, capsys, field, value, spec, sweep, frame):
    # SweepSpec, `sweep` and `frame-compare` each wrote their own copy of these rules
    names = {"span": "hi - lo"}
    message = _table_message(field, value, names.get(field, field))
    with pytest.raises(DomainError) as exc:
        SweepSpec(**{"variable": "q", "lo": 0.0, "hi": 1.0, "samples": 3,
                     "fixed": OrbitParams(0.0, 2.0, 0.6, 1.0, 5.0), **spec})
    assert str(exc.value) == message
    if isinstance(sweep, dict):  # --variable takes only the sweep variables
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        sweep = ["--config", str(path)]
    else:
        sweep = ["--variable", "q", "--lo", "0", "--hi", "1", "--samples", "3", *sweep]
    assert run_cli(capsys, "sweep", *sweep) == (1, "", f"error: DomainError: {message}\n")
    if frame is not None:
        message = _table_message(field, value, {"hi": "r_hi", "span": "r_hi - r_lo"}[field])
        assert run_cli(capsys, "frame-compare", *frame) == (
            1, "", f"error: DomainError: {message}\n")


@pytest.mark.parametrize("argv", [
    ["sweep", "--variable", "q", "--lo", "0", "--hi", "1", "--samples", "2", "--q", "nan"],
    ["sweep", "--variable", "tau_ratio", "--lo", "0", "--hi", "1", "--samples", "2",
     "--tau-ratio", "3"],
    ["minima", "--figure", "5", "--z", "3"],
], ids=["sweep-q", "sweep-tau-ratio", "minima-z"])
def test_swept_variable_takes_no_value_of_its_own(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "swept variable" in err


def test_swept_variable_in_a_config_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text('{"variable": "z", "lo": 1, "hi": 3, "z": 2}')
    code, out, err = run_cli(capsys, "sweep", "--config", str(path))
    assert (code, out) == (2, "")
    assert "z is the swept variable" in err


def test_z_range_inside_the_horizon_names_the_range(capsys):
    # the message names the range given, not the fixed orbit's placeholder z
    code, out, err = run_cli(capsys, "sweep", "--variable", "z", "--lo", "0.1",
                             "--hi", "0.5", "--xi2", "0.16")
    assert (code, out) == (1, "")
    assert err == ("error: DomainError: sweep range [0.1, 0.5] lies inside "
                   "the horizon z+=0.8\n")


@pytest.mark.parametrize("xi2, z", [("0", "1.000000000001"), ("0.25", "0.50001"), ("0", "0.9")],
                         ids=["next-to-the-horizon", "degenerate-band", "inside"])
def test_a_fixed_orbit_with_no_circle_is_refused(capsys, xi2, z):
    # the radius radial_factor masks is refused before any row is printed
    code, out, err = run_cli(capsys, "sweep", "--variable", "q", "--lo", "0", "--hi", "1",
                             "--samples", "3", "--xi2", xi2, "--z", z)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: HorizonError: orbit at z={z} is not outside the outer horizon")
    assert err.count("\n") == 1


def test_zeros_just_above_a_quarter_prints_only_the_orbit(capsys):
    # the other root, 0.500000000004, lies next to the near-zero of z^2 - z + xi2
    assert run_cli(capsys, "zeros", "--xi2", "0.250000000001") == (0, "1\n", "")


def test_commands_run_without_scipy():
    # numpy is the only runtime dependency: neither the quadrature nor
    # product_integral may load SciPy, and the oracle draws its orbits
    # without numpy.random
    src = str(Path(gravent.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import contextlib, io, sys\n"
            "from gravent.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['figure', '1']), main(['minima', '--figure', '5']),\n"
            "             main(['validate', '--draws', '2']), main(['radial-check'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "      'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[0, 0, 0, 0] [] False"


# SHA-256 of the stdout of `frame-compare --samples 7`, `zeros`, `horizons`,
# `validate` and `radial-check`, as each command printed it with its own
# printer; the validate and radial-check bytes were taken from the scalar
# rates, closed forms and einsum contraction the array forms replaced, and
# validate's again when the oracle's draws moved to random.Random
SMALL_COMMAND_DIGESTS = {
    ("frame-compare", "--samples", "7", "--format", "csv"):
        "02783e236dc81ce685b8f853d55027f7297fb4572a48635ed23e6d60452b5da7",
    ("frame-compare", "--samples", "7", "--format", "json"):
        "c30dc98d492c9cfaea9ff395698833223811933ced177db821d6c54371f6068f",
    ("frame-compare", "--samples", "7", "--format", "svg"):
        "03edd689fef93e982a0287b5a54daffde4241d40b79419e87d2d2d9fb7282583",
    ("zeros", "--xi2", "0.16"):
        "efb1a76bc2912804d1ac0c42f049665388f8ae8a7076c0dcea37bbf4b6aeb4a6",
    ("zeros", "--xi2", "0.25"):
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("zeros", "--xi2", "0.265"):
        "498e689af3881eca5111c013e2af3b1bb64761ddc59980a62c9a0b94e85b4e4b",
    ("zeros", "--xi2", "0.5"):
        "434f190baa23c29c13e2938e5937545f109e9029021b62246b006914d4da231c",
    ("horizons", "--xi2", "0.16"):
        "2bb02e530b92a19fab8469d5d11149bf389010ec020014290c3ce5df267ade81",
    ("horizons", "--xi2", "0.25"):
        "8d5c1b5a87c51f970807fc0c2057b3ab3aaf11638ab667dc5956edc8f5bcf138",
    ("horizons", "--xi2", "0.265"):
        "64693d5e130e38bb14c65966d47b16b80e7bb825404a2a7a9587720a383c1a29",
    ("horizons", "--xi2", "0.5"):
        "64693d5e130e38bb14c65966d47b16b80e7bb825404a2a7a9587720a383c1a29",
    ("validate",):
        "3f547aa14913c4d3ff4c9ca9e2f23d399a1759b0247569ea91470b6f9f8029ba",
    ("validate", "--draws", "5"):
        "6e6e3674884a3f45ecf6013c10f8d94d9ada4d7247e4146d6c4f83bf1ba7a528",
    ("validate", "--draws", "1"):
        "44836602d310e3c54f7403da466ac743526cb7847ed2125dd9fc2b9af36a420f",
    ("radial-check",):
        "0f1b883767d79a79f0d141b163d751ace0d181accb9f9ed3d5fe87b6119f350b",
    ("radial-check", "--bell", "chi1"):
        "9e12138e0cbfc8fb19eebafd9ab9a5ec9706e5e138a7ebaf86df48231d4a8f1a",
    ("radial-check", "--bell", "chi2"):
        "32406200d3a3f67aad92187b40d2fce1dbc2d1811c102d8b58dfbae356576428",
    ("radial-check", "--bell", "chi3"):
        "8d46d34835df7ea1fde5fd28bfe52889cccf221ba509ecfac31c053b79484da2",
    ("radial-check", "--bell", "chi4"):
        "098f6af18253d5bcbf120e99ecf7cee36db7913b3d10b3820b2ea59766698bf3",
}


@pytest.mark.parametrize("argv", sorted(SMALL_COMMAND_DIGESTS),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_small_commands_keep_their_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SMALL_COMMAND_DIGESTS[argv]


# SHA-256 of the stdout of `sweep` where the amplitude, the phase or kappa
# overflows; every row those inputs cannot compute prints nan, flagged domain
OVERFLOW_SWEEP_DIGESTS = {
    ("--variable", "q", "--lo", "0", "--hi", "1", "--samples", "3", "--xi2", "0.5",
     "--z", "1e-160"):
        "4aba2a64ed0ecfcbb709ef9e518cd53213de782e8ab5ed1c6787f521ef1d6a64",
    ("--variable", "q", "--lo", "0", "--hi", "1", "--samples", "3", "--tau-ratio", "1e308"):
        "e753faa83b192e0ed3738205b67d237566d4f177092b935efb5d1c98fdb13e8c",
    ("--variable", "tau_ratio", "--lo", "0", "--hi", "1e308", "--samples", "3"):
        "576b18135917d5bf10929bd323c7606f3184440639d00aab3c0c83d243794219",
    # a finite amplitude whose kappa overflows
    ("--variable", "q", "--lo", "0", "--hi", "1e8", "--samples", "3", "--tau-ratio", "1e290"):
        "b195c1205214ba02eca1459298ee8268fdd7edce302b87ae5456478a2c8117f7",
}


def assert_nan_rows_are_flagged(out: str) -> list[list[str]]:
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    assert rows
    for row in rows:
        assert ("nan" in row) == bool(row[-1]), row
    return rows


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", sorted(OVERFLOW_SWEEP_DIGESTS),
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_an_overflowing_sweep_warns_nothing_and_keeps_its_bytes(capsys, argv):
    code, out, err = run_cli(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OVERFLOW_SWEEP_DIGESTS[argv]
    assert_nan_rows_are_flagged(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_row_whose_phase_overflows_is_domain(capsys):
    # at q ~ 0.79, q gamma > 1 lifts the phase amplitude q gamma past the
    # largest double while kappa = phase q stays finite and phi converges
    # to 0, so C = cos(phase) phi would be nan: the row is domain
    code, out, err = run_cli(capsys, "sweep", "--variable", "q", "--lo", "0.786",
                             "--hi", "0.8", "--samples", "15", "--xi2", "0.5", "--z", "0.5",
                             "--tau-ratio", "7.14e306")
    assert (code, err) == (0, "")
    flags = [row[-1] for row in assert_nan_rows_are_flagged(out)]
    assert flags == [""] * 2 + ["domain"] * 13


# SHA-256 of `gravent --help` and of each subcommand's --help at 80 columns
HELP_DIGESTS = {
    (): "5dfe070bbfa4ad63bb4a2a1b506ca7a62486f6df2734c222cf3f87b08e71213a",
    ("figure",): "0f1cf1bced1641611bee7dca60dbedb54f885100b731ec2afaa0838b742a1b95",
    ("sweep",): "e6d029b95fd2e98d046beb414b4618d306efd9ef567b5875aaa059c897b1297d",
    ("zeros",): "a0fb23855bce05727ad597f4eaeb678497a8edaef587ea103d0648e060800409",
    ("horizons",): "f3c820f9c5c93beb8e81eb800b04f73cc728e37e04854530bf577b1ccee8b3e3",
    ("minima",): "53bdeabe9d30b9c94cb19d050cdc70e5b389175887e6d3b6142f5f3cc63a0881",
    ("radial-check",): "02bb97d89b413c8dc8a5150df2ca01a0498fbb04618feb0be6c8446e79eb12ad",
    ("frame-compare",): "05388e86a5b67916a1baecb7d88ee4a2accd28eebc4f59215064859966422487",
    ("validate",): "a753126b656027a6fe5b26d168c72b15c4276ca8e221227f29cb6fa92cbedf71",
}


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse lays out an option's short and long forms "
                           "differently from Python 3.13 on")
@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS),
                         ids=lambda argv: "-".join(argv) or "gravent")
def test_help_keeps_its_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    code, out, err = run_cli(capsys, *argv, "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_DIGESTS[argv]


@pytest.mark.parametrize("fmt, json_loaded", [("csv", "False"), ("svg", "True")])
def test_only_json_and_svg_output_load_json(fmt, json_loaded):
    done = run_fresh(REPORT_MODULES + CLI_BOOT, "figure", "1", "--samples", "3", "--format", fmt)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == f"True {json_loaded}"
    if fmt == "svg":
        assert '<desc>{"beta": 1.0, ' in done.stdout  # the configuration, as JSON


def _subcommands(parser):
    return [name for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for name in action.choices]


def test_a_named_subcommand_builds_only_its_own_parser():
    everything = _subcommands(cli._build_parser())
    assert everything == ["figure", "sweep", "zeros", "horizons", "minima", "radial-check",
                          "frame-compare", "validate"] == list(cli._COMMANDS)
    for name in everything:
        assert _subcommands(cli._build_parser(name)) == [name]
    for other in ("-h", "--help", "bogus", "--draws", "validate2"):
        assert _subcommands(cli._build_parser(other)) == everything


# argument lists argparse refuses, each with its own usage error
USAGE_ERRORS = [(), ("bogus",), ("-x",), ("figure",), ("figure", "9"), ("figure", "1", "--x"),
                ("sweep", "--lo", "a"), ("zeros",), ("horizons", "--xi2"), ("minima", "--figure"),
                ("radial-check", "--bell", "chi9"), ("frame-compare", "--q", "q"),
                ("validate", "--draws", "x"), ("validate", "5")]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda argv: "-".join(argv) or "none")
def test_usage_errors_keep_the_bytes_of_the_full_parser(capsys, monkeypatch, argv):
    got = run_cli(capsys, *argv)
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
    assert got[0] == 2 and got[1] == "" and got == run_cli(capsys, *argv)
