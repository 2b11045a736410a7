import ast
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from cuspidal import (
    CrossSectionPoint,
    JointConfig,
    build_topology,
    critical,
    critical_values,
    find_cusps,
    find_nodes,
    genericity_check,
    trace_critical_points,
    cross_section,
    forward_kinematics,
    reduction,
    solve_ik,
    topology,
)
from cuspidal import cli
from cuspidal.cli import main
from cuspidal.errors import RobotFileSyntaxError, RobotValidationError
from cuspidal.report import dumps, emit_csv, load_schema
from cuspidal.robotfile import parse_robot_file
from cuspidal.svgplot import render_c3s3

from conftest import BATTERY as BATTERY_ROBOTS
from conftest import REFERENCE, TEST_GRID

BATTERY = os.path.join(os.path.dirname(__file__), "..", "robots", "battery.json")


def _write_robot(tmp_path, name="bot", d=(0, 1, 0), a=(1, 2, 1.5),
                 alpha=(-math.pi / 2, math.pi / 2, 0), extra=None):
    entry = {"d": list(d), "a": list(a), "alpha": list(alpha)}
    if extra:
        entry.update(extra)
    path = tmp_path / "robot.json"
    path.write_text(json.dumps({name: entry}))
    return str(path)


# --------------------------------------------------------------------------
# robot files
# --------------------------------------------------------------------------

def test_parse_battery_file():
    spec = parse_robot_file(BATTERY)
    assert "orthogonal_cuspidal" in spec.robots
    name, p = spec.get("orthogonal_cuspidal")
    assert p.a3 == 1.5


def test_parse_rejects_nonzero_alpha3(tmp_path):
    path = _write_robot(tmp_path, alpha=(-1.5, 1.5, 0.1))
    with pytest.raises(RobotValidationError):
        parse_robot_file(path)


def test_parse_rejects_degenerate_a3(tmp_path):
    path = _write_robot(tmp_path, a=(1, 2, 0.0))
    with pytest.raises(RobotValidationError):
        parse_robot_file(path)


def test_parse_rejects_unknown_keys(tmp_path):
    path = _write_robot(tmp_path, extra={"beta": [1, 2, 3]})
    with pytest.raises(RobotValidationError):
        parse_robot_file(path)


def test_parse_reports_syntax_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n "x": {"d": [0,1,0],\n}')
    with pytest.raises(RobotFileSyntaxError) as err:
        parse_robot_file(str(path))
    assert err.value.line >= 2


def test_get_needs_name_for_multi_robot_files():
    spec = parse_robot_file(BATTERY)
    with pytest.raises(RobotValidationError):
        spec.get(None)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_dumps_is_deterministic_and_sorted():
    doc = {"b": 1.5, "a": [1, 2.25, None, True], "c": {"y": "x"}}
    s1 = dumps(doc)
    s2 = dumps({"c": {"y": "x"}, "a": [1, 2.25, None, True], "b": 1.5})
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')
    assert s1.endswith("\n")


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


def test_census_summary_histogram_equals_the_value_loop(analysis):
    """One np.unique pass gives the histogram a set of the values and one
    comparison per value gave: the same keys in the same order, the same
    Python ints, the same JSON bytes."""
    from cuspidal import region_census
    from cuspidal.report import census_summary

    for p in (REFERENCE, BATTERY_ROBOTS["orthogonal_node"]):
        census = region_census(p, analysis.wcurves(p), census_n=64)
        counts = census.counts.ravel()
        ref = {str(v): int(np.sum(counts == v)) for v in sorted(set(int(c) for c in counts))}
        got = census_summary(census)["counts_histogram"]
        assert list(got.items()) == list(ref.items()) and len(got) >= 3
        assert all(type(n) is int for n in got.values())
        assert dumps(got) == dumps(ref)


def test_emit_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(str(path), ["rho", "z"], [(1.0 / 3.0, 2), (0.25, -1)])
    data = path.read_bytes()
    assert data == b"rho,z\n0.333333333333,2\n0.25,-1\n"
    emit_csv(str(path), ["rho", "z"], [(1.0 / 3.0, 2), (0.25, -1)])
    assert path.read_bytes() == data


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def test_cmd_fk(capsys):
    rc = main(["fk", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--config", "0,0,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pose"]["x"] == pytest.approx(4.5)
    assert doc["cross_section"]["rho"] == pytest.approx(math.hypot(4.5, 1.0))


def test_cmd_fk_simple_chain(tmp_path, capsys):
    path = _write_robot(tmp_path, d=(0, 0, 0), a=(1, 1, 1), alpha=(0.3, 0, 0))
    # alpha1 = 0 would be rejected; use a twist and verify x only at q = 0
    rc = main(["fk", "--robot", path, "--config", "0,0,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pose"]["x"] == pytest.approx(3.0)


def test_cmd_ik_unreachable(capsys):
    rc = main(["ik", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--point", "40,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solutions"] == []
    assert doc["count_with_multiplicity"] == 0


def test_cmd_ik_node_point(capsys, analysis):
    from conftest import NODE_ROBOT

    node = max(analysis.nodes(NODE_ROBOT), key=lambda n: n.z)
    rc = main(["ik", "--robot", BATTERY, "--name", "orthogonal_node",
               "--point", f"{node.rho!r},{node.z!r}"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["multiplicity"] for s in doc["solutions"]] == [2, 2]


def test_cmd_critical_writes_csv(tmp_path, capsys):
    rc = main(["critical", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--grid", "128", "--out", str(tmp_path), "--format", "json,csv"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curves"] == 2
    files = sorted(os.listdir(tmp_path))
    assert any(f.endswith("joint-00.csv") for f in files)
    joint = (tmp_path / "orthogonal_cuspidal.critical.joint-00.csv").read_text()
    lines = joint.splitlines()
    assert lines[0] == "theta2,theta3"
    assert len(lines) == doc["vertices"][0] + 1


def test_cmd_cusps_csv_schema(tmp_path, capsys):
    rc = main(["cusps", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--out", str(tmp_path), "--format", "json,csv"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["cusps"]) == 4
    header = (tmp_path / "orthogonal_cuspidal.cusps.csv").read_text().splitlines()[0]
    assert header == "rho,z,t,resM,resM1,resM2,absM3"


def test_cmd_path(capsys):
    rc = main(["path", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--grid", "240",
               "--config", "0,-0.742,2.628", "--config", "0,-3,-0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["found"] and doc["valid"]


@pytest.mark.parametrize("config", ["0,nan,0.2", "nan,0,0", "0,0,inf"])
def test_cmd_path_refuses_a_non_finite_angle(tmp_path, capsys, config):
    """A NaN or infinite joint angle exits 1 with one error line before any
    map is built: it would index the lattice in theta2 or theta3, and in
    theta1 pass unseen into a path that cannot be found."""
    rc = main(["path", "--robot", BATTERY, "--name", "orthogonal_cuspidal", "--grid", "64",
               "--config", config, "--config", "0,1,1", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and captured.err == "error: joint angles must be finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option,value,message", [
    ("--census", "1", "census_n must be >= 2"), ("--census", "0", "census_n must be >= 2"),
    ("--census", "-3", "census_n must be >= 2"), ("--samples", "0", "samples must be >= 1"),
    ("--samples", "-5", "samples must be >= 1")])
def test_classify_refuses_a_census_or_sample_count_it_cannot_use(tmp_path, capsys, option,
                                                                  value, message):
    """A census with no pair of adjacent cells to audit, or no sample, exits
    1 before any work with one error line that names the option."""
    out = tmp_path / "out"
    rc = main(["classify", "--robot", BATTERY, "--name", "orthogonal_cuspidal", "--grid", "64",
               option, value, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert option.lstrip("-") in captured.err
    assert not out.exists()


def test_cmd_aspects(capsys):
    rc = main(["aspects", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--grid", "128"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["aspect_count"] == 2
    assert doc["reduced_aspect_count"] > 2


def test_cmd_nodes_on_collapsed_critical_values_stays_bounded(tmp_path, capsys, monkeypatch):
    """A robot whose critical values collapse to a point once asked the
    node sweep for terabytes.  The nodes now come from two quadratics: the
    command expands no hash bucket at all and reads no grid, so its work is
    bounded, and it lists no node."""
    def no_expansion(counts):
        raise AssertionError("bucket expansion")
    monkeypatch.setattr(critical, "_expand", no_expansion)
    path = _write_robot(tmp_path, d=(0, 0, 0), a=(2, 2, 2))
    assert main(["nodes", "--robot", path]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == []


def test_cmd_cusps_and_nodes_trace_nothing(capsys, monkeypatch):
    """cusps and nodes come from the robot alone: neither command traces S,
    and both list what find_cusps and find_nodes give with no curves."""
    def no_trace(*args, **kwargs):
        raise AssertionError("trace_critical_points called")
    monkeypatch.setattr(cli, "trace_critical_points", no_trace)
    monkeypatch.setattr(critical, "trace_critical_points", no_trace)
    for command, name, find in (("cusps", "orthogonal_cuspidal", find_cusps),
                                ("nodes", "orthogonal_node", find_nodes)):
        found = find(BATTERY_ROBOTS[name], ())
        assert main([command, "--robot", BATTERY, "--name", name]) == 0
        listed = json.loads(capsys.readouterr().out)[command]
        assert len(listed) == len(found) > 0
        for c, f in zip(listed, found):
            assert math.hypot(c["rho"] - f.rho, c["z"] - f.z) <= 1e-10


def test_cmd_pseudo(tmp_path, capsys):
    rc = main(["pseudo", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--grid", "128", "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["points"] > 0
    assert any(f.startswith("orthogonal_cuspidal.pseudo-") for f in os.listdir(tmp_path))


def test_error_exit_code(tmp_path, capsys):
    path = _write_robot(tmp_path, a=(1, 2, 0.0))
    rc = main(["classify", "--robot", path])
    assert rc == 1


def test_unknown_robot_name_errors(capsys):
    rc = main(["fk", "--robot", BATTERY, "--name", "missing", "--config", "0,0,0"])
    assert rc == 1


# the options of each command beyond --robot and --name, and its own arguments
READS = {"classify": {"--grid", "--out", "--format"}, "fk": set(), "ik": set(),
         "critical": {"--grid", "--out", "--format"}, "cusps": {"--out", "--format"},
         "nodes": {"--out", "--format"}, "aspects": {"--grid"},
         "pseudo": {"--grid", "--out", "--format"}, "path": {"--grid", "--out", "--format"},
         "plot": {"--grid", "--out"}}
EXTRA = {"fk": ["--config", "0,0,0"], "ik": ["--point", "2,0"],
         "path": ["--config", "0,0,0", "--config", "0,1,1"], "plot": ["jointspace"]}


def test_read_options_cover_every_command():
    assert set(READS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(c for c in READS if "--format" in READS[c]))
def test_every_command_refuses_a_bad_format_before_it_runs(tmp_path, capsys, command):
    """A bad --format exits 1 with an error and no output, whatever the
    command that takes it and before it reads a robot or writes a file."""
    out = tmp_path / "out"
    grid = ["--grid", "64"] if "--grid" in READS[command] else []
    for fmt in ("bogus", "json,bogus", ","):
        rc = main([command, *EXTRA.get(command, []), "--robot", BATTERY, "--name",
                   "orthogonal_cuspidal", *grid, "--out", str(out), "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1, fmt
        assert captured.out == "" and captured.err.startswith("error: unsupported formats"), fmt
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(c for c in READS
                                            if "--format" in READS[c] and c != "classify"))
def test_every_command_refuses_a_format_it_does_not_write(tmp_path, capsys, command):
    """svg, which only classify writes, exits 1 with an error and no output
    for the commands that print JSON and write CSV, alone or beside csv."""
    out = tmp_path / "out"
    grid = ["--grid", "64"] if "--grid" in READS[command] else []
    for fmt in ("svg", "csv,svg", "json,svg"):
        rc = main([command, *EXTRA.get(command, []), "--robot", BATTERY, "--name",
                   "orthogonal_cuspidal", *grid, "--out", str(out), "--format", fmt])
        captured = capsys.readouterr()
        assert rc == 1, fmt
        assert captured.out == "", fmt
        assert captured.err == "error: unsupported formats: svg (this command writes json,csv)\n"
    assert not out.exists()


def test_plot_c3s3_refuses_a_grid(tmp_path, capsys):
    """c3s3 draws one target's conic and reads no torus grid: --grid exits 1
    before any file is written, as the other plots take it."""
    out = tmp_path / "out"
    rc = main(["plot", "c3s3", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--point", "2,0", "--grid", "64", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and captured.err == "error: plot c3s3 takes no --grid\n"
    assert not out.exists()
    assert main(["plot", "c3s3", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
                 "--point", "2,0", "--out", str(out)]) == 0
    assert (out / "orthogonal_cuspidal.c3s3.svg").exists()


@pytest.mark.parametrize("command", sorted(c for c in READS if len(READS[c]) < 3))
def test_every_command_refuses_the_options_it_does_not_read(tmp_path, capsys, command):
    """--grid, --out and --format are argparse errors (exit 2, usage on
    stderr, nothing on stdout) for a command that would ignore them."""
    out = tmp_path / "out"
    values = {"--grid": "64", "--out": str(out), "--format": "csv"}
    for option in sorted(set(values) - READS[command]):
        with pytest.raises(SystemExit) as exc:
            main([command, *EXTRA.get(command, []), "--robot", BATTERY, "--name",
                  "orthogonal_cuspidal", option, values[option]])
        captured = capsys.readouterr()
        assert exc.value.code == 2, option
        assert captured.out == "" and "unrecognized arguments: " + option in captured.err, option
    assert not out.exists()


# --------------------------------------------------------------------------
# classify: exit codes, determinism, schema
# --------------------------------------------------------------------------

CLASSIFY_ARGS = ["--grid", "240", "--census", "96", "--samples", "120"]


def test_classify_cuspidal_exit_and_report(tmp_path, capsys):
    rc = main(["classify", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               *CLASSIFY_ARGS, "--out", str(tmp_path), "--format", "json,csv,svg"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, load_schema())
    assert doc["verdict"] == "cuspidal"
    assert len(doc["cusps"]) == 4
    assert doc["cross_validation"]["agrees"] is True
    report = json.loads((tmp_path / "orthogonal_cuspidal.report.json").read_text())
    assert report == doc
    svg = (tmp_path / "orthogonal_cuspidal.workspace.svg").read_text()
    assert svg.count('<circle class="cusp-marker"') == 4


def test_classify_noncuspidal_exit(tmp_path, capsys):
    rc = main(["classify", "--robot", BATTERY, "--name", "nonortho_noncuspidal",
               *CLASSIFY_ARGS, "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, load_schema())
    assert doc["verdict"] == "non-cuspidal"
    assert doc["cusps"] == []


def test_classify_non_generic_exit(tmp_path, capsys):
    path = _write_robot(tmp_path, d=(0, 0, 0), a=(1, 2, 1.5))
    rc = main(["classify", "--robot", path, *CLASSIFY_ARGS, "--out", str(tmp_path)])
    assert rc == 3
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, load_schema())
    assert doc["verdict"] == "non-generic"
    assert doc["genericity"]["evidence"]


def test_classify_byte_identical_reruns(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main(["classify", "--robot", BATTERY, "--name", "orthogonal_node",
                   *CLASSIFY_ARGS, "--out", str(out), "--format", "json,csv,svg"])
        assert rc == 0
        capsys.readouterr()
        outs.append(out)
    for fname in sorted(os.listdir(outs[0])):
        b1 = (outs[0] / fname).read_bytes()
        b2 = (outs[1] / fname).read_bytes()
        assert b1 == b2, f"{fname} differs between reruns"


# --------------------------------------------------------------------------
# scripts
# --------------------------------------------------------------------------

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run_script(name, *args) -> str:
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, check=True).stdout


def test_analyze_battery_writes_what_classify_writes(tmp_path, capsys):
    """On a one-robot file at grid 120 the script writes the files `classify
    --format json,csv,svg` writes, byte for byte, plus a jointspace SVG."""
    path = _write_robot(tmp_path)
    out = _run_script("analyze_battery.py", "--robot", path, "--grid", "120",
                      "--out", str(tmp_path / "script"))
    assert out.splitlines()[1].split()[:4] == ["bot", "cuspidal", "4", "0"]
    rc = main(["classify", "--robot", path, "--grid", "120", "--out", str(tmp_path / "cli"),
               "--format", "json,csv,svg"])
    capsys.readouterr()
    assert rc == 2
    written = sorted(os.listdir(tmp_path / "cli"))
    assert len(written) == 4
    assert sorted(os.listdir(tmp_path / "script")) == sorted(written + ["bot.jointspace.svg"])
    for fname in written:
        assert (tmp_path / "script" / fname).read_bytes() == (tmp_path / "cli" / fname).read_bytes()


def test_sweep_family_prints_one_row_per_step():
    """Two a3 steps at grid 120 print the cusp and node counts, genericity and
    verdict the critical stages give for each robot."""
    lines = _run_script("sweep_family.py", "--param", "a3", "--lo", "1.5", "--hi", "2.5",
                        "--steps", "2", "--grid", "120").splitlines()
    assert lines[0].split() == ["a3", "cusps", "nodes", "generic", "verdict"]
    assert len(lines) == 3
    for line, a3 in zip(lines[1:], (1.5, 2.5)):
        p = replace(REFERENCE, a3=a3)
        curves = trace_critical_points(p, 120)
        wcurves = critical_values(p, curves)
        cusps = find_cusps(p, wcurves)
        assert genericity_check(p, 120, curves, wcurves, cusps).is_generic
        verdict = "cuspidal" if cusps else "non-cuspidal"
        assert line.split() == [f"{a3:.4f}", str(len(cusps)), str(len(find_nodes(p, wcurves))),
                                "True", verdict]


@pytest.mark.parametrize("base", ["0,1,0", "0,1,0,1,2,1.5,-1.5707963267948966,1.5707963267948966,7"],
                         ids=["3-numbers", "9-numbers"])
def test_sweep_family_refuses_a_base_that_is_not_eight_numbers(base):
    """A --base of too few or too many numbers exits 1 before any row, with
    one error line, as the CLI refuses an option."""
    run = subprocess.run([sys.executable, os.path.join(SCRIPTS, "sweep_family.py"), "--param",
                          "a3", "--lo", "1.5", "--hi", "2.5", "--steps", "2", "--grid", "120",
                          "--base", base], capture_output=True, text=True)
    assert run.returncode == 1 and run.stdout == ""
    count = len(base.split(","))
    assert run.stderr == ("error: --base takes 8 comma-separated numbers "
                          f"(d1,d2,d3,a1,a2,a3,alpha1,alpha2), got {count}\n")


# --------------------------------------------------------------------------
# plots
# --------------------------------------------------------------------------

def test_plot_workspace_and_jointspace(tmp_path, capsys):
    for what in ("workspace", "jointspace"):
        rc = main(["plot", what, "--robot", BATTERY, "--name", "orthogonal_cuspidal",
                   "--grid", "128", "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
    ws = (tmp_path / "orthogonal_cuspidal.workspace.svg").read_text()
    assert '<circle class="cusp-marker"' in ws
    js = (tmp_path / "orthogonal_cuspidal.jointspace.svg").read_text()
    assert 'class="singular-curve"' in js
    assert 'class="pseudo-curve"' in js
    assert 'class="aspect-0"' in js and 'class="aspect-1"' in js


def test_plot_c3s3_triple_marker_collapse(analysis):
    """At the cusp, three intersection markers coincide within marker radius."""
    cusp = max(analysis.cusps(REFERENCE), key=lambda c: c.z)
    svg = render_c3s3(REFERENCE, CrossSectionPoint(cusp.rho, cusp.z))
    import re

    marks = [(float(m.group(1)), float(m.group(2))) for m in re.finditer(
        r'<circle class="intersection-marker" cx="([-\d.]+)" cy="([-\d.]+)"', svg)]
    assert len(marks) == 4
    clusters = []
    for pt in marks:
        for cl in clusters:
            if math.hypot(pt[0] - cl[0][0], pt[1] - cl[0][1]) < 6.0:
                cl.append(pt)
                break
        else:
            clusters.append([pt])
    assert sorted(len(c) for c in clusters) == [1, 3]


def test_plot_c3s3_ellipse_class(tmp_path, capsys):
    rc = main(["plot", "c3s3", "--robot", BATTERY, "--name", "ellipse_conic",
               "--point", "2.4,0.6", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "ellipse_conic.c3s3.svg").read_text()
    assert 'class="conic conic-ellipse"' in svg


def test_plot_c3s3_unreachable_zero_markers(tmp_path, capsys):
    rc = main(["plot", "c3s3", "--robot", BATTERY, "--name", "orthogonal_cuspidal",
               "--point", "40,0", "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "orthogonal_cuspidal.c3s3.svg").read_text()
    assert '<circle class="intersection-marker"' not in svg
    assert 'class="conic' in svg


def _main_without_warnings(args) -> tuple:
    """main(args) with every warning recorded, not raised: (exit code,
    warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(args)
    return rc, caught


@pytest.mark.parametrize("point,shown", [("inf,0", "(inf, 0.0)"), ("nan,0", "(nan, 0.0)"),
                                         ("1,-inf", "(1.0, -inf)")])
def test_plot_c3s3_refuses_a_non_finite_point(tmp_path, capsys, point, shown):
    """A point that is not finite exits 1 with one error line that names it,
    before any conic is evaluated, so with no warning."""
    rc, caught = _main_without_warnings(["plot", "c3s3", "--robot", BATTERY, "--name",
                                         "orthogonal_cuspidal", "--point", point,
                                         "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1 and caught == []
    assert captured.out == "" and captured.err == f"error: cross-section point {shown} must be finite\n"


@pytest.mark.parametrize("rho", ["1e80", "1e160"])
def test_far_points_have_no_ik_and_no_c3s3_conic(tmp_path, capsys, rho):
    """A point far beyond reach has no IK solution; its c3s3 conic, whose
    terms overflow, exits 1 with one error line; neither warns."""
    rc, caught = _main_without_warnings(["ik", "--robot", BATTERY, "--name",
                                         "orthogonal_cuspidal", "--point", f"{rho},0"])
    captured = capsys.readouterr()
    assert rc == 0 and caught == [] and captured.err == ""
    assert json.loads(captured.out)["solutions"] == []
    rc, caught = _main_without_warnings(["plot", "c3s3", "--robot", BATTERY, "--name",
                                         "orthogonal_cuspidal", "--point", f"{rho},0",
                                         "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 1 and caught == []
    assert captured.out == ""
    assert captured.err == f"error: the conic at ({float(rho)}, 0.0) is not finite\n"


def test_plot_rerun_byte_identical(tmp_path, capsys):
    args = ["plot", "workspace", "--robot", BATTERY, "--name", "orthogonal_node",
            "--grid", "128"]
    rc = main([*args, "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main([*args, "--out", str(tmp_path / "b")])
    assert rc == 0
    capsys.readouterr()
    f1 = (tmp_path / "a" / "orthogonal_node.workspace.svg").read_bytes()
    f2 = (tmp_path / "b" / "orthogonal_node.workspace.svg").read_bytes()
    assert f1 == f2


# --------------------------------------------------------------------------
# benchmark tooling
# --------------------------------------------------------------------------

def test_benchmark_tracer_names_resolve(analysis):
    """Every (module, attribute) the benchmark's tracer spans or counts still
    names a callable of the package, the tracer installs over all of them,
    and one solve_ik and one label_solutions call record their spans, so
    `perfbench/run.py --trace 1` runs and sees the IK engine."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")}
    assert set(tables) == {"SPANNED", "COUNTED"}
    for modname, attr in tables["SPANNED"] + tables["COUNTED"]:
        obj = importlib.import_module(f"cuspidal.{modname}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{modname}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{attr}"

    maps = build_topology(REFERENCE, analysis.curves(REFERENCE), TEST_GRID)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        pose = forward_kinematics(REFERENCE, JointConfig(0.4, 1.1, -2.0))
        reduction.solve_ik(REFERENCE, pose)
        topology.label_solutions(REFERENCE, maps, cross_section(pose))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"reduction.solve_ik", "reduction.f_coefficients",
            "topology.label_solutions"} <= names
    assert reduction.solve_ik is solve_ik
