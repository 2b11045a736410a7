"""Command-line front end.

Exit codes of `classify`: 0 non-cuspidal, 2 cuspidal, 3 non-generic,
1 error.  All other commands exit 0 on success and 1 on error.  Output is
deterministic: identical inputs produce byte-identical JSON/CSV/SVG files.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import report as reportmod
from . import svgplot
from .dh import CrossSectionPoint, JointConfig, Pose3, cross_section, forward_kinematics
from .errors import CuspidalError, NonGenericRobotError
from .critical import (
    DEFAULT_GRID_N,
    critical_values,
    find_cusps,
    find_nodes,
    trace_critical_points,
)
from .reduction import solve_ik
from .robotfile import parse_robot_file
from .topology import (
    build_topology,
    compute_aspects,
    compute_pseudosingularities,
    find_nonsingular_path,
    is_cuspidal,
    verify_path,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CUSPIDAL = 2
EXIT_NON_GENERIC = 3


def _parse_floats(text: str, n: int, what: str):
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    return [float(v) for v in parts]


def _add_common(sub):
    sub.add_argument("--robot", required=True, help="robot spec file (JSON)")
    sub.add_argument("--name", default=None, help="robot name inside the file")
    sub.add_argument("--grid", type=int, default=DEFAULT_GRID_N,
                     help="torus grid resolution (default 720)")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--format", default="json",
                     help="comma-separated subset of json,csv,svg")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cuspidal",
        description="Decide whether a generic 3R serial manipulator is cuspidal.")
    subs = ap.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="full analysis with verdict and report")
    _add_common(sub)
    sub.add_argument("--census", type=int, default=128, help="workspace census resolution")
    sub.add_argument("--samples", type=int, default=200,
                     help="cross-validation sample count")

    sub = subs.add_parser("fk", help="forward kinematics of one configuration")
    _add_common(sub)
    sub.add_argument("--config", action="append", required=True,
                     metavar="T1,T2,T3", help="joint angles in radians")

    sub = subs.add_parser("ik", help="inverse kinematics of a cross-section point")
    _add_common(sub)
    sub.add_argument("--point", required=True, metavar="RHO,Z")

    for cmd, doc in (("critical", "trace critical curves in joint space and workspace"),
                     ("cusps", "locate cusp points"),
                     ("nodes", "locate node points"),
                     ("aspects", "count aspects and reduced aspects"),
                     ("pseudo", "compute pseudosingularity curves")):
        sub = subs.add_parser(cmd, help=doc)
        _add_common(sub)

    sub = subs.add_parser("path", help="nonsingular path between two configurations")
    _add_common(sub)
    sub.add_argument("--config", action="append", required=True,
                     metavar="T1,T2,T3", help="give twice: start and goal")

    sub = subs.add_parser("plot", help="deterministic SVG figures")
    _add_common(sub)
    sub.add_argument("what", choices=["workspace", "jointspace", "c3s3"])
    sub.add_argument("--point", default=None, metavar="RHO,Z",
                     help="target for the c3s3 plot")
    return ap


def _formats(args):
    fmts = [f.strip() for f in args.format.split(",") if f.strip()]
    bad = set(fmts) - {"json", "csv", "svg"}
    if bad or not fmts:
        raise ValueError(f"unsupported formats: {','.join(sorted(bad)) or '(none)'}")
    return fmts


def _robot(args):
    spec = parse_robot_file(args.robot)
    return spec.get(args.name)


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _print(doc) -> None:
    sys.stdout.write(reportmod.dumps(doc))


def cmd_classify(args) -> int:
    name, p = _robot(args)
    fmts = _formats(args)
    settings = {"grid_n": args.grid, "census_n": args.census,
                "samples": args.samples, "formats": fmts}
    try:
        rep = is_cuspidal(p, grid_n=args.grid, census_n=args.census, samples=args.samples)
    except NonGenericRobotError as exc:
        doc = reportmod.build_report(name, p, settings, genericity=exc.report)
        _emit_classify(args, name, doc, fmts, None)
        return EXIT_NON_GENERIC
    doc = reportmod.build_report(name, p, settings, report=rep)
    _emit_classify(args, name, doc, fmts, rep)
    return EXIT_CUSPIDAL if rep.verdict else EXIT_OK


def _emit_classify(args, name, doc, fmts, rep) -> None:
    _print(doc)
    out = _ensure_out(args)
    if "json" in fmts:
        with open(os.path.join(out, f"{name}.report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(reportmod.dumps(doc))
    if rep is None:
        return
    if "csv" in fmts:
        _write_cusp_csv(os.path.join(out, f"{name}.cusps.csv"), rep.cusps)
        _write_node_csv(os.path.join(out, f"{name}.nodes.csv"), rep.nodes)
    if "svg" in fmts:
        svg = svgplot.render_workspace(rep.workspace_curves, rep.cusps, rep.nodes)
        with open(os.path.join(out, f"{name}.workspace.svg"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(svg)


def _write_cusp_csv(path, cusps) -> None:
    reportmod.emit_csv(path, ["rho", "z", "t", "resM", "resM1", "resM2", "absM3"],
                       [(c.rho, c.z, c.t, c.res_m, c.res_m1, c.res_m2, c.abs_m3)
                        for c in cusps])


def _write_node_csv(path, nodes) -> None:
    reportmod.emit_csv(path, ["rho", "z", "t1", "t2", "residual"],
                       [(n.rho, n.z, n.t1, n.t2, n.residual) for n in nodes])


def cmd_fk(args) -> int:
    name, p = _robot(args)
    docs = []
    for cfg in args.config:
        t1, t2, t3 = _parse_floats(cfg, 3, "--config")
        q = JointConfig(t1, t2, t3)
        pose = forward_kinematics(p, q)
        cs = cross_section(pose)
        docs.append({
            "robot": name,
            "config": [q.theta1, q.theta2, q.theta3],
            "pose": {"x": pose.x, "y": pose.y, "z": pose.z},
            "cross_section": {"rho": cs.rho, "z": cs.z},
        })
    _print(docs[0] if len(docs) == 1 else docs)
    return EXIT_OK


def cmd_ik(args) -> int:
    name, p = _robot(args)
    rho, z = _parse_floats(args.point, 2, "--point")
    sols = solve_ik(p, Pose3(rho, 0.0, z))
    _print({
        "robot": name,
        "point": {"rho": rho, "z": z},
        "solutions": [
            {"theta1": s.config.theta1, "theta2": s.config.theta2,
             "theta3": s.config.theta3, "multiplicity": s.multiplicity, "t": s.t}
            for s in sols.solutions
        ],
        "count_with_multiplicity": sols.n,
        "flagged_roots": [{"t": t, "multiplicity": m} for t, m in sols.flagged],
    })
    return EXIT_OK


def cmd_critical(args) -> int:
    name, p = _robot(args)
    fmts = _formats(args)
    curves = trace_critical_points(p, args.grid)
    wcurves = critical_values(p, curves)
    if "csv" in fmts:
        out = _ensure_out(args)
        for k, c in enumerate(curves):
            reportmod.emit_csv(os.path.join(out, f"{name}.critical.joint-{k:02d}.csv"),
                               ["theta2", "theta3"],
                               [(v[0], v[1]) for v in c.vertices])
        for k, w in enumerate(wcurves):
            reportmod.emit_csv(os.path.join(out, f"{name}.critical.workspace-{k:02d}.csv"),
                               ["rho", "z"],
                               [(v[0], v[1]) for v in w.vertices])
    _print({
        "robot": name,
        "curves": len(curves),
        "vertices": [len(c) for c in curves],
        "closed": [bool(c.closed) for c in curves],
    })
    return EXIT_OK


def cmd_cusps(args) -> int:
    name, p = _robot(args)
    fmts = _formats(args)
    curves = trace_critical_points(p, args.grid)
    cusps = find_cusps(p, critical_values(p, curves))
    if "csv" in fmts:
        _write_cusp_csv(os.path.join(_ensure_out(args), f"{name}.cusps.csv"), cusps)
    _print({
        "robot": name,
        "cusps": [{"rho": c.rho, "z": c.z, "t": c.t} for c in cusps],
    })
    return EXIT_OK


def cmd_nodes(args) -> int:
    name, p = _robot(args)
    fmts = _formats(args)
    curves = trace_critical_points(p, args.grid)
    nodes = find_nodes(p, critical_values(p, curves))
    if "csv" in fmts:
        _write_node_csv(os.path.join(_ensure_out(args), f"{name}.nodes.csv"), nodes)
    _print({
        "robot": name,
        "nodes": [{"rho": n.rho, "z": n.z, "t1": n.t1, "t2": n.t2} for n in nodes],
    })
    return EXIT_OK


def cmd_aspects(args) -> int:
    name, p = _robot(args)
    curves = trace_critical_points(p, args.grid)
    maps = build_topology(p, curves, args.grid)
    labels = maps.aspects.labels
    sizes = np.bincount(labels[labels >= 0], minlength=maps.aspects.count).tolist()
    _print({
        "robot": name,
        "aspect_count": maps.aspects.count,
        "aspect_cells": sizes,
        "reduced_aspect_count": maps.reduced.count,
    })
    return EXIT_OK


def cmd_pseudo(args) -> int:
    name, p = _robot(args)
    fmts = _formats(args)
    curves = trace_critical_points(p, args.grid)
    ps = compute_pseudosingularities(p, curves, args.grid)
    if "csv" in fmts:
        out = _ensure_out(args)
        for k, chain in enumerate(ps.polylines):
            reportmod.emit_csv(os.path.join(out, f"{name}.pseudo-{k:02d}.csv"),
                               ["theta2", "theta3"],
                               [(v[0], v[1]) for v in chain])
    _print({
        "robot": name,
        "chains": len(ps.polylines),
        "points": ps.total_points(),
    })
    return EXIT_OK


def cmd_path(args) -> int:
    name, p = _robot(args)
    if len(args.config) != 2:
        raise ValueError("path needs --config twice: start and goal")
    qs = JointConfig(*_parse_floats(args.config[0], 3, "--config"))
    qg = JointConfig(*_parse_floats(args.config[1], 3, "--config"))
    curves = trace_critical_points(p, args.grid)
    maps = build_topology(p, curves, args.grid)
    path = find_nonsingular_path(p, maps, qs, qg)
    if path is None:
        _print({"robot": name, "found": False})
        return EXIT_OK
    check = verify_path(p, path)
    fmts = _formats(args)
    if "csv" in fmts:
        reportmod.emit_csv(os.path.join(_ensure_out(args), f"{name}.path.csv"),
                           ["theta2", "theta3"],
                           [(w[0], w[1]) for w in path.waypoints])
    _print({
        "robot": name,
        "found": True,
        "waypoints": len(path),
        "min_det": check.min_det,
        "valid": bool(check.valid),
    })
    return EXIT_OK


def cmd_plot(args) -> int:
    name, p = _robot(args)
    out = _ensure_out(args)
    if args.what == "workspace":
        curves = trace_critical_points(p, args.grid)
        wcurves = critical_values(p, curves)
        svg = svgplot.render_workspace(wcurves, find_cusps(p, wcurves),
                                       find_nodes(p, wcurves))
        fname = f"{name}.workspace.svg"
    elif args.what == "jointspace":
        curves = trace_critical_points(p, args.grid)
        ps = compute_pseudosingularities(p, curves, args.grid)
        amap = compute_aspects(p, args.grid)
        svg = svgplot.render_jointspace(curves, ps, amap)
        fname = f"{name}.jointspace.svg"
    else:
        if args.point is None:
            raise ValueError("c3s3 plot needs --point RHO,Z")
        rho, z = _parse_floats(args.point, 2, "--point")
        svg = svgplot.render_c3s3(p, CrossSectionPoint(rho, z))
        fname = f"{name}.c3s3.svg"
    path = os.path.join(out, fname)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    _print({"robot": name, "file": path})
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "fk": cmd_fk,
    "ik": cmd_ik,
    "critical": cmd_critical,
    "cusps": cmd_cusps,
    "nodes": cmd_nodes,
    "aspects": cmd_aspects,
    "pseudo": cmd_pseudo,
    "path": cmd_path,
    "plot": cmd_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CuspidalError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
