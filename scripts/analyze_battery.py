#!/usr/bin/env python3
"""Classify every robot in a spec file and collect reports and figures.

Usage:
    python scripts/analyze_battery.py [--robot robots/battery.json]
                                      [--grid 720] [--out out/battery]

Writes one report JSON, cusp/node CSVs and workspace/jointspace SVGs per
robot, plus a summary table on stdout.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cuspidal import report as reportmod  # noqa: E402
from cuspidal import svgplot  # noqa: E402
from cuspidal.errors import NonGenericRobotError  # noqa: E402
from cuspidal.robotfile import parse_robot_file  # noqa: E402
from cuspidal.topology import is_cuspidal  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--robot", default=os.path.join(
        os.path.dirname(__file__), "..", "robots", "battery.json"))
    ap.add_argument("--grid", type=int, default=720)
    ap.add_argument("--census", type=int, default=128)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--out", default="out/battery")
    args = ap.parse_args()

    spec = parse_robot_file(args.robot)
    os.makedirs(args.out, exist_ok=True)
    settings = {"grid_n": args.grid, "census_n": args.census, "samples": args.samples}
    rows = []
    for name, p in spec.robots.items():
        t0 = time.time()
        try:
            rep = is_cuspidal(p, grid_n=args.grid, census_n=args.census,
                              samples=args.samples)
        except NonGenericRobotError as exc:
            doc = reportmod.build_report(name, p, settings, genericity=exc.report)
            rows.append((name, "non-generic", "-", "-", time.time() - t0))
        else:
            doc = reportmod.build_report(name, p, settings, report=rep)
            rows.append((name, doc["verdict"], len(rep.cusps), len(rep.nodes),
                         time.time() - t0))
            with open(os.path.join(args.out, f"{name}.workspace.svg"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(svgplot.render_workspace(rep.workspace_curves, rep.cusps, rep.nodes))
            curves = [w.joint for w in rep.workspace_curves]
            with open(os.path.join(args.out, f"{name}.jointspace.svg"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(svgplot.render_jointspace(curves, rep.maps.ps, rep.maps.aspects))
        with open(os.path.join(args.out, f"{name}.report.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(reportmod.dumps(doc))
    width = max(len(r[0]) for r in rows)
    print(f"{'robot':<{width}}  verdict       cusps  nodes  seconds")
    for name, verdict, cusps, nodes, secs in rows:
        print(f"{name:<{width}}  {verdict:<12}  {cusps!s:>5}  {nodes!s:>5}  {secs:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
