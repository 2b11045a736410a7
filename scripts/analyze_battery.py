#!/usr/bin/env python3
"""Classify every robot in a spec file and collect reports and figures.

Usage:
    python scripts/analyze_battery.py [--robot robots/battery.json]
                                      [--grid 720] [--out out/battery]

Writes, per robot, the files `cuspidal classify --format json,csv,svg`
writes at classify's census resolution and sample count (128 and 200):
report JSON, cusp/node CSVs and workspace SVG, the report bytes equal to
the command's, plus a jointspace SVG, and a summary table on stdout.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from cuspidal import report, svgplot  # noqa: E402
from cuspidal.cli import classify_robot, write_classify_files  # noqa: E402
from cuspidal.robotfile import parse_robot_file  # noqa: E402

FORMATS = ["json", "csv", "svg"]
CENSUS_N, SAMPLES = 128, 200        # classify's --census and --samples defaults


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--robot", default=os.path.join(
        os.path.dirname(__file__), "..", "robots", "battery.json"))
    ap.add_argument("--grid", type=int, default=720)
    ap.add_argument("--out", default="out/battery")
    args = ap.parse_args()

    spec = parse_robot_file(args.robot)
    rows = []
    for name, p in spec.robots.items():
        t0 = time.time()
        doc, rep = classify_robot(name, p, args.grid, CENSUS_N, SAMPLES, FORMATS)
        write_classify_files(args.out, name, report.dumps(doc), FORMATS, rep)
        if rep is None:
            rows.append((name, "non-generic", "-", "-", time.time() - t0))
            continue
        rows.append((name, doc["verdict"], len(rep.cusps), len(rep.nodes), time.time() - t0))
        curves = [w.joint for w in rep.workspace_curves]
        with open(os.path.join(args.out, f"{name}.jointspace.svg"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(svgplot.render_jointspace(curves, rep.maps.ps, rep.maps.aspects))
    width = max(len(r[0]) for r in rows)
    print(f"{'robot':<{width}}  verdict       cusps  nodes  seconds")
    for name, verdict, cusps, nodes, secs in rows:
        print(f"{name:<{width}}  {verdict:<12}  {cusps!s:>5}  {nodes!s:>5}  {secs:7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
