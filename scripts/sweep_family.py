#!/usr/bin/env python3
"""Sweep one D-H parameter of a robot and track cusps, nodes and the verdict.

Useful for mapping cuspidality transitions in a design family, e.g.:

    python scripts/sweep_family.py --param a3 --lo 0.4 --hi 2.5 --steps 22
"""
import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from cuspidal import DhParams  # noqa: E402
from cuspidal.critical import (  # noqa: E402
    critical_values,
    find_cusps,
    find_nodes,
    genericity_check,
    trace_critical_points,
)

PARAMS = ("d1", "d2", "d3", "a1", "a2", "a3", "alpha1", "alpha2")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--param", choices=PARAMS, required=True)
    ap.add_argument("--lo", type=float, required=True)
    ap.add_argument("--hi", type=float, required=True)
    ap.add_argument("--steps", type=int, default=21)
    ap.add_argument("--grid", type=int, default=360)
    ap.add_argument("--base", default="0,1,0,1,2,1.5,%r,%r" % (-math.pi / 2, math.pi / 2),
                    help="comma-separated d1,d2,d3,a1,a2,a3,alpha1,alpha2")
    args = ap.parse_args()

    base = dict(zip(PARAMS, (float(v) for v in args.base.split(","))))
    print(f"{args.param:>10}  cusps  nodes  generic  verdict")
    for value in np.linspace(args.lo, args.hi, args.steps):
        base[args.param] = float(value)
        p = DhParams(**base)
        try:
            curves = trace_critical_points(p, args.grid)
            wcurves = critical_values(p, curves)
            cusps = find_cusps(p, wcurves)
            generic = genericity_check(p, args.grid, curves=curves,
                                       workspace_curves=wcurves, cusps=cusps)
            if generic.is_generic:
                nodes = len(find_nodes(p, wcurves))
                verdict = "cuspidal" if cusps else "non-cuspidal"
            else:
                # nodes of a non-generic robot can fill a curve; no count is meaningful
                nodes, verdict = "-", "non-generic"
            print(f"{value:10.4f}  {len(cusps):5d}  {nodes!s:>5}  "
                  f"{str(generic.is_generic):>7}  {verdict}")
        except Exception as exc:  # sweep should not die on one bad member
            print(f"{value:10.4f}  error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
