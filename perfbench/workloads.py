"""The three workloads: set-up, one operation at a time, and its checks.

Each workload exposes ``setup()``, ``pass_len`` (operations that form one
whole pass over the inputs) and ``op(k)``, which performs operation k,
checks its output and returns a list of ``(kind, seconds)`` timings, read
from the ``clock`` the workload was made with (see hostspeed).  Kind
"request" is the workload's headline request; query_mix also times its
parts.  A failed check raises ``CheckFailed``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os

import numpy as np

# Requests call the package through module attributes, so that a traced run
# sees them; checks use names bound here, which tracing leaves alone.
from cuspidal import cli, critical, reduction, report, robotfile, topology
from cuspidal import (
    CrossSectionPoint,
    conic_coefficients,
    find_nonsingular_path,
    forward_kinematics,
    quartic_from_conic,
    validate_params,
    wrap_angle,
)
from cuspidal.dh import length_scale

import inputs

GRID_N = 720
CENSUS_N = 128
SAMPLES = 200
# path queries are ~1-3 s each against ~3 ms for a point query
PATH_EVERY = 1500
CUSP_RESIDUAL_MAX = 1e-9      # |M|, |M'|, |M''| of the normalised quartic
CUSP_M3_MIN = 1e-3            # |M'''| of the normalised quartic
IK_ROUND_TRIP_TOL = 1e-8      # torus distance, as acceptance criterion 6
IK_FORWARD_TOL = 1e-8         # |FK(solution) - target| / length scale
EPS = float(np.finfo(float).eps)


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def certify_cusp(p, rho, z, t):
    """Re-certify a cusp from the public conic/quartic: M = M' = M'' = 0 and
    M''' clearly non-zero, in the chart t or 1/t that keeps |t| <= 1."""
    m = quartic_from_conic(conic_coefficients(p, CrossSectionPoint(rho, z))).coeffs()
    m = m / np.max(np.abs(m))
    if abs(t) > 1.0:
        m, t = m[::-1], 1.0 / t
    vals = [abs(float(np.polyval(np.polyder(m, k) if k else m, t))) for k in range(4)]
    check(max(vals[:3]) <= CUSP_RESIDUAL_MAX,
          f"cusp at ({rho:.6g}, {z:.6g}) has residuals {vals[:3]}")
    check(vals[3] >= CUSP_M3_MIN, f"cusp at ({rho:.6g}, {z:.6g}) has |M'''| {vals[3]:.3g}")


class ClassifyBattery:
    """`cuspidal classify` in-process on battery robots, all output formats."""

    name = "classify_battery"

    def __init__(self, seed, workdir, root, clock):
        self.clock = clock
        self.order = inputs.classify_order(seed)
        self.pass_len = len(self.order)
        self.workdir = workdir
        self.battery = os.path.join(root, "robots", "battery.json")
        import jsonschema
        self.validator = jsonschema.Draft7Validator(report.load_schema())
        self.sha = {}             # robot -> SHA-256 of its first report
        self.bytes_written = 0
        self.cuspidal = 0

    def setup(self):
        spec = robotfile.parse_robot_file(self.battery)
        for name in self.order:
            validate_params(spec.get(name)[1])
        cli.build_parser()

    def op(self, k):
        name = self.order[k % self.pass_len]
        out = os.path.join(self.workdir, f"{k:04d}")
        argv = ["classify", "--robot", self.battery, "--name", name,
                "--grid", str(GRID_N), "--census", str(CENSUS_N),
                "--samples", str(SAMPLES), "--out", out, "--format", "json,csv,svg"]
        buf = io.StringIO()
        mark = self.clock.mark()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        dt = self.clock.seconds(mark)
        self.bytes_written += sum(os.path.getsize(os.path.join(out, f))
                                  for f in os.listdir(out))
        self._check(name, code, out, buf.getvalue())
        return [("request", dt)]

    def _check(self, name, code, out, stdout):
        check(code == inputs.CLASSIFY_EXIT[name],
              f"{name}: exit {code}, expected {inputs.CLASSIFY_EXIT[name]}")
        with open(os.path.join(out, f"{name}.report.json"), "rb") as fh:
            raw = fh.read()
        check(raw == stdout.encode("utf-8"), f"{name}: stdout differs from the report file")
        doc = json.loads(raw)
        errors = sorted(self.validator.iter_errors(doc), key=str)
        check(not errors, f"{name}: report fails the schema: {errors[:1]}")
        digest = hashlib.sha256(raw).hexdigest()
        check(self.sha.setdefault(name, digest) == digest,
              f"{name}: repeated report is not byte-identical")
        if code == cli.EXIT_NON_GENERIC:
            return
        self.cuspidal += code == cli.EXIT_CUSPIDAL
        xv = doc["cross_validation"]
        check(xv["agrees"], f"{name}: the two pillars disagree")
        check(xv["theorem2_violations"] == 0, f"{name}: Theorem-2 violations")
        check(doc["anomalies"] == [], f"{name}: anomalies {doc['anomalies']}")
        p = robotfile.parse_robot_file(self.battery).get(name)[1]
        for c in doc["cusps"]:
            certify_cusp(p, c["rho"], c["z"], c["t"])
        if name == "orthogonal_cuspidal":
            check(len(doc["cusps"]) == 4 and doc["aspect_count"] == 2,
                  f"{name}: {len(doc['cusps'])} cusps, {doc['aspect_count']} aspects")

    def shares(self, n_ops):
        return {"share.cuspidal_robots": self.cuspidal / max(n_ops, 1)}


class ScreenFamily:
    """The cusp pillar alone, as sweep_family.py and the Theorem-3 screen run it."""

    name = "screen_family"

    def __init__(self, seed, workdir, root, clock):
        self.seed = seed
        self.clock = clock
        self.robots = []
        self.pass_len = 0
        self.non_generic = 0
        self.cuspidal = 0

    def setup(self):
        self.robots = inputs.screen_robots(self.seed)
        for _, p, _ in self.robots:
            validate_params(p)
        self.pass_len = len(self.robots)

    def op(self, k):
        label, p, a3 = self.robots[k % self.pass_len]
        mark = self.clock.mark()
        curves = critical.trace_critical_points(p, GRID_N)
        wcurves = critical.critical_values(p, curves)
        cusps = critical.find_cusps(p, wcurves)
        generic = critical.genericity_check(p, GRID_N, curves=curves,
                                            workspace_curves=wcurves, cusps=cusps)
        nodes = critical.find_nodes(p, wcurves)
        dt = self.clock.seconds(mark)
        self.non_generic += not generic.is_generic
        self.cuspidal += bool(cusps)
        if a3 is not None:
            got = (len(cusps), len(nodes), bool(generic.is_generic))
            check(got == inputs.SWEEP_TABLE[a3], f"{label}: {got} != {inputs.SWEEP_TABLE[a3]}")
        if generic.is_generic:
            for c in cusps:
                certify_cusp(p, c.rho, c.z, c.t)
        return [("request", dt)]

    def shares(self, n_ops):
        n = max(n_ops, 1)
        return {"share.non_generic_draws": self.non_generic / n,
                "share.cuspidal_robots": self.cuspidal / n}


class QueryMix:
    """Single IK, labelling and posture-change queries against prebuilt maps."""

    name = "query_mix"
    pass_len = 1
    ROBOTS = ("orthogonal_cuspidal", "orthogonal_node")

    def __init__(self, seed, workdir, root, clock):
        self.seed = seed
        self.clock = clock
        self.battery = os.path.join(root, "robots", "battery.json")
        self.stream = None
        self.maps = {}
        self.path_due = False
        self.counts = {"points": 0, "four": 0, "near": 0, "paths": 0, "found": 0}

    def setup(self):
        spec = robotfile.parse_robot_file(self.battery)
        robots = []
        for name in self.ROBOTS:
            p = spec.get(name)[1]
            curves = critical.trace_critical_points(p, GRID_N)
            self.maps[name] = topology.build_topology(p, curves, GRID_N)
            values = np.vstack([w.vertices for w in critical.critical_values(p, curves)])
            robots.append((name, p, values))
        self.stream = inputs.QueryStream(self.seed, robots)

    def op(self, k):
        name, p, pose, q, offset = self.stream.next()
        maps = self.maps[name]
        mark = self.clock.mark()
        sols = reduction.solve_ik(p, pose)
        ik = self.clock.seconds(mark)
        mark = self.clock.mark()
        target = CrossSectionPoint(math.hypot(pose.x, pose.y), pose.z)
        labels = topology.label_solutions(p, maps, target)
        label = self.clock.seconds(mark)
        timings = [("request", ik + label), ("ik", ik), ("label", label)]
        c = self.counts
        c["points"] += 1
        c["four"] += sols.n == 4
        c["near"] += q is None
        self._check_ik(p, pose, q, offset, sols)
        check(len(labels) == sols.distinct(),
              f"{name}: {len(labels)} labels for {sols.distinct()} solutions")
        clean = [l for l in labels if not (l.on_boundary or l.singular_cell)]
        if k % PATH_EVERY == 0:
            self.path_due = True
        if name == "orthogonal_node":
            for a, b in itertools.combinations(clean, 2):
                check(find_nonsingular_path(p, maps, a.config, b.config) is None,
                      f"{name}: two IK solutions joined by a nonsingular path")
        elif self.path_due:
            pair = next(((a, b) for a, b in itertools.combinations(clean, 2)
                         if a.aspect == b.aspect), None)
            if pair is not None:
                self.path_due = False
                mark = self.clock.mark()
                path = topology.find_nonsingular_path(p, maps, pair[0].config, pair[1].config)
                ok = path is not None and topology.verify_path(p, path).valid
                timings.append(("path", self.clock.seconds(mark)))
                c["paths"] += 1
                c["found"] += path is not None
                check(ok, f"{name}: no valid path inside one aspect")
        return timings

    @staticmethod
    def _check_ik(p, pose, q, offset, sols):
        if q is not None:
            best = min((max(abs(float(wrap_angle(s.config.theta1 - q.theta1))),
                            abs(float(wrap_angle(s.config.theta2 - q.theta2))),
                            abs(float(wrap_angle(s.config.theta3 - q.theta3))))
                        for s in sols.solutions), default=math.inf)
            check(best <= IK_ROUND_TRIP_TOL, f"IK round trip misses the source by {best:.3g}")
            return
        # m roots closer than the quartic's backward-error ball, whose radius
        # is ~(64 eps)^(1/m) in t, come back as one m-fold root on the
        # critical value; the target sits `offset` away from that value
        tol = IK_FORWARD_TOL * length_scale(p)
        for s in sols.solutions:
            f = forward_kinematics(p, s.config)
            err = math.hypot(math.hypot(f.x - pose.x, f.y - pose.y), f.z - pose.z)
            bound = tol
            if s.multiplicity > 1:
                ball = 16.0 * (64.0 * EPS) ** (1.0 / s.multiplicity)
                bound += offset + ball * length_scale(p)
            check(err <= bound, f"IK solution of multiplicity {s.multiplicity} misses a "
                                f"near-critical target by {err:.3g}")

    def shares(self, n_ops):
        c = self.counts
        n = max(c["points"], 1)
        return {"share.four_solution_points": c["four"] / n,
                "share.near_critical_points": c["near"] / n,
                "share.paths_found": c["found"] / max(c["paths"], 1)}


WORKLOADS = {w.name: w for w in (ClassifyBattery, ScreenFamily, QueryMix)}
