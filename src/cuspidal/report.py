"""Deterministic report serialization: JSON documents and CSV emitters.

Identical analysis inputs must produce byte-identical files, so floats are
always rendered with the same 12-significant-digit format, object keys are
sorted, and line endings are LF.
"""
from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports must not contain NaN or infinity")
    s = "%.12g" % float(x)
    return s


def _serialize(obj, out: list, indent: int):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj, key=str)
        for k, key in enumerate(keys):
            out.append(f'{pad}  {json.dumps(str(key), ensure_ascii=True)}: ')
            _serialize(obj[key], out, indent + 1)
            out.append(",\n" if k < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(items):
            out.append(pad + "  ")
            _serialize(item, out, indent + 1)
            out.append(",\n" if k < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format, LF, newline at EOF."""
    out: list = []
    _serialize(obj, out, 0)
    return "".join(out) + "\n"


def emit_csv(path, header, rows) -> None:
    """One CSV with 12-significant-digit floats and LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_schema() -> dict:
    text = resources.files("cuspidal").joinpath("schema/report_v1.json").read_text("utf-8")
    return json.loads(text)


def census_summary(census) -> dict:
    values, sizes = np.unique(census.counts, return_counts=True)
    return {
        "counts_histogram": {str(v): n for v, n in zip(values.tolist(), sizes.tolist())},
        "audited_pairs": int(census.audited_pairs),
        "audit_ok": bool(census.audit_ok),
        "violations": int(len(census.violations)),
        "boundary_samples": [
            {"rho": s.rho, "z": s.z, "count": int(s.count),
             "low": int(s.low), "high": int(s.high)}
            for s in census.boundary_samples
        ],
    }


def build_report(name: str, params, settings: dict, report=None, genericity=None) -> dict:
    """Assemble the classify report document.

    Pass `report` for a completed analysis; pass only `genericity` when the
    robot failed the genericity gate.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "robot": {"name": name, **params.as_dict()},
        "settings": settings,
    }
    if report is None:
        doc.update({
            "verdict": "non-generic",
            "genericity": {
                "is_generic": False,
                "evidence": [dict(e) for e in genericity.evidence],
            },
            "conic": None,
            "cusps": [],
            "nodes": [],
            "aspect_count": None,
            "reduced_aspect_count": None,
            "cross_validation": None,
            "census": None,
            "anomalies": [],
            "timing": {},
        })
        return doc
    cross = report.cross_validation
    doc.update({
        "verdict": "cuspidal" if report.verdict else "non-cuspidal",
        "genericity": {
            "is_generic": bool(report.genericity.is_generic),
            "evidence": [dict(e) for e in report.genericity.evidence],
        },
        "conic": {"kind": report.conic_kind},
        "cusps": [
            {"rho": c.rho, "z": c.z, "t": c.t, "res_m": c.res_m, "res_m1": c.res_m1,
             "res_m2": c.res_m2, "abs_m3": c.abs_m3}
            for c in report.cusps
        ],
        "nodes": [
            {"rho": n.rho, "z": n.z, "t1": n.t1, "t2": n.t2, "residual": n.residual}
            for n in report.nodes
        ],
        "aspect_count": int(report.aspect_count),
        "reduced_aspect_count": int(report.reduced_aspect_count),
        "cross_validation": {
            "points_examined": int(cross.points_examined),
            "same_aspect_pair_found": bool(cross.same_aspect_found),
            "witness": list(cross.witness) if cross.witness else None,
            "theorem2_violations": int(len(cross.theorem2_violations)),
            "agrees": bool(report.agrees),
        },
        "census": census_summary(report.census),
        "anomalies": list(report.anomalies),
        "timing": dict(report.work),
    })
    return doc
