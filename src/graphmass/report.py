"""Deterministic report documents: JSON body plus flux and bulk CSV tables.

The document is split into a header (timestamps, runtimes, library
versions: anything that legitimately varies between runs) and a body
(everything the run computed).  Identical configuration and seed must
produce byte-identical bodies, so the body serializer is hand-rolled:
floats print as %.17g, key order is insertion order fixed by the
assembly code, and no timestamps or durations may appear inside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _encode(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, np.bool_):
        out.append("true" if bool(value) else "false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(float(value)))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k)))
            out.append(":")
            _encode(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _encode(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def encode_body(body: dict) -> str:
    out: list[str] = []
    _encode(body, out)
    return "".join(out)


@dataclass
class ReportDocument:
    """Header/body split; only the body participates in comparisons."""

    header: dict = field(default_factory=dict)
    body: dict = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        return encode_body(self.body).encode("ascii")

    def to_json(self) -> str:
        return encode_body({"header": self.header, "body": self.body})


def flux_csv(body: dict) -> str:
    """Radius -> flux-mass table for every scenario carrying one."""
    lines = ["scenario,radius,plain_mass,weighted_mass"]
    for scn in body.get("scenarios", []):
        table = scn.get("flux_table")
        if not table:
            continue
        for r, p, w in zip(table["radii"], table["plain"],
                           table["weighted"]):
            lines.append("%s,%s,%s,%s" % (
                scn["scenario"], "%.17g" % r, "%.17g" % p, "%.17g" % w))
    return "\n".join(lines) + "\n"


def bulk_csv(body: dict) -> str:
    """Bulk mass per integration region, named by its shells' centre."""
    lines = ["scenario,region,r_inner,r_outer,bulk_mass,uncertainty,panels"]
    for scn in body.get("scenarios", []):
        for row in scn.get("bulk_regions", []):
            lines.append("%s,%s,%s,%s,%s,%s,%d" % (
                scn["scenario"], " ".join("%.17g" % x for x in row["center"]),
                "%.17g" % row["r_inner"], "%.17g" % row["r_outer"],
                "%.17g" % row["value"], "%.17g" % row["uncertainty"],
                row["panels"]))
    return "\n".join(lines) + "\n"
