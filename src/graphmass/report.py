"""Deterministic report documents: JSON body plus flux and bulk CSV tables.

The document is split into a header (timestamps, runtimes, library
versions: anything that legitimately varies between runs) and a body
(everything the run computed).  Identical configuration and seed must
produce byte-identical bodies, so the body serializer is hand-rolled:
floats print as %.17g, key order is insertion order fixed by the
assembly code, and no timestamps or durations may appear inside.  It is
one pass that dispatches on each node's exact type and quotes with
json's C quoting.  A document encodes its body once, on first use, for
both ``body_bytes`` and ``to_json``: do not mutate a body after that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

# the isinstance rules, in order, for what the exact-type dispatch leaves:
# numpy scalars and arrays, and subclasses of the JSON types
_PLAIN = (((bool, np.bool_), bool), (str, str.__str__),  # not its __str__
          ((int, np.integer), int), ((float, np.floating), float),
          (dict, lambda d: dict(d.items())), ((list, tuple), list),
          (np.ndarray, np.ndarray.tolist))


def format_float(x: float) -> str:
    if x - x == 0.0:  # finite: inf - inf and nan - nan are nan
        return "%.17g" % x
    if x != x:
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


def _encode(value, out: list[str]) -> None:
    t = type(value)
    if t is float:
        out.append(format_float(value))
    elif t is str:
        out.append(_quote(value))
    elif t is dict:
        sep = "{"  # the first item opens the object, the rest follow a comma
        for k, v in value.items():
            out.append(sep + _quote(k if type(k) is str else str(k)) + ":")
            _encode(v, out)
            sep = ","
        out.append("}" if value else "{}")
    elif t is list or t is tuple:
        sep = "["
        for v in value:
            out.append(sep)
            _encode(v, out)
            sep = ","
        out.append("]" if value else "[]")
    elif t is bool:
        out.append("true" if value else "false")
    elif t is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    else:
        plain = next((f for kinds, f in _PLAIN if isinstance(value, kinds)),
                     None)
        if plain is None:
            raise TypeError(f"cannot serialize {t.__name__}")
        _encode(plain(value), out)


def encode_body(body: dict) -> str:
    out: list[str] = []
    _encode(body, out)
    return "".join(out)


@dataclass
class ReportDocument:
    """Header/body split; only the body participates in comparisons."""

    header: dict = field(default_factory=dict)
    body: dict = field(default_factory=dict)

    @cached_property
    def _body_text(self) -> str:
        return encode_body(self.body)

    def body_bytes(self) -> bytes:
        return self._body_text.encode("ascii")

    def to_json(self) -> str:
        return ('{"header":' + encode_body(self.header) + ',"body":'
                + self._body_text + "}")


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
