"""Byte-determinism of the report body serializer and the CSV tables."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from graphmass.cli import EntryConfig, RunConfig, execute_run
from graphmass.report import (ReportDocument, bulk_csv, encode_body,
                              flux_csv, format_float)
from graphmass.scenarios import scenario_names


def _reference(value) -> str:
    """The serializer's rules as one isinstance chain with one json.dumps
    per key and string: the parity oracle for the exact-type dispatch."""
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _reference(v)
                              for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        return "[" + ",".join(_reference(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class _Label(str):
    """A str subclass whose __str__ is not its characters."""

    def __str__(self):
        return "relabelled"


class _Measure(float):
    pass


class _Rows(dict):
    pass


# values for the exact-type dispatch and for its isinstance fallback
PARITY = {
    "float64": np.float64(0.1), "float32": np.float32(0.1),
    "float16": np.float16(-2.5), "int64": np.int64(-9),
    "uint8": np.uint8(200), "bool_true": np.bool_(True),
    "bool_false": np.bool_(False), "array_2d": np.arange(6.0).reshape(2, 3),
    "array_bool": np.array([[True], [False]]),
    "array_int32": np.array([1, 2], dtype=np.int32),
    "array_empty": np.array([]), "longdouble": np.longdouble(0.5),
    "np_str": np.str_("x"), "str_subclass": _Label("caf\u00e9"),
    "float_subclass": _Measure(1 / 3),
    "float_subclass_inf": _Measure(math.inf),
    "dict_subclass": _Rows(b=1, a=[2.0]),
    "non_str_keys": {1: "int key", 2.5: "float key", None: "none key"},
    "str_subclass_key": {_Label("k"): 1.0},
    "nested_tuples": ((1, (2.5, ())), ()), "empty_dict": {},
    "empty_list": [], "empty_tuple": (), "nested_empty": [{"e": {}}, [[]]],
    "nan": math.nan, "inf": math.inf, "minus_inf": -math.inf,
    "float64_nan": np.float64(math.nan), "minus_zero": -0.0,
    "big_int": 10 ** 30, "negative_int": -1,
    "escapes": "tab\there \"quoted\" \\ \u2603 \U0001f600",
}


class TestFormatFloat:
    def test_shortest_faithful(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(0.25) == "0.25"
        assert format_float(1 / 3) == "0.33333333333333331"

    def test_non_finite_become_strings(self):
        # json has no literals for these, so they ship as quoted tags
        assert format_float(math.nan) == '"nan"'
        assert format_float(math.inf) == '"inf"'
        assert format_float(-math.inf) == '"-inf"'


class TestEncodeBody:
    def test_scalar_types(self):
        body = {"none": None, "yes": True, "no": False, "i": 7,
                "x": 0.5, "s": "flux"}
        assert encode_body(body) == (
            '{"none":null,"yes":true,"no":false,"i":7,"x":0.5,'
            '"s":"flux"}')

    def test_numpy_scalars_and_arrays(self):
        body = {"x": np.float64(0.25), "n": np.int64(9),
                "t": np.bool_(True), "f": np.bool_(False),
                "a": np.array([1.5, 2.0])}
        assert encode_body(body) == (
            '{"x":0.25,"n":9,"t":true,"f":false,"a":[1.5,2]}')

    def test_insertion_order_preserved(self):
        assert encode_body({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_nested_containers(self):
        body = {"rows": [{"v": (1.0, 0.1)}, {"v": []}]}
        assert encode_body(body) == (
            '{"rows":[{"v":[1,0.10000000000000001]},{"v":[]}]}')

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            encode_body({"x": object()})
        with pytest.raises(TypeError, match="cannot serialize set"):
            encode_body({"x": {1, 2}})

    @pytest.mark.parametrize("value", PARITY.values(), ids=PARITY.keys())
    def test_exact_type_and_fallback_parity(self, value):
        """Every value, as a node and as a key's value inside containers,
        reads as the isinstance chain reads it."""
        for body in (value, {"v": value}, [value, {"w": (value,)}]):
            assert encode_body(body) == _reference(body)

    def test_zero_dim_array_is_its_scalar(self):
        """A 0-d array reads as its one element (the isinstance chain
        iterates it and fails)."""
        assert encode_body({"a": np.array(2.5), "b": np.array(True),
                            "c": np.array(7)}) == '{"a":2.5,"b":true,"c":7}'

    def test_str_subclass_reads_its_characters(self):
        """A str subclass's value is its characters, as json.dumps reads
        it; as a key it reads as str() of it, as the chain does."""
        assert encode_body([_Label("abc")]) == '["abc"]'
        assert encode_body({_Label("abc"): 1}) == '{"relabelled":1}'

    def test_unknown_type_messages(self):
        for value, name in ((object(), "object"), ({1, 2}, "set"),
                            (1j, "complex"), (b"x", "bytes")):
            for body in ({"x": value}, [[value]]):
                with pytest.raises(TypeError) as info:
                    encode_body(body)
                assert str(info.value) == f"cannot serialize {name}"

    def test_byte_determinism(self):
        body = {"m": 1 / 3, "series": np.linspace(0.0, 1.0, 5),
                "flags": {"ok": np.bool_(True)}}
        assert encode_body(body) == encode_body(dict(body))


class TestReportDocument:
    def test_body_bytes_ascii(self):
        doc = ReportDocument(body={"label": "café", "x": 0.1})
        raw = doc.body_bytes()
        raw.decode("ascii")
        assert b"\\u00e9" in raw

    def test_to_json_layout(self):
        doc = ReportDocument(header={"runtime": 1.5}, body={"x": 2.0})
        assert doc.to_json() == '{"header":{"runtime":1.5},"body":{"x":2}}'

    def test_to_json_is_the_whole_document_encoded(self):
        header = {"runtime": 0.25, "versions": {"numpy": "2"},
                  "times": [1.5, np.float64(2.0)]}
        body = {"x": [1.0, None, True], "rows": ({"k": np.int64(3)},),
                "empty": {}, "nan": math.nan}
        doc = ReportDocument(header=header, body=body)
        assert doc.to_json() == encode_body({"header": header,
                                             "body": body})
        assert doc.body_bytes() == encode_body(body).encode("ascii")
        assert ReportDocument().to_json() == '{"header":{},"body":{}}'

    def test_body_bytes_repeat(self):
        """body_bytes and to_json read one encoding of the body, in
        either order and any number of times."""
        doc = ReportDocument(header={"t": 1.0}, body={"x": [0.1, 0.2]})
        first = doc.body_bytes()
        assert doc.body_bytes() == first
        assert doc.to_json().endswith(',"body":' + first.decode() + "}")
        assert doc.body_bytes() == first
        other = ReportDocument(header={"t": 2.0}, body={"x": [0.1, 0.2]})
        assert other.to_json() != doc.to_json()
        assert other.body_bytes() == first

    def test_header_excluded_from_body(self):
        a = ReportDocument(header={"runtime": 0.1}, body={"x": 1.0})
        b = ReportDocument(header={"runtime": 9.9}, body={"x": 1.0})
        assert a.body_bytes() == b.body_bytes()
        assert a.to_json() != b.to_json()


class TestCsvTables:
    def test_flux_table(self):
        body = {"scenarios": [
            {"scenario": "demo",
             "flux_table": {"radii": [2.0, 4.0], "plain": [1.25, 1.125],
                            "weighted": [1.0, 1.0]}},
            {"scenario": "geometry_only"},
        ]}
        assert flux_csv(body) == (
            "scenario,radius,plain_mass,weighted_mass\n"
            "demo,2,1.25,1\n"
            "demo,4,1.125,1\n")

    def test_bulk_table(self):
        body = {"scenarios": [
            {"scenario": "demo", "bulk_regions": [
                {"center": [-100.0, 0.0, 0.5], "r_inner": 16.0,
                 "r_outer": 56.0, "value": 0.2, "uncertainty": 1e-05,
                 "panels": 128}]},
            {"scenario": "geometry_only"},
        ]}
        assert bulk_csv(body) == (
            "scenario,region,r_inner,r_outer,bulk_mass,uncertainty,panels\n"
            "demo,-100 0 0.5,16,56,0.20000000000000001,"
            "1.0000000000000001e-05,128\n")

    def test_empty_body_keeps_header(self):
        assert flux_csv({}) == "scenario,radius,plain_mass,weighted_mass\n"
        assert bulk_csv({}) == (
            "scenario,region,r_inner,r_outer,bulk_mass,uncertainty,panels\n")


# sha256[:16] of the default suite's report body per seed
PINNED_BODIES = {1: "8eea4679276a97b7", 5: "c25bdcac16718486",
                 7: "3159464d491c7217"}


@pytest.mark.parametrize("seed", sorted(PINNED_BODIES))
def test_default_bodies_are_pinned(seed):
    """The report body of every registry default at seeds 1, 5 and 7,
    byte for byte, with exit code 0.  A change that moves a body value
    updates the digest here and lists the moved values in CHANGES.md."""
    code, document, _ = execute_run(RunConfig(
        [EntryConfig(name, {}) for name in scenario_names()], seed=seed))
    assert code == 0
    digest = hashlib.sha256(document.body_bytes()).hexdigest()[:16]
    assert digest == PINNED_BODIES[seed]
