"""Byte-determinism of the report body serializer and the CSV tables."""

from __future__ import annotations

import math

import numpy as np
import pytest

from graphmass.report import (ReportDocument, bulk_csv, encode_body,
                              flux_csv, format_float)


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
