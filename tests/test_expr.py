"""Parser, folding, and rendering tests for the expression mini-language."""

from __future__ import annotations

import numpy as np
import pytest

from graphmass.errors import ParseError, UnboundParameterError
from graphmass.expr import (Coord, Param, Radial, const_fold, free_symbols,
                            parse, power, to_text)
from graphmass.jets import ExprField


def ev(text, n, point, params=None):
    fld = ExprField(text, n, params)
    return float(fld.value(np.asarray(point, float)[None, :])[0])


class TestParsing:
    def test_precedence(self):
        """Multiplication binds tighter than addition, power tighter still."""
        assert ev("2+3*4", 3, [0, 0, 0]) == 14.0
        assert ev("2*3^2", 3, [0, 0, 0]) == 18.0
        assert ev("(2+3)*4", 3, [0, 0, 0]) == 20.0

    def test_power_right_associative(self):
        # exponent of the outer power is parsed as a unary expression
        assert ev("2^3^2", 3, [0, 0, 0]) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-x1^2", 3, [3, 0, 0]) == -9.0

    def test_negative_exponent(self):
        assert ev("x1^-2", 3, [2, 0, 0]) == 0.25

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("x1^x2", 3)

    def test_coordinates_and_dimension_bound(self):
        assert ev("x1+10*x2+100*x3", 3, [1, 2, 3]) == 321.0
        with pytest.raises(ParseError, match="out of range"):
            parse("x4", 3)

    def test_radial_shortcut(self):
        assert ev("r^2", 3, [1.0, 2.0, 2.0]) == pytest.approx(9.0, rel=1e-15)

    def test_functions(self):
        assert ev("sin(0)+cos(0)", 3, [0, 0, 0]) == 1.0
        assert ev("log(exp(2))", 3, [0, 0, 0]) == pytest.approx(2.0, rel=1e-15)
        assert ev("sqrt(x1)", 3, [49.0, 0, 0]) == 7.0

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tanh(x1)", 3)

    def test_bare_function_name(self):
        with pytest.raises(ParseError, match="without arguments"):
            parse("sin + 1", 3)

    def test_error_positions(self):
        """ParseError carries the offset of the offending token."""
        with pytest.raises(ParseError) as info:
            parse("x1 + * 2", 3)
        assert info.value.position == 5
        with pytest.raises(ParseError) as info:
            parse("x1 + ", 3)
        assert info.value.position == 5

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("x1 # x2", 3)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 x2", 3)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(x1 + 2", 3)

    def test_dimension_must_be_positive(self):
        with pytest.raises(ParseError):
            parse("x1", 0)


class TestFoldingAndParams:
    def test_const_fold(self):
        assert const_fold(parse("2*(3+4)", 3)) == 14.0
        assert const_fold(parse("exp(0)+sqrt(4)", 3)) == pytest.approx(3.0)
        assert const_fold(parse("2*x1", 3)) is None

    @pytest.mark.parametrize(("text", "reason"), [
        ("x1^(1/0)", "division by zero"),
        ("x1^sqrt(-1)", "sqrt of a negative value"),
        ("x1^log(0)", "log of a non-positive value"),
        ("x1^(0^(-1))", "negative power of zero"),
        ("x1^exp(1000)", "not finite"),
    ])
    def test_exponent_outside_a_domain_is_parse_error(self, text, reason):
        """An exponent that folds to no finite number is a ParseError at
        the caret that names the reason."""
        with pytest.raises(ParseError, match=reason) as info:
            parse(text, 3)
        assert info.value.position == 2

    def test_param_names_sorted(self):
        """An unbound-parameter error names the missing ones, sorted."""
        for params, names in (({}, "'a', 'b', 'c'"), ({"b": 1.0}, "'a', 'c'")):
            with pytest.raises(UnboundParameterError,
                               match=rf"\[{names}\] are not bound"):
                ExprField("c*x1 + b*sin(a*x2)", 3, params)
        assert ExprField("x1+x2", 3).params == {}

    def test_free_symbols(self):
        """Every distinct variable leaf once, under any node kind."""
        assert free_symbols(parse("a*exp(-r^2) - x2/(1 + a*x2)", 3)) == {
            Param("a"), Radial(), Coord(2)}
        assert free_symbols(parse("sqrt(2)^3 - 1", 3)) == frozenset()

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            ExprField("a*x1", 3)

    def test_bound_parameter(self):
        assert ev("a*x1 + b", 3, [2, 0, 0], {"a": 3.0, "b": 1.0}) == 7.0


class TestPower:
    """``power``, the one power of the values and of the four jet powers:
    |v|^c with the sign restored for odd integral c."""

    @pytest.mark.parametrize("c", [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0,
                                   0.5, 2.5, -1.5])
    def test_bit_equal_to_np_power_on_nonnegative_bases(self, c):
        v = np.random.default_rng(4).uniform(0.0, 3.0, 1000)
        if c > 0:
            v[:2] = 0.0
        assert np.array_equal(power(v, c), np.power(v, c))
        for single in (np.float64(1.7), np.array(1.7), 1.7):
            assert power(single, c) == np.power(single, c)

    @pytest.mark.parametrize("c", [-2.0, -1.0, 2.0, 3.0, 4.0])
    def test_negative_bases_within_roundoff(self, c):
        v = -np.random.default_rng(5).uniform(1e-3, 3.0, 1000)
        ref = np.power(v, c)
        assert np.max(np.abs(power(v, c) - ref) / np.abs(ref)) <= 4e-16
        for single in (np.float64(-1.7), np.array(-1.7), -1.7):
            got, want = power(single, c), np.power(single, c)
            assert np.shape(got) == np.shape(want)
            assert abs(got - want) <= 4e-16 * abs(want)


class TestRendering:
    EXPRESSIONS = (
        "x1 + 2*x2",
        "-(x1 + x2)*x3",
        "sin(x1)*cos(x2) - exp(-x3)",
        "sqrt(1 + x1^2)",
        "x1/(x2 + 3)",
        "a*x1^-2 + b",
        "2^3^2 + r",
        "-x1^2",
    )

    def test_round_trip_structural(self):
        """parse(to_text(e)) reproduces the tree exactly."""
        for text in self.EXPRESSIONS:
            node = parse(text, 3)
            again = parse(to_text(node), 3)
            assert again == node, f"round trip changed {text!r}"

    def test_round_trip_numerical(self):
        rng = np.random.default_rng(11)
        params = {"a": 1.5, "b": -0.25}
        for text in self.EXPRESSIONS:
            node = parse(text, 3)
            f1 = ExprField(node, 3, params)
            f2 = ExprField(to_text(node), 3, params)
            pts = rng.uniform(0.1, 0.9, (32, 3))
            v1, v2 = f1.value(pts), f2.value(pts)
            assert np.array_equal(v1, v2), f"values drifted for {text!r}"
