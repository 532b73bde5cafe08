import io

import pytest

from lambda_osc.output import dumps_json, fmt_float, fmt_float_json, write_csv


class TestCsv:
    def test_header_rows_and_line_endings(self):
        buf = io.StringIO()
        write_csv(buf, ["a", "b"], [(1, 0.5), (2, None)])
        assert buf.getvalue() == "a,b\n1,0.5\n2,\n"

    def test_shortest_decimal(self):
        assert fmt_float(0.3) == "0.3"
        assert fmt_float(1.35) == "1.35"
        assert fmt_float(7) == "7"

    def test_float_subclass_prints_as_float(self):
        class Wrapped(float):
            def __repr__(self):
                return f"Wrapped({float(self)!r})"

        assert fmt_float(Wrapped(0.5)) == "0.5"


class TestJson:
    def test_seventeen_significant_digits(self):
        assert fmt_float_json(0.3) == "0.29999999999999999"
        assert fmt_float_json(0.5) == "0.5"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fmt_float_json(float("nan"))
        with pytest.raises(ValueError):
            fmt_float_json(float("inf"))

    def test_round_trip(self):
        import json

        obj = {"a": [1, 2.5, None, True], "b": {"c": "x\"y\nz"}}
        assert json.loads(dumps_json(obj)) == obj

    def test_indented_layout(self):
        # the one layout both JSON writers use: a member per line, two
        # spaces per level, empty containers inline
        assert dumps_json([1, 2]) == "[\n  1,\n  2\n]\n"
        assert dumps_json({}) == "{}\n"
        assert dumps_json({"k": [1], "e": []}) == (
            '{\n  "k": [\n    1\n  ],\n  "e": []\n}\n')

    def test_deterministic(self):
        obj = {"x": 0.1 + 0.2, "y": [3.14159, -0.0]}
        assert dumps_json(obj) == dumps_json(obj)
