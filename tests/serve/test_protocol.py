"""Unit tests of the wire protocol: framing, validation, marshalling."""

import math

import pytest

from repro.serve import protocol
from repro.serve.protocol import ERROR_CODES, ServeError


class TestFraming:
    def test_encode_round_trips_through_decode(self):
        obj = {"op": "call", "args": [1, 2.5, None, "s"], "id": 9}
        line = protocol.encode(obj)
        assert line.endswith(b"\n") and b"\n" not in line[:-1]
        assert protocol.decode(line) == obj

    def test_encode_is_compact_json_byte_for_byte(self):
        import json
        for obj in ({"op": "call", "args": [1, 2.5, None, "s"], "id": 9},
                    {"b": {"float": "nan"}, "a": [True, [], {}], "é": "\u2603\n"},
                    {"ok": False, "error": {"code": "trap", "message": "x / 0"}},
                    {"result": [1e300, -0.0, 12345678901234567890]}):
            assert protocol.encode(obj) == (json.dumps(
                obj, separators=(",", ":")) + "\n").encode("utf-8")

    def test_non_json_is_bad_json(self):
        with pytest.raises(ServeError) as ei:
            protocol.decode(b"{nope\n")
        assert ei.value.code == "bad-json"

    def test_non_object_is_bad_json(self):
        with pytest.raises(ServeError) as ei:
            protocol.decode(b"[1, 2]\n")
        assert ei.value.code == "bad-json"

    def test_error_codes_are_a_closed_set(self):
        with pytest.raises(AssertionError):
            protocol.error_response(1, "not-a-code", "whatever")
        assert "trap" in ERROR_CODES and "overloaded" in ERROR_CODES

    def test_responses_echo_the_request_id(self):
        assert protocol.ok_response(7, 42) == {"id": 7, "ok": True,
                                               "result": 42}
        err = protocol.error_response(None, "trap", "boom")
        assert "id" not in err and err["ok"] is False
        assert err["error"]["code"] == "trap"


class TestFieldValidation:
    def test_missing_required_field(self):
        with pytest.raises(ServeError) as ei:
            protocol.field({}, "source", str, required=True)
        assert ei.value.code == "bad-request"

    def test_default_applies_when_absent(self):
        assert protocol.field({}, "args", list, default=[]) == []

    def test_wrong_type_rejected(self):
        with pytest.raises(ServeError) as ei:
            protocol.field({"count": "five"}, "count", int)
        assert ei.value.code == "bad-request"

    def test_bool_is_not_an_int(self):
        # JSON true must not satisfy an integer field despite bool <: int
        with pytest.raises(ServeError):
            protocol.field({"count": True}, "count", int)

    def test_chunk_range_validation(self):
        assert protocol.chunk_range({}) is None
        assert protocol.chunk_range({"chunk": [0, 8]}) == (0, 8)
        assert protocol.chunk_range({"chunk": [-2 ** 63, 2 ** 63 - 1]}) == \
            (-2 ** 63, 2 ** 63 - 1)
        for bad in ([0], [0, 1, 2], [0, "x"], [0, True], "0..8", [8, 0],
                    [0, 2 ** 64 + 8], [-2 ** 63 - 1, 0]):  # c_int64 would wrap
            with pytest.raises(ServeError):
                protocol.chunk_range({"chunk": bad})


class TestResultMarshalling:
    def test_scalars_pass_through(self):
        assert protocol.jsonable_result(None, "f") is None
        assert protocol.jsonable_result(42, "f") == 42
        assert protocol.jsonable_result(2.5, "f") == 2.5
        assert protocol.jsonable_result(True, "f") is True

    def test_nan_and_inf_are_encoded_as_objects(self):
        assert protocol.jsonable_result(float("nan"), "f") == {"float": "nan"}
        assert protocol.jsonable_result(float("inf"), "f") == {"float": "inf"}
        assert protocol.jsonable_result(float("-inf"), "f") == \
            {"float": "-inf"}

    def test_client_side_inverse(self):
        assert math.isnan(protocol.from_wire_result({"float": "nan"}))
        assert protocol.from_wire_result({"float": "-inf"}) == float("-inf")
        assert protocol.from_wire_result([1, 2.5]) == (1, 2.5)
        assert protocol.from_wire_result(7) == 7

    def test_tuples_become_lists(self):
        assert protocol.jsonable_result((1, 2.0), "f") == [1, 2.0]

    def test_unsupported_return_type(self):
        with pytest.raises(ServeError) as ei:
            protocol.jsonable_result(object(), "f")
        assert ei.value.code == "unsupported"
