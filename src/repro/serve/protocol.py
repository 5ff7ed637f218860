"""The repro.serve wire protocol: newline-delimited JSON over a stream.

One request per line, one response per line, in order, per connection.
Concurrency comes from *connections* (each simulated user holds one), not
from pipelining — which keeps the framing trivial and the blocking client
(:mod:`repro.serve.client`) a dozen lines.

Requests are JSON objects with an ``op`` field::

    {"op": "ping"}
    {"op": "call", "tenant": "t0", "source": "terra f...", "entry": "f",
     "args": [4], "id": 7}
    {"op": "call", ..., "chunk": [0, 1024]}        # chunked dispatch
    {"op": "alloc", "tenant": "t0", "dtype": "double", "count": 1024}
    {"op": "write", "tenant": "t0", "buf": 1, "start": 0, "values": [...]}
    {"op": "read",  "tenant": "t0", "buf": 1, "start": 0, "count": 8}
    {"op": "free",  "tenant": "t0", "buf": 1}
    {"op": "stats"}

Responses echo the request's ``id`` (when present) and carry either a
result or a structured error::

    {"id": 7, "ok": true, "result": 42}
    {"id": 7, "ok": false, "error": {"code": "trap", "message": "..."}}

Error codes are a closed set (:data:`ERROR_CODES`) so clients can switch
on them; the ``message`` is human-oriented and free-form.  A framing
error (non-JSON bytes, or a line longer than the server's
``max_request_bytes``) still produces one well-formed error response,
after which the server closes the connection — the stream position is no
longer trustworthy.
"""

from __future__ import annotations

import json
from typing import Optional

from ..errors import TerraError

#: the closed set of machine-readable error codes
ERROR_CODES = frozenset({
    "bad-json",         # the request line was not a JSON object
    "bad-request",      # JSON, but missing/ill-typed fields
    "oversized",        # request line exceeded max_request_bytes
    "overloaded",       # global admission queue full (fast-reject)
    "tenant-over-quota",  # per-tenant concurrency cap hit (fast-reject)
    "unknown-op",       # unrecognized "op"
    "unknown-entry",    # source compiled, but no such entry point
    "unknown-buffer",   # buffer id not owned by this tenant
    "compile-error",    # Terra front end / gcc rejected the source
    "trap",             # kernel trapped at runtime (%0 etc.)
    "unsupported",      # argument/return type not expressible in JSON
    "internal",         # unexpected server-side failure
})


class ServeError(TerraError):
    """A structured serve-side failure (also raised by the client when a
    response carries ``ok: false``)."""

    def __init__(self, code: str, message: str):
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


#: ``json.dumps`` with non-default separators builds an encoder per call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


#: compact JSON text of one value
dumps = _ENCODER.encode


def encode(obj: dict) -> bytes:
    """One protocol line: compact JSON plus the terminating newline."""
    return (_ENCODER.encode(obj) + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    """Parse one request line; raises :class:`ServeError` on bad framing."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServeError("bad-json", f"request is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ServeError("bad-json",
                         f"request must be a JSON object, got "
                         f"{type(obj).__name__}")
    return obj


def ok_response(req_id, result) -> dict:
    out: dict = {"ok": True, "result": result}
    if req_id is not None:
        out["id"] = req_id
    return out


def error_response(req_id, code: str, message: str) -> dict:
    assert code in ERROR_CODES, code
    out: dict = {"ok": False, "error": {"code": code, "message": message}}
    if req_id is not None:
        out["id"] = req_id
    return out


# -- request field validation --------------------------------------------------

def field(req: dict, name: str, types, default=None, required: bool = False):
    """Fetch and type-check one request field; :class:`ServeError` on
    missing/ill-typed values (``bool`` is not accepted where a number is
    expected, despite being an ``int`` subclass)."""
    value = req.get(name, None)
    if type(value) is types:    # exactly the one type asked for
        return value
    if value is None:
        if required:
            raise ServeError("bad-request", f"missing field {name!r}")
        return default
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and bool not in _astuple(types)):
        raise ServeError(
            "bad-request",
            f"field {name!r} must be {_typenames(types)}, "
            f"got {type(value).__name__}")
    return value


def chunk_range(req: dict) -> Optional[tuple[int, int]]:
    """The request's ``chunk: [lo, hi]`` range, validated, or None."""
    raw = req.get("chunk")
    if raw is None:
        return None
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       and -1 << 63 <= v < 1 << 63   # the entry takes int64
                       for v in raw)):
        raise ServeError("bad-request",
                         "field 'chunk' must be [lo, hi] with int64 bounds")
    lo, hi = raw
    if hi < lo:
        raise ServeError("bad-request", f"empty chunk range [{lo}, {hi})")
    return (lo, hi)


def _astuple(types) -> tuple:
    return types if isinstance(types, tuple) else (types,)


def _typenames(types) -> str:
    return "/".join(t.__name__ for t in _astuple(types))


def jsonable_result(value, fn_name: str):
    """Map a kernel's Python-level return value onto JSON, or raise
    ``unsupported``: only None, booleans, numbers, and tuples of those
    cross the service boundary (pointers and aggregates do not)."""
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        # JSON has no inf/nan literals; encode as strings the client maps back
        if value != value:
            return {"float": "nan"}
        if value in (float("inf"), float("-inf")):
            return {"float": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, tuple):
        return [jsonable_result(v, fn_name) for v in value]
    raise ServeError(
        "unsupported",
        f"{fn_name} returned {type(value).__name__}, which does not "
        f"cross the JSON service boundary (return scalars, or write "
        f"through a server-resident buffer)")


def from_wire_result(value):
    """Client-side inverse of :func:`jsonable_result`."""
    if isinstance(value, dict) and set(value) == {"float"}:
        return float(value["float"])
    if isinstance(value, list):
        return tuple(from_wire_result(v) for v in value)
    return value
