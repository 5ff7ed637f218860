"""The client's call path: each call appends its arguments, range and id
to a request head encoded once per (tenant, source, entry), and shares
:meth:`ServeClient.request`'s response and error handling."""

import pytest

from repro.serve import ServeError, protocol
from repro.serve.client import REQUEST_HEADS, ServeClient


class Wire:
    """A socket and its reader, in place of a server: records what the
    client sends and answers each line with ``reply``."""

    def __init__(self, reply=b'{"ok":true,"result":1}\n'):
        self.sent, self.reply = [], reply

    def sendall(self, data):
        self.sent.append(data)

    def readline(self):
        return self.reply

    def close(self):
        pass


def client(wire, **kwargs):
    c = ServeClient(socket_path="<no socket>", **kwargs)
    c._sock = c._file = wire
    return c


def dict_form(source, entry, args, tenant, req_id, chunk=None):
    req = {"op": "call", "source": source, "entry": entry,
           "args": list(args), "tenant": tenant, "id": req_id}
    if chunk is not None:
        req["chunk"] = list(chunk)
    return req


class TestRequestHeads:
    @pytest.mark.parametrize("source,args,tenant,chunk", [
        ("terra bump(x : int) : int return x + 7 end", [5], "t", None),
        ("terra f(x : double) : double return x end -- café ☃",
         [2.5], "té", None),
        ("terra f(n : int64, p : &double) : {} end",
         [8, {"buf": 3}, None, True], "t", (2, 6)),
        ("terra g() : int return 1 end", [], None, None),   # default tenant
    ])
    def test_a_call_sends_what_encode_of_its_dict_form_sends(
            self, source, args, tenant, chunk):
        wire = Wire()
        c = client(wire, tenant="default")
        for i in range(2):      # the second call reuses the head
            c.call(source, "f", args, tenant=tenant, chunk=chunk)
            sent = wire.sent[-1]
            assert sent.endswith(b"\n") and b"\n" not in sent[:-1]
            assert protocol.decode(sent) == protocol.decode(protocol.encode(
                dict_form(source, "f", args, tenant or "default", i + 1,
                          chunk)))
        assert len(c._heads) == 1
        c.call(source, "f", args, tenant="other", chunk=chunk)
        assert protocol.decode(wire.sent[-1])["tenant"] == "other"
        assert len(c._heads) == 2

    def test_the_table_stays_at_its_bound(self):
        wire = Wire()
        c = client(wire)
        sources = [f"terra f() : int return {i} end"
                   for i in range(REQUEST_HEADS + 5)]
        for source in sources:
            c.call(source, "f")
        assert len(c._heads) == REQUEST_HEADS
        c.call(sources[0], "f")         # evicted: encoded again
        assert len(c._heads) == REQUEST_HEADS
        assert protocol.decode(wire.sent[-1])["source"] == sources[0]


class TestSharedErrorHandling:
    @pytest.mark.parametrize("code", ["oversized", "bad-json"])
    def test_a_framing_error_closes_the_connection(self, code):
        reply = protocol.encode(protocol.error_response(None, code, "no"))
        for send in (lambda c: c.call("terra f() : int return 1 end", "f"),
                     lambda c: c.request({"op": "ping"})):
            c = client(Wire(reply))
            with pytest.raises(ServeError) as ei:
                send(c)
            assert ei.value.code == code
            assert c._sock is None and c._file is None

    def test_other_errors_keep_the_connection(self):
        reply = protocol.encode(protocol.error_response(7, "trap", "x / 0"))
        c = client(Wire(reply))
        with pytest.raises(ServeError) as ei:
            c.call("terra f() : int return 1 / 0 end", "f")
        assert (ei.value.code, ei.value.message) == ("trap", "x / 0")
        assert c._sock is not None

    def test_a_closed_stream_is_a_connection_error(self):
        c = client(Wire(b""))
        with pytest.raises(ConnectionError):
            c.call("terra f() : int return 1 end", "f")
        assert c._sock is None


def test_an_oversized_call_closes_and_the_client_reconnects(tmp_path):
    from repro.serve import ServeConfig, ServerThread
    cfg = ServeConfig(socket_path=str(tmp_path / "o.sock"), workers=1,
                      max_request_bytes=4096)
    with ServerThread(cfg) as srv:
        with srv.client() as c:
            with pytest.raises(ServeError) as ei:
                c.call("terra f() : int return 1 end" + " " * 8192, "f")
            assert ei.value.code == "oversized"
            assert c._sock is None
            assert c.ping()                 # a new connection
