"""Tests for the HTTP front end: accept, refuse, backlog shedding."""

import pytest

from repro.net.fabric import Fabric
from repro.net.packet import Frame
from repro.osim.node import Node
from repro.press.http import HttpPort, HttpRequest
from repro.sim.engine import Engine


def build(accept_backlog=128, parse_cost=0.01):
    e = Engine()
    fabric = Fabric(e)
    node = Node(e, "s0", fabric.attach("s0"))
    node.process.start()
    client_nic = fabric.attach("c0")
    got = {"resp": [], "reject": []}
    client_nic.register("http-resp", lambda f: got["resp"].append(f.payload))
    client_nic.register("http-reject", lambda f: got["reject"].append(f.payload))
    handled = []
    port = HttpPort(e, node, parse_cost, handled.append,
                    accept_backlog=accept_backlog)
    return e, node, client_nic, port, handled, got


def send_req(e, client_nic, file_id="f1"):
    req = HttpRequest.fresh(e, "c0", file_id)
    client_nic.send(
        Frame(src="c0", dst="s0", size=300, kind="http-req", payload=req)
    )
    return req


def test_request_parsed_then_handled():
    e, node, client, port, handled, got = build()
    req = send_req(e, client)
    e.run(until=1.0)
    assert [r.req_id for r in handled] == [req.req_id]
    assert port.accepted == 1


def test_dead_process_refuses_immediately():
    e, node, client, port, handled, got = build()
    node.process.exit("crash")
    req = send_req(e, client)
    e.run(until=1.0)
    assert handled == []
    assert got["reject"] == [req.req_id]
    assert port.refused == 1


def test_hung_process_accepts_but_does_not_serve():
    e, node, client, port, handled, got = build()
    node.process.sigstop()
    send_req(e, client)
    e.run(until=1.0)
    assert handled == []
    assert got["reject"] == []
    node.process.sigcont()
    e.run(until=2.0)
    assert len(handled) == 1


def test_backlog_overflow_sheds_load():
    e, node, client, port, handled, got = build(accept_backlog=3, parse_cost=10.0)
    for _ in range(8):
        send_req(e, client)
    e.run(until=1.0)
    assert port.refused >= 4
    assert len(got["reject"]) == port.refused


def test_send_response_reaches_client():
    e, node, client, port, handled, got = build()
    req = send_req(e, client)
    e.run(until=1.0)
    port.send_response(req, 1024)
    e.run(until=2.0)
    assert got["resp"] == [req.req_id]


def test_request_ids_monotone():
    e = Engine()
    a = HttpRequest.fresh(e, "c", "f")
    b = HttpRequest.fresh(e, "c", "f")
    assert b.req_id > a.req_id
    # Ids belong to the engine: a new one starts its stream afresh.
    assert HttpRequest.fresh(Engine(), "c", "f").req_id == a.req_id
