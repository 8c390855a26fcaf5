"""Simulated kernel TCP: byte streams, retransmission, skbuf dependence."""

from .connection import StreamRecord, TcpEndpoint
from .params import DEFAULT_TCP_PARAMS, TcpParams
from .transport import TcpTransport

__all__ = [
    "TcpTransport",
    "TcpEndpoint",
    "TcpParams",
    "DEFAULT_TCP_PARAMS",
    "StreamRecord",
]
