"""``repro.simmpi`` — discrete-event MPI runtime simulator (substrate).

Implements the paper's system model: a finite set of processes connected by
reliable FIFO channels, asynchronous delivery with unbounded delay, fail-stop
failures.  See DESIGN.md §3 for the module map.
"""

from .api import ANY_SOURCE, ANY_TAG, MpiApi
from .engine import Engine
from .failure import FailureInjector
from .message import Envelope
from .network import Network, TimingModel
from .process import NullHook, Proc, ProtocolHook
from .runtime import World
from .topology import CartGrid, balanced_dims
from .trace import SendRecord, Tracer

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MpiApi",
    "Engine",
    "FailureInjector",
    "Envelope",
    "Network",
    "TimingModel",
    "NullHook",
    "Proc",
    "ProtocolHook",
    "World",
    "CartGrid",
    "balanced_dims",
    "SendRecord",
    "Tracer",
]
