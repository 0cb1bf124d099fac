"""Cluster network substrate.

Models the paper's platform: 100 Mbps Ethernet NICs wired through a
single shared *hub* (a Linksys Etherfast 16-port hub in the paper).  A
hub — unlike a switch — is one collision domain, so all concurrent
transfers share the 100 Mbps medium.  We model that by serialising
frame transmissions through one FIFO medium resource; large messages
are fragmented so concurrent flows interleave fairly.

On top of the raw medium, :mod:`repro.net.sockets` provides the
stream-socket abstraction that ``libpvfs`` uses and that the paper's
kernel cache module intercepts.
"""

from repro.net.fabric import Fabric, SharedHubFabric, SwitchedFabric
from repro.net.message import Message
from repro.net.network import Network
from repro.net.sockets import Connection, Endpoint, ListenQueue, SocketAPI

__all__ = [
    "Connection",
    "Endpoint",
    "Fabric",
    "ListenQueue",
    "Message",
    "Network",
    "SharedHubFabric",
    "SocketAPI",
    "SwitchedFabric",
]
