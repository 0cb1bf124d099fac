"""The service runtime for the discrete-event cluster.

One substrate for every simulated daemon: lifecycle
(``start/drain/stop``), typed message dispatch, RPC correlation, and
structured instrumentation.  See DESIGN.md §11.
"""

from repro.svc.events import (
    InstrumentationBus,
    ServiceEvent,
    ServiceStats,
    get_bus,
)
from repro.svc.rpc import Call, ChannelPool, PendingCallLeak, RpcChannel
from repro.svc.service import (
    Service,
    ServiceCrashed,
    ServiceState,
    StopReport,
    handles,
)

__all__ = [
    "Call",
    "ChannelPool",
    "InstrumentationBus",
    "PendingCallLeak",
    "RpcChannel",
    "Service",
    "ServiceCrashed",
    "ServiceEvent",
    "ServiceState",
    "ServiceStats",
    "StopReport",
    "get_bus",
    "handles",
]
