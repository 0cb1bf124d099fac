"""The per-request finite state machine.

The paper: "One can envision our kernel module as maintaining a finite
state machine for each socket; transitioning between states is based
on the socket calls that libpvfs makes on that node and the incoming
messages from the corresponding iods."

The FSM tracks each intercepted request through lookup, request
splitting, the locally *faked acknowledgements* (libpvfs believes the
iods acked immediately), data arrival and the final copy to user
space.  Illegal transitions raise — the tests drive every legal path
and assert the illegal ones fail.
"""

from __future__ import annotations

import enum

from repro.sim import Environment


class FSMState(enum.Enum):
    """States a request walks through inside the module."""

    IDLE = "idle"
    LOOKUP = "lookup"
    REQUESTS_ISSUED = "requests-issued"
    ACK_FAKED = "ack-faked"
    AWAIT_DATA = "await-data"
    COPY = "copy"
    DONE = "done"

    #: Legal next states (an annotation, not a member; filled in from
    #: ``TRANSITIONS`` below).
    successors: "tuple[FSMState, ...]"


#: Legal transitions.  A fully-hit request jumps LOOKUP -> COPY; a
#: request with misses walks the full chain.
TRANSITIONS: dict[FSMState, tuple[FSMState, ...]] = {
    FSMState.IDLE: (FSMState.LOOKUP,),
    FSMState.LOOKUP: (
        FSMState.REQUESTS_ISSUED, FSMState.COPY, FSMState.DONE
    ),
    FSMState.REQUESTS_ISSUED: (FSMState.ACK_FAKED,),
    FSMState.ACK_FAKED: (FSMState.AWAIT_DATA,),
    FSMState.AWAIT_DATA: (FSMState.COPY,),
    FSMState.COPY: (FSMState.DONE,),
    FSMState.DONE: (),
}

# Mirrored onto the members so the per-transition check is an attribute
# load and an identity scan: hashing an Enum (dict key, frozenset
# member) runs the Python-level ``Enum.__hash__`` every time.
for _state, _successors in TRANSITIONS.items():
    _state.successors = _successors


class IllegalTransition(RuntimeError):
    """Raised on a transition the FSM's state graph forbids."""
    pass


class RequestFSM:
    """State tracker for one intercepted read/write request."""

    __slots__ = ("env", "state", "trace", "faked_acks", "split_requests")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.state = FSMState.IDLE
        #: (state, simulated time) history, for tests and debugging.
        self.trace: list[tuple[FSMState, float]] = [(FSMState.IDLE, env.now)]
        #: How many iod acknowledgements were faked locally.
        self.faked_acks = 0
        #: How many extra requests were issued because a cached block
        #: sat in the middle of a contiguous run.
        self.split_requests = 0

    def to(self, state: FSMState) -> None:
        """Transition to ``state`` (raises IllegalTransition)."""
        if state not in self.state.successors:
            raise IllegalTransition(
                f"illegal transition {self.state.value} -> {state.value}"
            )
        self.state = state
        self.trace.append((state, self.env.now))

    def fake_ack(self, n: int = 1) -> None:
        """Record locally faked iod acknowledgements."""
        if self.state is not FSMState.ACK_FAKED:
            raise IllegalTransition(
                f"cannot fake acks in state {self.state.value}"
            )
        self.faked_acks += n

    @property
    def is_done(self) -> bool:
        """True once the request reached DONE."""
        return self.state is FSMState.DONE

    def states_visited(self) -> list[FSMState]:
        """States in visit order (from the trace)."""
        return [s for s, _ in self.trace]
