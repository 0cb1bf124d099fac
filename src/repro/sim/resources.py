"""Shared-resource primitives: counting resources, locks, FIFO stores.

These model contention points in the simulated cluster: a switch port
or a disk arm is a :class:`Resource`, the cache module's per-bucket
locks are :class:`Lock` objects, and every daemon's request queue is a
:class:`Store`.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Usable as a context manager so the common pattern reads::

        with resource.request() as req:
            yield req
            ... hold the resource ...
        # released on exit
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)

    def cancel(self) -> None:
        """Withdraw the claim (before or after it was granted)."""
        self.resource.release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: object) -> None:
        self.cancel()


class Resource:
    """A counting resource with FIFO granting.

    ``capacity`` concurrent holders are allowed; further requests queue.
    """

    __slots__ = ("env", "capacity", "_holders", "_waiting")

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._holders: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        return Request(self)

    def acquire_now(self) -> Request | None:
        """Claim one unit synchronously, or ``None`` if it would queue.

        The switched fabric's single-frame fast path (DESIGN.md §14)
        uses this to take idle ports without a grant event nobody
        yields.  The returned request is born granted and processed —
        nothing is scheduled, so the grant leaves no trace-visible
        events — and is released via :meth:`release` (or ``with``)
        exactly like an ordinary request.  Refused whenever anyone is
        waiting, so FIFO fairness against queued requests is preserved.
        """
        if self._waiting or len(self._holders) >= self.capacity:
            return None
        req = Request.__new__(Request)
        req.env = self.env
        req.callbacks = None  # processed from birth: no event fires
        req._value = self
        req._ok = True
        req.resource = self
        self._holders.add(req)
        return req

    def release(self, request: Request) -> None:
        """Return a unit claimed by ``request``.

        Safe to call for a request that was never granted (it is
        removed from the wait queue) and idempotent for an
        already-released one.
        """
        if request in self._holders:
            self._holders.remove(request)
            self._grant_next()
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass  # already released / never queued: idempotent

    # -- internals ---------------------------------------------------------
    def _enqueue(self, request: Request) -> None:
        self._waiting.append(request)
        self._grant_next()

    def _grant_next(self) -> None:
        while self._waiting and len(self._holders) < self.capacity:
            nxt = self._waiting.popleft()
            self._holders.add(nxt)
            nxt.succeed(self)


class Lock(Resource):
    """A mutex: a :class:`Resource` of capacity one.

    The cache module uses one per hash bucket plus one each for the
    free and dirty lists, mirroring the paper's fine-grained locking.
    """

    __slots__ = ()

    def __init__(self, env: "Environment") -> None:
        super().__init__(env, capacity=1)

    @property
    def locked(self) -> bool:
        """True while someone holds the mutex."""
        return self.count > 0


class StoreGet(Event):
    """Event granted when an item becomes available."""

    __slots__ = ()


class StorePut(Event):
    """Event granted when the queued item is admitted."""

    __slots__ = ()


class Store:
    """An unbounded-or-bounded FIFO queue of Python objects.

    ``put`` fires immediately while below capacity, otherwise when
    space frees up; ``get`` fires when an item is available.  Used as
    the mailbox of every simulated daemon and kernel thread.
    """

    __slots__ = ("env", "capacity", "_items", "_getters", "_putters")

    def __init__(
        self, env: "Environment", capacity: float = float("inf")
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: deque[_t.Any] = deque()
        self._getters: deque[StoreGet] = deque()
        self._putters: deque[tuple[StorePut, _t.Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (for inspection in tests)."""
        return tuple(self._items)

    def put(self, item: _t.Any) -> StorePut:
        """Queue an item; the event fires when admitted."""
        event = StorePut(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def put_nowait(self, item: _t.Any) -> None:
        """Queue an item without an admission event.

        For producers that never wait on the :class:`StorePut` (the
        cache free list): the item is admitted and handed to a waiting
        getter exactly as :meth:`put` would, minus the event nobody
        observes.  Only legal while the store has room.
        """
        if self._putters or len(self._items) >= self.capacity:
            raise RuntimeError("put_nowait on a full store")
        if self._getters:
            # Getters only queue on an empty store, so FIFO order holds.
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get_nowait(self) -> _t.Any:
        """Take the head item without a :class:`StoreGet` event.

        The consumer-side twin of :meth:`put_nowait`, for a caller that
        has already accounted for the step the get would have taken
        (:meth:`~repro.sim.engine.Environment.take_turn`).  Only legal
        while items are queued and nobody waits.
        """
        if self._getters or not self._items:
            raise RuntimeError("get_nowait on an empty store")
        return self._items.popleft()

    def get(self) -> StoreGet:
        """Request an item; the event fires with it."""
        event = StoreGet(self.env)
        if self._items and not self._getters and not self._putters:
            # What _dispatch would do: hand over the head item.
            event.succeed(self._items.popleft())
            return event
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit queued puts while there is room.
            if self._putters and len(self._items) < self.capacity:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event.succeed()
                progressed = True
            # Satisfy getters from items.
            if self._getters and self._items:
                get_event = self._getters.popleft()
                get_event.succeed(self._items.popleft())
                progressed = True
