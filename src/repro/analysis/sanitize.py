"""Runtime sanitizer for the cache module's concurrent structures.

The paper's buffer manager is a concurrent kernel subsystem — hash
table, free list and dirty list under fine-grained locks, with a
flusher and a harvester racing the application processes.  Our
reproduction models that concurrency with cooperative generator
processes, so the analogues of kernel races are (a) *accounting drift*
between the free list, the dirty list, the hash table and per-block
pin counts, and (b) *interleaved mutation* of a structure across a
``yield`` inside a region the author believed was atomic.

This module provides both checkers, opt-in via ``REPRO_SANITIZE=1``:

* :class:`CacheSanitizer` — installed into a
  :class:`~repro.cache.manager.BufferManager` at construction, it
  re-validates the global block-accounting invariant at every Nth
  scheduler step (``REPRO_SANITIZE_EVERY``, default 32) and raises
  :class:`InvariantViolation` with a full diagnostic when the
  structures disagree.

* :func:`atomic_section` — a lightweight context manager declaring
  "no other process may mutate these structures while this section is
  open".  Entering records a per-structure generation stamp; leaving
  re-checks it.  A mutation by a *different* simulation process in
  between raises :class:`RaceDiagnostic` naming both processes — the
  cooperative-sim analogue of a lock-order / data-race report.  When
  the sanitizer is not installed the call returns a shared no-op
  section, so production call sites cost one function call and an
  attribute probe.

Mutation tracking never touches the structures' hot paths: installing
the sanitizer shadows the mutating *bound methods on the instances*
(``insert``/``remove``/``add``/``discard``/...), so with sanitizing
off the structure classes run exactly the code they always ran.
"""

from __future__ import annotations

import os
import typing as _t

from repro.analysis.reset import register_reset

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.manager import BufferManager
    from repro.sim.engine import Environment

#: Master switch: truthy value enables the sanitizer for every
#: BufferManager constructed afterwards.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

#: Check cadence: validate invariants every Nth processed event.
#: ``1`` checks at every scheduler step.
EVERY_ENV_VAR = "REPRO_SANITIZE_EVERY"

#: When set to a file path (before import, or before a
#: ``reset_all()``), every executed ``atomic_section`` appends its
#: label there (first hit per label per reset).  ``python -m
#: repro.analysis flow --runtime-coverage FILE`` then reports the
#: statically known sections the run never reached.
COVERAGE_ENV_VAR = "REPRO_ATOMIC_COVERAGE_FILE"

DEFAULT_CHECK_EVERY = 32

#: Labels already appended to the coverage file — a write-dedup cache
#: only (duplicates in the file are harmless; the reader de-dups).
_covered_labels: set[str] = set()

#: ``COVERAGE_ENV_VAR`` as of import or the last ``reset_all()``:
#: ``atomic_section`` sits on the miss path, too hot for an
#: ``os.environ`` read per call.
_coverage_path = os.environ.get(COVERAGE_ENV_VAR)


@register_reset
def _reset_coverage() -> None:
    global _covered_labels, _coverage_path
    _covered_labels = set()
    _coverage_path = os.environ.get(COVERAGE_ENV_VAR)


def _record_coverage(label: str) -> None:
    if label in _covered_labels:
        return
    _covered_labels.add(label)
    with open(_coverage_path, "a") as fh:
        fh.write(label + "\n")


class InvariantViolation(AssertionError):
    """The cache structures disagree about a block's state."""


class RaceDiagnostic(AssertionError):
    """A declared-atomic section was interleaved with a mutation.

    Carries both simulation process names: the one holding the
    section and the one that mutated the structure mid-section.
    """

    def __init__(
        self, structure: str, holder: str, mutator: str, label: str
    ) -> None:
        super().__init__(
            f"atomic section {label!r} held by process {holder!r} was "
            f"interleaved: {structure} was mutated by process "
            f"{mutator!r} before the section closed"
        )
        self.structure = structure
        self.holder = holder
        self.mutator = mutator
        self.label = label


def is_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests sanitizing."""
    return os.environ.get(SANITIZE_ENV_VAR, "") not in ("", "0")


def check_every() -> int:
    """The configured check cadence (events per invariant sweep)."""
    raw = os.environ.get(EVERY_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_CHECK_EVERY
    value = int(raw)
    if value < 1:
        raise ValueError(f"{EVERY_ENV_VAR} must be >= 1, got {value}")
    return value


# -- mutation tracking ---------------------------------------------------


class MutationTracker:
    """Per-structure generation stamps plus last-mutator identity."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: id(structure) -> generation counter.
        self._gens: dict[int, int] = {}
        #: id(structure) -> (generation, mutator process name).
        self._last: dict[int, tuple[int, str]] = {}
        #: id(structure) -> human-readable structure label.
        self._labels: dict[int, str] = {}

    def _process_name(self) -> str:
        active = self.env.active_process
        return active.name if active is not None else "<scheduler>"

    def track(self, structure: object, label: str) -> None:
        """Start tracking ``structure`` under ``label``."""
        key = id(structure)
        self._gens.setdefault(key, 0)
        self._labels[key] = label

    def note(self, structure: object) -> None:
        """Record one mutation of ``structure`` by the active process."""
        key = id(structure)
        gen = self._gens.get(key, 0) + 1
        self._gens[key] = gen
        self._last[key] = (gen, self._process_name())

    def generation(self, structure: object) -> int:
        """Current generation stamp of ``structure``."""
        return self._gens.get(id(structure), 0)

    def last_mutator(self, structure: object) -> str:
        """Process name that performed the latest mutation."""
        last = self._last.get(id(structure))
        return last[1] if last is not None else "<never>"

    def label(self, structure: object) -> str:
        """Display label of ``structure``."""
        return self._labels.get(
            id(structure), type(structure).__name__
        )


def _wrap_mutators(
    tracker: MutationTracker, structure: object, method_names: _t.Sequence[str]
) -> None:
    """Shadow mutating methods on the *instance* with noting wrappers."""
    for name in method_names:
        original = getattr(structure, name)

        def wrapper(
            *args: _t.Any,
            _original: _t.Callable = original,
            _structure: object = structure,
            **kwargs: _t.Any,
        ) -> _t.Any:
            tracker.note(_structure)
            return _original(*args, **kwargs)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(structure, name, wrapper)


# -- atomic sections -----------------------------------------------------


class _NullSection:
    """Shared no-op section used while sanitizing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SECTION = _NullSection()


class _AtomicSection:
    """Armed section: compares generation stamps on entry and exit."""

    __slots__ = ("_tracker", "_structures", "_label", "_entry", "_holder")

    def __init__(
        self,
        tracker: MutationTracker,
        structures: tuple[object, ...],
        label: str,
    ) -> None:
        self._tracker = tracker
        self._structures = structures
        self._label = label
        self._entry: dict[int, int] = {}
        self._holder = ""

    def __enter__(self) -> "_AtomicSection":
        self._holder = self._tracker._process_name()
        self._entry = {
            id(s): self._tracker.generation(s) for s in self._structures
        }
        return self

    def check(self) -> None:
        """Raise if a foreign process mutated a structure mid-section.

        Mutations by the holding process itself are the section doing
        its job and are folded into the baseline.
        """
        tracker = self._tracker
        for structure in self._structures:
            gen = tracker.generation(structure)
            if gen == self._entry[id(structure)]:
                continue
            mutator = tracker.last_mutator(structure)
            if mutator != self._holder:
                raise RaceDiagnostic(
                    tracker.label(structure),
                    self._holder,
                    mutator,
                    self._label,
                )
            self._entry[id(structure)] = gen

    def __exit__(self, exc_type: object, *exc: object) -> bool:
        if exc_type is None:
            self.check()
        return False


def atomic_section(
    *structures: object, label: str = "atomic"
) -> "_AtomicSection | _NullSection":
    """Declare a critical section over ``structures``.

    With the sanitizer installed on the structures' owner, returns an
    armed section that raises :class:`RaceDiagnostic` when another
    process mutates any of them before the section closes.  Without
    it, returns a shared no-op — cheap enough for miss-path call
    sites.
    """
    if _coverage_path:
        _record_coverage(label)
    tracker = (
        getattr(structures[0], "_san_tracker", None) if structures else None
    )
    if tracker is None:
        return _NULL_SECTION
    return _AtomicSection(tracker, structures, label)


# -- the invariant checker ----------------------------------------------


class CacheSanitizer:
    """Validates the buffer manager's global accounting invariant.

    The invariant, stated against the paper's structures:

    * every frame is in exactly one of the *free* and *hashed* states
      (FREE frames carry no identity and never sit in the hash table;
      PENDING/CLEAN/DIRTY frames are keyed and chained exactly once);
    * a frame is DIRTY if and only if it is on the dirty list;
    * pin counts ("refcounts" held by in-progress copies) are never
      negative, and FREE frames are never pinned;
    * the clock hand stays inside the ring, and the replacement
      policy tracks exactly the resident frames;
    * in-flight allocation reservations resolve: a reserved key is
      not yet resident and its reservation event has not fired;
    * free-list accounting never exceeds the number of FREE frames.
    """

    def __init__(self, manager: "BufferManager") -> None:
        self.manager = manager
        self.tracker = MutationTracker(manager.env)
        self.check_interval = check_every()
        self._countdown = self.check_interval
        self.checks_run = 0
        self._install()

    # -- wiring ----------------------------------------------------------
    def _install(self) -> None:
        manager = self.manager
        tracker = self.tracker
        name = manager.name
        structures: list[tuple[object, str, tuple[str, ...]]] = [
            (manager.table, f"{name}.table", ("insert", "remove")),
            (
                manager.dirtylist,
                f"{name}.dirtylist",
                ("add", "discard", "drain"),
            ),
            (
                manager.freelist,
                f"{name}.freelist",
                ("acquire", "acquire_now", "release"),
            ),
            (manager.policy, f"{name}.policy", ("admit", "forget")),
        ]
        for structure, label, methods in structures:
            tracker.track(structure, label)
            _wrap_mutators(tracker, structure, methods)
            structure._san_tracker = tracker  # type: ignore[attr-defined]
        manager._san_tracker = tracker  # type: ignore[attr-defined]
        manager.env.add_step_hook(self._on_step)

    def uninstall(self) -> None:
        """Detach the step hook (tests tearing an env down manually)."""
        try:
            self.manager.env.remove_step_hook(self._on_step)
        except ValueError:
            pass

    def _on_step(self, env: "Environment") -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.check_interval
            self.check()

    # -- the invariant ----------------------------------------------------
    def _fail(self, message: str) -> _t.NoReturn:
        manager = self.manager
        raise InvariantViolation(
            f"[{manager.name} @ t={manager.env.now:.9f}] {message}"
        )

    def check(self) -> None:
        """Validate every invariant once (raises InvariantViolation)."""
        # Deferred import: repro.cache imports this module (the
        # manager installs the sanitizer), so a top-level import of
        # repro.cache.block here would be circular.
        from repro.cache.block import BlockState

        self.checks_run += 1
        manager = self.manager
        table = manager.table
        resident: dict[int, object] = {}
        for block in table.blocks():
            if id(block) in resident:
                self._fail(f"{block!r} chained twice in the hash table")
            resident[id(block)] = block
            if block.key is None:
                self._fail(f"{block!r} is in the hash table without a key")
            if table.get(block.key) is not block:
                self._fail(
                    f"{block!r} is chained under a bucket its key does "
                    "not hash to (or its key is duplicated)"
                )
            if block.state is BlockState.FREE:
                self._fail(f"FREE block {block!r} is in the hash table")
        if len(table) != len(resident):
            self._fail(
                f"hash table size {len(table)} != chained blocks "
                f"{len(resident)}"
            )

        freelist = manager.freelist
        store_items = list(freelist._store._items)
        store_ids = {id(b) for b in store_items}
        if len(store_ids) != len(store_items):
            self._fail("free list stores the same block twice")
        n_free_state = 0
        for block in manager.blocks:
            if block.pins < 0:
                self._fail(f"negative pin count on {block!r}")
            in_table = id(block) in resident
            if block.state is BlockState.FREE:
                n_free_state += 1
                if in_table:
                    self._fail(f"FREE block {block!r} is also resident")
                if block.pins:
                    self._fail(f"FREE block {block!r} is pinned")
                if block.key is not None:
                    self._fail(f"FREE block {block!r} still has a key")
            else:
                if not in_table:
                    self._fail(
                        f"{block.state.value} block {block!r} is not in "
                        "the hash table"
                    )
                if id(block) in store_ids:
                    self._fail(
                        f"resident block {block!r} is also on the free list"
                    )
            is_dirty = block.state is BlockState.DIRTY
            on_dirty = block in manager.dirtylist
            if is_dirty and not on_dirty:
                self._fail(f"DIRTY block {block!r} is not on the dirty list")
            if on_dirty and not is_dirty:
                self._fail(
                    f"{block.state.value} block {block!r} is on the "
                    "dirty list"
                )
            if (
                block.doomed
                and block.pins == 0
                and block.state is not BlockState.PENDING
            ):
                # PENDING is exempt: a coherence invalidation that
                # races an in-flight fetch dooms the block and lets
                # the fetch finish; the drop happens at make_ready
                # (unpinned prefetches) or at the last unpin.
                self._fail(
                    f"doomed block {block!r} survived its last unpin"
                )
        if n_free_state + len(resident) != len(manager.blocks):
            self._fail(
                f"frames leak: {n_free_state} free + {len(resident)} "
                f"resident != {len(manager.blocks)} total"
            )
        if len(store_items) > n_free_state:
            self._fail(
                f"free list holds {len(store_items)} blocks but only "
                f"{n_free_state} frames are FREE"
            )
        if max(0, freelist._count) > n_free_state:
            self._fail(
                f"free list count {freelist._count} exceeds FREE frames "
                f"{n_free_state}"
            )

        self._check_policy(resident)

        for key, reservation in manager._inflight.items():
            if table.get(key) is not None:
                self._fail(
                    f"in-flight reservation for {key} but the key is "
                    "already resident"
                )
            # ``None``: no rival has asked to wait yet (the first
            # waiter materialises the event).
            if reservation is not None and reservation.triggered:
                self._fail(
                    f"in-flight reservation for {key} already fired but "
                    "was not removed"
                )

    def _check_policy(self, resident: dict[int, object]) -> None:
        policy = self.manager.policy
        ring = getattr(policy, "_ring", None)
        if ring is not None:  # ClockPolicy
            hand = policy._hand
            if ring:
                if not 0 <= hand < len(ring):
                    self._fail(
                        f"clock hand {hand} outside ring of {len(ring)}"
                    )
            elif hand != 0:
                self._fail(f"clock hand {hand} nonzero on an empty ring")
            tracked = {id(b) for b in ring}
            if len(tracked) != len(ring):
                self._fail("clock ring tracks a block twice")
        else:  # ExactLRUPolicy
            tracked = {id(b) for b in policy._order}
        if tracked != set(resident):
            missing = len(set(resident) - tracked)
            extra = len(tracked - set(resident))
            self._fail(
                "replacement policy out of sync with the hash table "
                f"({missing} resident untracked, {extra} stale entries)"
            )


def maybe_install(manager: "BufferManager") -> CacheSanitizer | None:
    """Install a sanitizer when ``REPRO_SANITIZE`` asks for one."""
    if not is_enabled():
        return None
    return CacheSanitizer(manager)
