"""The shared-state registry the flow analyzer is anchored on.

A structure is *shared state* when more than one simulation process
mutates it: the block hash table, the CLOCK ring and hand, the dirty
and free lists, the iods' sharer directory (runs of blocks per file
and node), the writeback throttle counter.  The runtime sanitizer
already guards some of these dynamically
(``repro.analysis.sanitize``); the static flow analyzer
(``repro.analysis.flow``) needs to know *which attribute names* to
track without executing anything, so classes declare them here:

    @shared_state("table", "freelist", "dirtylist", "policy")
    class BufferManager: ...

At runtime the decorator is a no-op apart from recording the names on
the class (``__shared_state__``), which lets tests and tooling
introspect the declarations.  The static analyzer never imports the
decorated module — it reads the decorator call out of the AST — so
the declaration **must** use plain string literals, not computed
values.

Declarations are inherited and unioned: a subclass decorated with
additional names guards both its own and its bases' structures.
"""

from __future__ import annotations

import typing as _t

_T = _t.TypeVar("_T", bound=type)

#: Method names treated as *mutations* of the structure they are
#: called on.  The flow analyzer classifies ``self.table.insert(...)``
#: as a WRITE of ``table`` because ``insert`` appears here, and as a
#: READ otherwise (``self.table.get(...)``).  Kept intentionally
#: generic — names are matched per call site, not per class.
MUTATING_METHODS = frozenset(
    {
        "acquire",
        "acquire_now",
        "add",
        "admit",
        "append",
        "appendleft",
        "clear",
        "discard",
        "drain",
        "extend",
        "forget",
        "insert",
        "invalidate",
        "mark_clean",
        "mark_dirty",
        "note",
        "pop",
        "popitem",
        "popleft",
        "push",
        "put",
        "release",
        "remove",
        "reset",
        "setdefault",
        "sort",
        "succeed",
        "touch",
        "update",
    }
)


def shared_state(*attrs: str) -> _t.Callable[[_T], _T]:
    """Class decorator declaring shared-state attribute names.

    ``attrs`` are instance-attribute names (as they appear after
    ``self.``) of structures mutated by more than one process.  The
    decorator records them on the class as ``__shared_state__`` and
    returns the class unchanged.
    """
    if not attrs:
        raise TypeError("shared_state() needs at least one attribute name")
    for attr in attrs:
        if not isinstance(attr, str) or not attr.isidentifier():
            raise TypeError(
                f"shared_state() attribute names must be identifier "
                f"string literals, got {attr!r}"
            )

    def decorate(cls: _T) -> _T:
        inherited: frozenset[str] = frozenset()
        for base in cls.__mro__[1:]:
            inherited |= frozenset(base.__dict__.get("__shared_state__", ()))
        cls.__shared_state__ = inherited | frozenset(attrs)
        return cls

    return decorate


def declared_shared(cls: type) -> frozenset[str]:
    """The shared-state attribute names declared on ``cls`` (and,
    through decorator-time union, its bases)."""
    return frozenset(getattr(cls, "__shared_state__", ()))
