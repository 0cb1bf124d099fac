"""The workload trace IR: a serializable, versioned request-stream format.

The paper closes by noting "there is a lack of benchmarks containing
groups of applications sharing data".  Traces are the practical
substitute, and this module makes them a first-class currency for the
whole stack: every driver can *record* its request stream
(:mod:`repro.workload.record`) and *replay* it deterministically
against a different cluster configuration
(:mod:`repro.workload.replay`).

Event model
-----------

A :class:`TraceEvent` is one I/O request: ``(time, process, path, op,
offset, nbytes)`` plus workload tags (``app``, ``instance``), an
optional closed-loop think time (``think_s``), and a strided/list-I/O
shape (``stride``, ``count``) after the noncontiguous request patterns
of parallel applications (cf. arXiv:cs/0207096): a request with
``count > 1`` touches ``count`` ranges of ``nbytes`` each, spaced
``stride`` bytes apart.  ``count == 1`` is the ordinary contiguous
request.

The op is one of ``read``, ``write`` and ``sync_write`` (the spelling
the metrics use, ``client.sync_writes``); any other spelling is a
:class:`TraceFormatError`.

Serialization
-------------

The native format is versioned JSONL: a header object followed by one
JSON object per event::

    {"format": "repro-trace", "version": 2, "events": 2, "meta": {}}
    {"time": 0.0, "process": "app-a", "path": "/shared", "op": "read",
     "offset": 0, "nbytes": 4096}
    {"time": 0.001, "process": "app-a", "path": "/shared", "op": "read",
     "offset": 65536, "nbytes": 4096, "stride": 16384, "count": 4}

Event fields at their defaults are omitted.  The header's ``events``
count makes truncation detectable.  A file that is not this format
(a CSV table, another version) is a :class:`TraceFormatError` at its
header line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import sys
import typing as _t

#: Format marker in the JSONL header line.
TRACE_FORMAT = "repro-trace"

#: The trace IR version this build reads and writes.
TRACE_VERSION = 2

#: Canonical operation names of the IR.
CANONICAL_OPS = ("read", "write", "sync_write")

#: The fields every event must carry.
REQUIRED_FIELDS = ("time", "process", "path", "op", "offset", "nbytes")


class TraceFormatError(ValueError):
    """A trace file or event failed validation."""


_INF = math.inf


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class TraceEvent:
    """One I/O request of a workload trace.

    Slotted: long traces hold hundreds of thousands of these, and a
    per-event ``__dict__`` more than doubles their footprint.
    """

    time: float
    process: str
    path: str
    op: str  # one of CANONICAL_OPS
    offset: int
    nbytes: int
    #: Application tag (e.g. "microbench", "miner") — which program
    #: issued the request.
    app: str = ""
    #: Application-instance id (multiprogrammed workloads).
    instance: int = 0
    #: Closed-loop think time before issuing the request; honored by
    #: the replayer when original arrival times are not preserved.
    think_s: float = 0.0
    #: Strided/list-I/O shape: ``count`` ranges of ``nbytes`` each,
    #: range *i* starting at ``offset + i * stride``.  ``count == 1``
    #: is a plain contiguous request (``stride`` ignored).
    stride: int = 0
    count: int = 1

    def __init__(
        self,
        time: float,
        process: str,
        path: str,
        op: str,
        offset: int,
        nbytes: int,
        app: str = "",
        instance: int = 0,
        think_s: float = 0.0,
        stride: int = 0,
        count: int = 1,
    ) -> None:
        # Hand-written: the generated one pays a second frame, for
        # ``__post_init__``, on every request generated or loaded.  The
        # ``_put_*`` setters are bound below the class.
        _put_time(self, time)
        _put_process(self, process)
        _put_path(self, path)
        _put_op(self, op)
        _put_offset(self, offset)
        _put_nbytes(self, nbytes)
        _put_app(self, app)
        _put_instance(self, instance)
        _put_think_s(self, think_s)
        _put_stride(self, stride)
        _put_count(self, count)
        if (
            op in CANONICAL_OPS
            and -_INF < time < _INF
            and offset >= 0
            and nbytes >= 0
            and 0 <= think_s < _INF
            and (count == 1 or (count > 1 and stride >= nbytes))
        ):
            return
        self._validate()

    def _validate(self) -> None:
        """The checks one at a time, for the precise message."""
        if self.op not in CANONICAL_OPS:
            raise TraceFormatError(
                f"unknown op {self.op!r}; canonical ops are {CANONICAL_OPS}"
            )
        if not math.isfinite(self.time):
            raise TraceFormatError(f"non-finite event time {self.time!r}")
        if self.offset < 0 or self.nbytes < 0:
            raise TraceFormatError(
                f"bad geometry offset={self.offset} nbytes={self.nbytes}"
            )
        if self.think_s < 0:
            raise TraceFormatError(f"negative think_s {self.think_s}")
        if not math.isfinite(self.think_s):
            raise TraceFormatError(f"non-finite think_s {self.think_s!r}")
        if self.count < 1:
            raise TraceFormatError(f"count must be >= 1, got {self.count}")
        if self.count > 1 and self.stride < self.nbytes:
            raise TraceFormatError(
                f"strided event needs stride >= nbytes, got "
                f"stride={self.stride} nbytes={self.nbytes}"
            )

    # -- shape ------------------------------------------------------------
    @property
    def is_list(self) -> bool:
        """True for strided/list-I/O requests (count > 1)."""
        return self.count > 1

    @property
    def ranges(self) -> list[tuple[int, int]]:
        """The (offset, nbytes) ranges the request touches."""
        return [
            (self.offset + i * self.stride, self.nbytes)
            for i in range(self.count)
        ]

    @property
    def total_bytes(self) -> int:
        """Payload bytes across all ranges."""
        return self.nbytes * self.count

    @property
    def end_offset(self) -> int:
        """One past the last byte the request touches."""
        if self.count == 1:
            return self.offset + self.nbytes
        return self.offset + (self.count - 1) * self.stride + self.nbytes

    # -- serialization ---------------------------------------------------
    def to_json(self) -> dict[str, _t.Any]:
        """The event as a JSON-ready dict (defaults omitted).

        Keys are inserted in sorted order, so serializers need no
        ``sort_keys`` pass to produce the canonical bytes.
        """
        obj: dict[str, _t.Any] = {}
        if self.app:
            obj["app"] = self.app
        if self.count > 1:
            obj["count"] = self.count
        if self.instance:
            obj["instance"] = self.instance
        obj["nbytes"] = self.nbytes
        obj["offset"] = self.offset
        obj["op"] = self.op
        obj["path"] = self.path
        obj["process"] = self.process
        if self.count > 1:
            obj["stride"] = self.stride
        if self.think_s:
            obj["think_s"] = self.think_s
        obj["time"] = self.time
        return obj

    @classmethod
    def from_json(
        cls,
        obj: _t.Any,
        line_no: int | None = None,
        numbers: "_Numbers | None" = None,
    ) -> "TraceEvent":
        """Parse one event object (strict on required fields/types).

        Integer fields take an ``int`` or an integral-valued ``float``
        (``4096.0``); a ``bool``, a fractional float or a string is an
        error, never a silent truncation.  Strings are interned: a
        decoded trace would otherwise carry a private copy of every
        process, path, op and app name per event.  So are the
        ``time``, ``offset``, ``nbytes`` and ``stride`` numbers when a
        loader passes its ``numbers`` memo (see :class:`_Numbers`).
        """
        intern = sys.intern
        floats, ints = numbers or _Numbers({}, {})
        try:
            time = obj["time"]
            process = obj["process"]
            path = obj["path"]
            op = obj["op"]
            offset = obj["offset"]
            nbytes = obj["nbytes"]
            get = obj.get
            app = get("app", "")
            instance = get("instance", 0)
            think_s = get("think_s", 0.0)
            stride = get("stride", 0)
            count = get("count", 1)
            # Convert only what the scanner did not already make of its
            # type, in field order (the first bad field names the error).
            if type(time) is not float:
                time = float(time)
            if type(offset) is not int:
                offset = _int("offset", offset)
            if type(nbytes) is not int:
                nbytes = _int("nbytes", nbytes)
            if type(instance) is not int:
                instance = _int("instance", instance)
            if type(think_s) is not float:
                think_s = float(think_s)
            if type(stride) is not int:
                stride = _int("stride", stride)
            if type(count) is not int:
                count = _int("count", count)
            return cls(
                floats.setdefault(time, time) if time else time,
                intern(process if type(process) is str else str(process)),
                intern(path if type(path) is str else str(path)),
                intern(op if type(op) is str else str(op)),
                ints.setdefault(offset, offset),
                ints.setdefault(nbytes, nbytes),
                intern(app if type(app) is str else str(app)),
                instance,
                think_s,
                ints.setdefault(stride, stride),
                count,
            )
        except (TypeError, ValueError, KeyError) as exc:
            where = f" (line {line_no})" if line_no is not None else ""
            if not isinstance(obj, dict):
                what = f"event is not an object{where}: {obj!r}"
            elif missing := [k for k in REQUIRED_FIELDS if k not in obj]:
                what = f"event missing fields {missing}{where}"
            elif isinstance(exc, TraceFormatError):
                what = f"{exc}{where}"
            else:
                what = f"malformed event{where}: {exc}"
            raise TraceFormatError(what) from exc


# The slots' own setters, bound once: ``TraceEvent.__init__`` calls
# these instead of looking each field up through ``object.__setattr__``.
(
    _put_time,
    _put_process,
    _put_path,
    _put_op,
    _put_offset,
    _put_nbytes,
    _put_app,
    _put_instance,
    _put_think_s,
    _put_stride,
    _put_count,
) = (getattr(TraceEvent, f.name).__set__ for f in dataclasses.fields(TraceEvent))


class _Numbers(_t.NamedTuple):
    """One load call's memo of the numbers its events repeat.

    A loaded trace holds each repeated ``time``, ``offset``, ``nbytes``
    and ``stride`` value once instead of once per event.  The memo is
    exact in type and sign: ints and floats have a dict each, since
    ``1 == 1.0`` and they hash alike (a shared dict would hand an int
    field a float), and a zero float is never shared, since ``0.0 ==
    -0.0``.  The callers look a value up only after it has its field's
    exact type, so no ``bool`` ever reaches the int dict.
    """

    floats: dict[float, float]
    ints: dict[int, int]


def _int(name: str, value: _t.Any) -> int:
    """``value`` as the integer it denotes, for :meth:`TraceEvent.from_json`."""
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _sort_key(event: TraceEvent) -> tuple[float, str, int]:
    # Total order so a trace's canonical event order (and hence its
    # content hash and replay schedule) never depends on input order.
    return (event.time, event.process, event.offset)


def _canonical_lines(events: _t.Iterable[TraceEvent]) -> _t.Iterator[str]:
    """Each event's canonical line, ``json.dumps(event.to_json())`` plus
    a newline: what JSONL files hold and what ``content_hash`` digests.

    That expression is the definition; this writes the same bytes from
    a template (``to_json()``'s key order, ``json``'s separators and
    its ``float.__repr__``/``int.__repr__`` numbers), quoting each
    distinct string once per call.  An event holding a field that is
    not of its declared type (an ``int`` time, say) falls out of the
    template with ``TypeError`` and is encoded by the definition.
    """
    dumps = json.dumps
    of_float = float.__repr__
    of_int = int.__repr__
    quoted: dict[str, str] = {}
    seen = quoted.get

    def quote(text: str) -> str:
        quoted[text] = out = dumps(text)
        return out

    for e in events:
        try:
            app, count, instance, think_s = e.app, e.count, e.instance, e.think_s
            op, path, process = e.op, e.path, e.process
            head = tail = ""
            if app:
                head = f'"app": {seen(app) or quote(app)}, '
            if count > 1:
                head += f'"count": {of_int(count)}, '
                tail = f'"stride": {of_int(e.stride)}, '
            if instance:
                head += f'"instance": {of_int(instance)}, '
            if think_s:
                tail += f'"think_s": {of_float(think_s)}, '
            line = (
                f'{{{head}"nbytes": {of_int(e.nbytes)}, '
                f'"offset": {of_int(e.offset)}, '
                f'"op": {seen(op) or quote(op)}, '
                f'"path": {seen(path) or quote(path)}, '
                f'"process": {seen(process) or quote(process)}, '
                f'{tail}"time": {of_float(e.time)}}}\n'
            )
        except TypeError:
            line = dumps(e.to_json()) + "\n"
        yield line


@dataclasses.dataclass
class Trace:
    """An ordered collection of trace events plus metadata.

    ``meta`` carries free-form provenance (source, seed, config
    snapshot); it rides along through serialization, which always
    writes version :data:`TRACE_VERSION`.
    """

    events: list[TraceEvent] = dataclasses.field(default_factory=list)
    meta: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        # Always a fresh list; the sort (and its list of key tuples)
        # only when one pass finds it out of canonical order.
        self.events = events = list(self.events)
        keys = map(_sort_key, events)
        if not all(a <= b for a, b in itertools.pairwise(keys)):
            events.sort(key=_sort_key)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> _t.Iterator[TraceEvent]:
        return iter(self.events)

    # -- introspection ---------------------------------------------------
    @property
    def processes(self) -> list[str]:
        """Distinct process names, sorted."""
        return sorted({e.process for e in self.events})

    @property
    def paths(self) -> list[str]:
        """Distinct file paths, sorted."""
        return sorted({e.path for e in self.events})

    def by_process(self) -> dict[str, list[TraceEvent]]:
        """Events grouped per process (trace order within each)."""
        out: dict[str, list[TraceEvent]] = {}
        for event in self.events:
            out.setdefault(event.process, []).append(event)
        return out

    def op_counts(self) -> dict[str, int]:
        """How many events of each op the trace holds."""
        out = {op: 0 for op in CANONICAL_OPS}
        for event in self.events:
            out[event.op] += 1
        return out

    def content_hash(self) -> str:
        """BLAKE2b digest of the canonical event stream.

        Two traces with identical events (same canonical order) share
        the hash regardless of how they were produced, serialized, or
        reloaded.  This is the *content* identity; the schedule
        identity of a replay is the engine's trace hash.
        """
        acc = hashlib.blake2b(digest_size=16)
        for line in _canonical_lines(self.events):
            acc.update(line.encode())
        return acc.hexdigest()

    # -- JSONL serialization ---------------------------------------------
    def _jsonl_lines(self) -> _t.Iterator[str]:
        header = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "events": len(self.events),
            "meta": self.meta,
        }
        yield json.dumps(header, sort_keys=True) + "\n"
        yield from _canonical_lines(self.events)

    def dump_jsonl(self, fp: _t.TextIO) -> int:
        """Write the trace as versioned JSONL; returns event count."""
        fp.writelines(self._jsonl_lines())
        return len(self.events)

    def dumps(self) -> str:
        """The trace as a JSONL string."""
        return "".join(self._jsonl_lines())


# -- loading ---------------------------------------------------------------
def _iter_lines(text: str) -> _t.Iterator[str]:
    """The lines of ``text`` as a file would yield them, ``\\n`` kept,
    one at a time (a long trace's ``splitlines()`` list is as big as
    the text itself)."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        yield text[pos:end]
        pos = end


#: The C scanner behind ``json.loads``, called on a line directly.
_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str, line_no: int | None = None) -> _t.Any:
    """``json.loads`` of one line less its newline, with the loader's
    diagnosis: the header, and any event line the scanner did not take
    whole (padded, or malformed)."""
    try:
        return json.loads(line.removesuffix("\n"))
    except json.JSONDecodeError as exc:
        what = "trace header" if line_no is None else f"event (line {line_no})"
        raise TraceFormatError(f"malformed {what}: {exc}") from exc


def _load_jsonl(lines: _t.Iterator[str]) -> Trace:
    first = next(lines, "").removesuffix("\n")
    header = _decode_line(first)
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            f"not a {TRACE_FORMAT} header: {first[:80]!r}"
        )
    version = header.get("version")
    if version != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {version!r}; this build reads "
            f"version {TRACE_VERSION}"
        )
    events: list[TraceEvent] = []
    numbers = _Numbers({}, {})
    for line_no, line in enumerate(lines, start=2):
        # One value, from the first character of the line to its last:
        # exactly what ``json.loads(line)`` accepts, less padding.
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end < 0 or line[end:].strip(" \t\n\r"):
            if not line.strip():
                continue
            obj = _decode_line(line, line_no)
        events.append(TraceEvent.from_json(obj, line_no, numbers))
    declared = header.get("events")
    if isinstance(declared, int) and declared != len(events):
        raise TraceFormatError(
            f"trace truncated or padded: header declares {declared} "
            f"events, found {len(events)}"
        )
    meta = header.get("meta") or {}
    if not isinstance(meta, dict):
        raise TraceFormatError(f"trace meta is not an object: {meta!r}")
    return Trace(events=events, meta=meta)


def load(fp: _t.Iterable[str]) -> Trace:
    """Parse a JSONL trace from a file object.

    The file is streamed a line at a time (only iteration is asked of
    ``fp``).  A file of blank lines is an empty trace; otherwise its
    first line must be the header.
    """
    lines = iter(fp)
    blank: list[str] = []
    for line in lines:
        if line.strip():
            break
        blank.append(line)
    else:
        raise TraceFormatError("empty trace")
    return _load_jsonl(itertools.chain(blank, (line,), lines))


def loads(text: str) -> Trace:
    """Parse a JSONL trace from a string."""
    return load(_iter_lines(text))


def load_path(path: str) -> Trace:
    """Parse a JSONL trace from a file path."""
    with open(path) as fp:
        return load(fp)


def validate_trace(trace: Trace) -> list[str]:
    """Structural lint over a parsed trace; returns human-readable
    issues (empty list == clean).

    Event-level validity is enforced at construction; this checks the
    cross-event properties an importer cares about: per-process time
    monotonicity and degenerate (empty / zero-byte-only) traces.

    Open-loop traces (``meta["open_loop"]``, see
    :mod:`repro.workload.openloop`) are an arrival *schedule*, not a
    recording of completions: unbounded think time between events and
    pure-metadata churn are legitimate there, so the closed-loop
    degeneracy heuristics do not apply.  Instead the schedule is
    checked against its own declared provenance (arrival count and
    horizon).
    """
    issues: list[str] = []
    if not trace.events:
        issues.append("trace has no events")
        return issues
    for process, events in sorted(trace.by_process().items()):
        last = -math.inf
        for event in events:
            if event.time < last:
                issues.append(
                    f"process {process!r} times go backwards at "
                    f"t={event.time}"
                )
                break
            last = event.time
    if trace.meta.get("open_loop"):
        declared = trace.meta.get("offered_ops")
        if declared is not None and int(declared) != len(trace.events):
            issues.append(
                f"open-loop meta declares {declared} offered ops but "
                f"the trace has {len(trace.events)} events"
            )
        horizon = trace.meta.get("duration_s")
        if horizon is not None:
            late = max(e.time for e in trace.events)
            if late > float(horizon):
                issues.append(
                    f"open-loop arrival at t={late} lands past the "
                    f"declared {horizon}s schedule horizon"
                )
    elif all(e.total_bytes == 0 for e in trace.events):
        issues.append("every event transfers zero bytes")
    return issues


__all__ = [
    "CANONICAL_OPS",
    "REQUIRED_FIELDS",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "load",
    "load_path",
    "loads",
    "validate_trace",
]
