"""The workload trace IR: a serializable, versioned request-stream format.

The paper closes by noting "there is a lack of benchmarks containing
groups of applications sharing data".  Traces are the practical
substitute, and this module makes them a first-class currency for the
whole stack: every driver can *record* its request stream
(:mod:`repro.workload.record`), *replay* it deterministically against
a different cluster configuration (:mod:`repro.workload.replay`),
*transform* it into a family of scenarios
(:mod:`repro.workload.transform`), and *import* traces measured on
external systems.

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

The canonical op spelling is ``sync_write`` — the spelling the metrics
(``client.sync_writes``), classifier, and docs already use.  The
legacy trace spelling ``sync-write`` is accepted on import as a
deprecated alias and canonicalized.

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
count makes truncation detectable.  The older CSV schema
(``time,process,path,op,offset,nbytes``) is retained as the *version-1
import dialect*; it cannot carry tags or strided shapes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import sys
import typing as _t
import warnings

#: Format marker in the JSONL header line.
TRACE_FORMAT = "repro-trace"

#: Current trace IR version.  Version 1 is the legacy CSV dialect.
TRACE_VERSION = 2

#: Canonical operation names of the IR.
CANONICAL_OPS = ("read", "write", "sync_write")

#: Deprecated spellings accepted on import and canonicalized.
LEGACY_OP_ALIASES = {"sync-write": "sync_write"}

#: CSV dialect column order (the version-1 schema); the same six are
#: the fields a JSONL event must carry.
CSV_COLUMNS = ("time", "process", "path", "op", "offset", "nbytes")


class TraceFormatError(ValueError):
    """A trace file or event failed validation."""


def canonical_op(op: str) -> str:
    """Canonicalize an op spelling (legacy aliases map to canonical).

    Raises :class:`TraceFormatError` for unknown ops.
    """
    op = LEGACY_OP_ALIASES.get(op, op)
    if op not in CANONICAL_OPS:
        raise TraceFormatError(
            f"unknown op {op!r}; canonical ops are {CANONICAL_OPS}"
        )
    return op


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
    op: str  # one of CANONICAL_OPS ("sync-write" canonicalized)
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
        # ``__post_init__``, on every request generated or loaded.
        put = object.__setattr__
        put(self, "time", time)
        put(self, "process", process)
        put(self, "path", path)
        put(self, "op", op)
        put(self, "offset", offset)
        put(self, "nbytes", nbytes)
        put(self, "app", app)
        put(self, "instance", instance)
        put(self, "think_s", think_s)
        put(self, "stride", stride)
        put(self, "count", count)
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
        """The checks one at a time, for the precise message (and the
        legacy op spelling, which is valid once canonicalized)."""
        if self.op not in CANONICAL_OPS:  # legacy alias, or unknown (raises)
            object.__setattr__(self, "op", canonical_op(self.op))
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
    def from_json(cls, obj: _t.Any, line_no: int | None = None) -> "TraceEvent":
        """Parse one event object (strict on required fields/types).

        Integer fields take an ``int`` or an integral-valued ``float``
        (``4096.0``); a ``bool``, a fractional float or a string is an
        error, never a silent truncation.  Strings are interned: a
        decoded trace would otherwise carry a private copy of every
        process, path, op and app name per event.
        """
        intern = sys.intern
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
            # Convert only what the scanner did not already make of its type.
            return cls(
                time if type(time) is float else float(time),
                intern(process if type(process) is str else str(process)),
                intern(path if type(path) is str else str(path)),
                intern(op if type(op) is str else str(op)),
                offset if type(offset) is int else _int("offset", offset),
                nbytes if type(nbytes) is int else _int("nbytes", nbytes),
                intern(app if type(app) is str else str(app)),
                instance if type(instance) is int else _int("instance", instance),
                think_s if type(think_s) is float else float(think_s),
                stride if type(stride) is int else _int("stride", stride),
                count if type(count) is int else _int("count", count),
            )
        except (TypeError, ValueError, KeyError) as exc:
            where = f" (line {line_no})" if line_no is not None else ""
            if not isinstance(obj, dict):
                what = f"event is not an object{where}: {obj!r}"
            elif missing := [k for k in CSV_COLUMNS if k not in obj]:
                what = f"event missing fields {missing}{where}"
            elif isinstance(exc, TraceFormatError):
                what = f"{exc}{where}"
            else:
                what = f"malformed event{where}: {exc}"
            raise TraceFormatError(what) from exc


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
    """An ordered, versioned collection of trace events plus metadata.

    ``meta`` carries free-form provenance (source, seed, config
    snapshot, applied transforms); it rides along through
    serialization and transforms.
    """

    events: list[TraceEvent] = dataclasses.field(default_factory=list)
    meta: dict[str, _t.Any] = dataclasses.field(default_factory=dict)
    version: int = TRACE_VERSION

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

    def derive(
        self, events: _t.Iterable[TraceEvent], note: str
    ) -> "Trace":
        """A new trace with ``events`` and this trace's meta + a
        transform note appended (used by the transform passes)."""
        meta = dict(self.meta)
        meta["transforms"] = [*meta.get("transforms", []), note]
        return Trace(events=list(events), meta=meta)

    # -- JSONL serialization ---------------------------------------------
    def _jsonl_lines(self) -> _t.Iterator[str]:
        header = {
            "format": TRACE_FORMAT,
            "version": self.version,
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

    # -- CSV export (legacy dialect) -------------------------------------
    def dump_csv(self, fp: _t.TextIO) -> int:
        """Write the version-1 CSV dialect; returns event count.

        CSV cannot carry tags or strided shapes — strided events are
        rejected rather than silently flattened.
        """
        writer = csv.writer(fp)
        writer.writerow(CSV_COLUMNS)
        for e in self.events:
            if e.is_list:
                raise TraceFormatError(
                    "the CSV dialect cannot express strided/list events; "
                    "serialize as JSONL instead"
                )
            writer.writerow(
                [f"{e.time:.9f}", e.process, e.path, e.op, e.offset, e.nbytes]
            )
        return len(self.events)


# -- loading ---------------------------------------------------------------
def _warn_legacy_ops(n: int) -> None:
    warnings.warn(
        f"trace uses the deprecated op spelling 'sync-write' ({n} "
        "events); the canonical IR spelling is 'sync_write'",
        DeprecationWarning,
        stacklevel=3,
    )


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
    if version not in (1, TRACE_VERSION):
        raise TraceFormatError(
            f"unsupported trace version {version!r}; this build reads "
            f"versions 1 and {TRACE_VERSION}"
        )
    events: list[TraceEvent] = []
    legacy_ops = 0
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
        events.append(TraceEvent.from_json(obj, line_no))
        if obj["op"] in LEGACY_OP_ALIASES:  # a str: from_json took it as an op
            legacy_ops += 1
    declared = header.get("events")
    if isinstance(declared, int) and declared != len(events):
        raise TraceFormatError(
            f"trace truncated or padded: header declares {declared} "
            f"events, found {len(events)}"
        )
    if legacy_ops:
        _warn_legacy_ops(legacy_ops)
    meta = header.get("meta") or {}
    if not isinstance(meta, dict):
        raise TraceFormatError(f"trace meta is not an object: {meta!r}")
    return Trace(events=events, meta=meta, version=TRACE_VERSION)


def _load_csv(lines: _t.Iterable[str]) -> Trace:
    reader = csv.DictReader(lines)
    required = set(CSV_COLUMNS)
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise TraceFormatError(
            f"trace CSV needs columns {sorted(required)}, "
            f"got {reader.fieldnames}"
        )
    events: list[TraceEvent] = []
    legacy_ops = 0
    for line_no, row in enumerate(reader, start=2):
        if row.get("op") in LEGACY_OP_ALIASES:
            legacy_ops += 1
        try:
            events.append(
                TraceEvent(
                    time=float(row["time"]),
                    process=row["process"],
                    path=row["path"],
                    op=row["op"],
                    offset=int(row["offset"]),
                    nbytes=int(row["nbytes"]),
                    app=row.get("app", "") or "",
                    instance=int(row.get("instance") or 0),
                    think_s=float(row.get("think_s") or 0.0),
                    stride=int(row.get("stride") or 0),
                    count=int(row.get("count") or 1),
                )
            )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, TraceFormatError):
                raise TraceFormatError(
                    f"{exc} (line {line_no})"
                ) from exc
            raise TraceFormatError(
                f"malformed CSV event (line {line_no}): {exc}"
            ) from exc
    if legacy_ops:
        _warn_legacy_ops(legacy_ops)
    return Trace(events=events, meta={"dialect": "csv"})


def load(fp: _t.Iterable[str]) -> Trace:
    """Parse a trace from a file object (JSONL or CSV dialect).

    The file is streamed a line at a time (only iteration is asked of
    ``fp``) and the dialect sniffed from its first non-blank line: a
    leading ``{`` means the native JSONL format; anything else is
    tried as the version-1 CSV dialect.
    """
    lines = iter(fp)
    blank: list[str] = []
    for line in lines:
        if line.strip():
            break
        blank.append(line)
    else:
        raise TraceFormatError("empty trace")
    lines = itertools.chain(blank, (line,), lines)
    if line.lstrip()[0] == "{":
        return _load_jsonl(lines)
    return _load_csv(lines)


def loads(text: str) -> Trace:
    """Parse a trace from a string (JSONL or CSV dialect)."""
    return load(_iter_lines(text))


def load_path(path: str) -> Trace:
    """Parse a trace from a file path (JSONL or CSV dialect)."""
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


# Recorder/replayer re-exports keep the historical import surface
# (``repro.workload.trace.TraceRecorder`` / ``TraceReplayer``)
# working; the implementations live in their own modules now.  Lazy
# (PEP 562) because those modules import this one at load time.
def __getattr__(name: str) -> _t.Any:
    if name == "TraceRecorder":
        from repro.workload.record import TraceRecorder

        return TraceRecorder
    if name == "TraceReplayer":
        from repro.workload.replay import TraceReplayer

        return TraceReplayer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CANONICAL_OPS",
    "CSV_COLUMNS",
    "LEGACY_OP_ALIASES",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Trace",
    "TraceEvent",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "canonical_op",
    "load",
    "load_path",
    "loads",
    "validate_trace",
]
