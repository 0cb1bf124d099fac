"""Differential oracles for the trace JSONL codec.

The loader drives the C scanner a line at a time and the writer fills
a template; both are held here against the expressions that *define*
the format: ``json.loads`` of each line for the decoder (the loader as
it was before the scanner, kept below as the reference), and
``json.dumps(event.to_json())`` for the encoder.
"""

import hashlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.trace import (
    LEGACY_OP_ALIASES,
    TRACE_FORMAT,
    TRACE_VERSION,
    Trace,
    TraceEvent,
    TraceFormatError,
    load,
    loads,
)


# -- decoder ------------------------------------------------------------------
def _reference_loads(text: str) -> Trace:
    """``loads`` as it was: slice a line, ``json.loads`` it, check."""
    first_char = next((ch for ch in text if not ch.isspace()), "")
    if not first_char:
        raise TraceFormatError("empty trace")
    assert first_char == "{", "the oracle covers the JSONL dialect only"
    lines = iter(text.split("\n"))
    first = next(lines)
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"malformed trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise TraceFormatError(f"not a {TRACE_FORMAT} header: {first[:80]!r}")
    version = header.get("version")
    if version not in (1, TRACE_VERSION):
        raise TraceFormatError(
            f"unsupported trace version {version!r}; this build reads "
            f"versions 1 and {TRACE_VERSION}"
        )
    events = []
    legacy_ops = 0
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"malformed event (line {line_no}): {exc}"
            ) from exc
        if isinstance(obj, dict) and obj.get("op") in LEGACY_OP_ALIASES:
            legacy_ops += 1
        events.append(TraceEvent.from_json(obj, line_no=line_no))
    declared = header.get("events")
    if isinstance(declared, int) and declared != len(events):
        raise TraceFormatError(
            f"trace truncated or padded: header declares {declared} "
            f"events, found {len(events)}"
        )
    if legacy_ops:
        warnings.warn(
            f"trace uses the deprecated op spelling 'sync-write' "
            f"({legacy_ops} events); the canonical IR spelling is "
            "'sync_write'",
            DeprecationWarning,
            stacklevel=2,
        )
    meta = header.get("meta") or {}
    if not isinstance(meta, dict):
        raise TraceFormatError(f"trace meta is not an object: {meta!r}")
    return Trace(events=events, meta=meta, version=TRACE_VERSION)


def _outcome(loader, text):
    """Everything a caller can observe of ``loader(text)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trace = loader(text)
        except Exception as exc:  # noqa: BLE001 - the type is the result
            result = ("rejected", type(exc), str(exc))
        else:
            result = ("accepted", trace.events, trace.meta, trace.version)
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_loaders_agree(text):
    want = _outcome(_reference_loads, text)
    assert _outcome(loads, text) == want
    assert _outcome(lambda t: load(io.StringIO(t)), text) == want
    return want[0]


_NAMES = st.sampled_from(["p0", "p1", 'q"uote', "back\\slash", "tab\there", "é"])

_EVENTS = st.builds(
    TraceEvent,
    time=st.floats(0, 1e6, allow_nan=False),
    process=_NAMES,
    path=st.sampled_from(["/f", "/shared/x", "/päth"]),
    op=st.sampled_from(["read", "write", "sync_write"]),
    offset=st.integers(0, 2**40),
    nbytes=st.integers(0, 4096),
    app=st.sampled_from(["", "gen"]),
    instance=st.integers(0, 3),
    think_s=st.sampled_from([0.0, 5e-5]),
    stride=st.just(8192),
    count=st.integers(1, 3),
)

_JUNK = st.sampled_from(
    ["x", "}", " {}", ",", "]", '{"a": 1}', "\x0c", "﻿", "nul", '"']
)
_NOT_EVENTS = st.sampled_from(
    ["5", "[1, 2]", '"text"', "null", "true", "{}", '{"time": 0}', "NaN"]
)
_BAD_NUMBERS = st.sampled_from(
    [
        '"nbytes": 1.5, "x": ',
        '"nbytes": true, "x": ',
        '"nbytes": 4e3, "x": ',  # integral: accepted
        '"think_s": Infinity, "nbytes": ',
    ]
)
_PADDING = st.sampled_from(["", " ", "\t", " \t ", "\r", "\x0c", "\xa0"])


@st.composite
def _garbled(draw):
    """A valid trace's text with a few malformations applied."""
    trace = Trace(draw(st.lists(_EVENTS, min_size=1, max_size=6)))
    lines = trace.dumps().split("\n")[:-1]  # header + one per event
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 10))
        at = draw(st.integers(0, len(lines) - 1))
        line = lines[at]
        if kind == 0:  # two values on one line
            glue = draw(st.sampled_from(["", " ", ","]))
            lines[at : at + 2] = [glue.join(lines[at : at + 2])]
        elif kind == 1:  # trailing junk
            lines[at] = line + draw(_JUNK)
        elif kind == 2:  # blank and whitespace-only lines
            lines.insert(at, draw(_PADDING))
        elif kind == 3:  # padding around a value
            lines[at] = draw(_PADDING) + line + draw(_PADDING)
        elif kind == 4:  # a non-object (or empty-object) value
            lines[at] = draw(_NOT_EVENTS)
        elif kind == 5:  # a missing field (of a line still intact)
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and obj:
                obj.pop(draw(st.sampled_from(sorted(obj))))
                lines[at] = json.dumps(obj)
        elif kind == 6:  # the legacy op spelling
            lines[at] = line.replace('"sync_write"', '"sync-write"')
        elif kind == 7:  # a wrong header count
            lines[0] = lines[0].replace(
                '"events": ', f'"events": {draw(st.integers(0, 3))}', 1
            )
        elif kind == 8:  # one value over two lines
            cut = draw(st.integers(0, len(line)))
            lines[at : at + 1] = [line[:cut], line[cut:]]
        elif kind == 9:  # a number JSON does not have, a wrongly typed one
            lines[at] = line.replace('"nbytes": ', draw(_BAD_NUMBERS), 1)
        else:  # a list where a scalar belongs
            lines[at] = line.replace('"time": ', '"time": [], "t": ', 1)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if draw(st.integers(0, 9)) == 0:
        text = " \n" + text
    if draw(st.booleans()):  # truncate at any character
        text = text[: draw(st.integers(1, len(text)))]
    return text


@settings(max_examples=400, deadline=None)
@given(_garbled())
def test_scanner_decoder_agrees_with_json_loads_per_line(text):
    if not text.lstrip().startswith("{"):
        text = "{" + text
    _assert_loaders_agree(text)


GOOD = (
    '{"time": 0, "process": "p", "path": "/f", "op": "read", '
    '"offset": 0, "nbytes": 1}'
)


def _with_header(*lines, events=None):
    count = len(lines) if events is None else events
    header = f'{{"format": "repro-trace", "version": 2, "events": {count}}}'
    return "\n".join([header, *lines]) + "\n"


def test_lines_that_only_parse_when_joined_are_rejected():
    """Why the decoder is not ``json.loads("[" + ",".join(lines) + "]")``:
    these two lines are each malformed, yet joined with a comma inside
    brackets they parse - to two elements, the very count declared."""
    text = _with_header('{"x":[{"a":1}', '{"b":2}]},{"c":3}')
    joined = json.loads("[" + ",".join(text.splitlines()[1:]) + "]")
    assert len(joined) == 2
    with pytest.raises(TraceFormatError, match=r"malformed event \(line 2\)"):
        loads(text)
    assert _assert_loaders_agree(text)[0] == "rejected"


@pytest.mark.parametrize(
    "text, outcome",
    [
        (_with_header(GOOD, GOOD), "accepted"),
        (_with_header(GOOD + GOOD), "rejected"),  # Extra data
        (_with_header(GOOD + " " + GOOD), "rejected"),
        (_with_header("  " + GOOD + " \t"), "accepted"),
        (_with_header("", GOOD, " \t", "\xa0", events=1), "accepted"),
        (_with_header(GOOD).replace("\n", "\r\n"), "accepted"),
        (_with_header(GOOD)[:-1], "accepted"),  # no final newline
        (_with_header(GOOD)[:-9], "rejected"),  # cut inside the event
        (_with_header(GOOD[:40], GOOD[40:], events=1), "rejected"),
        (_with_header("5"), "rejected"),  # a value, not an object
        (_with_header("nul"), "rejected"),  # StopIteration in the scanner
        (_with_header('{"time": 0'), "rejected"),  # JSONDecodeError in it
        (_with_header(GOOD.replace("read", "sync-write")), "accepted"),
        ("\n" + _with_header(GOOD), "rejected"),  # header is line 1
    ],
)
def test_decoder_edge_cases_agree_with_the_reference(text, outcome):
    assert _assert_loaders_agree(text)[0] == outcome


def test_byte_order_mark_is_not_a_jsonl_header():
    with pytest.raises(TraceFormatError, match="columns"):
        loads("﻿" + _with_header(GOOD))


class _LinesOnly:
    """A file-like object that can be iterated and nothing else."""

    def __init__(self, text):
        self._lines = iter(text.splitlines(keepends=True))

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._lines)


def test_load_streams_the_file_line_by_line():
    trace = Trace(
        [TraceEvent(float(i), "p", "/f", "read", 0, 1) for i in range(50)]
    )
    assert load(_LinesOnly(trace.dumps())).events == trace.events
    with pytest.raises(TraceFormatError, match="malformed trace header"):
        load(_LinesOnly(" \n" + trace.dumps()))  # the header is line 1
    csv_text = "time,process,path,op,offset,nbytes\n\n0.5,p0,/f,read,0,4096\n"
    assert load(_LinesOnly(csv_text)).events == loads(csv_text).events
    with pytest.raises(TraceFormatError, match="empty"):
        load(_LinesOnly(" \n\n"))
    with pytest.raises(TraceFormatError, match=r"\(line 4\)"):
        load(_LinesOnly(_with_header(GOOD, "", "{not json")))


# -- strictness ---------------------------------------------------------------
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_think_time_is_rejected(bad):
    with pytest.raises(TraceFormatError, match="non-finite think_s"):
        TraceEvent(0.0, "p", "/f", "read", 0, 1, think_s=bad)
    token = json.dumps(bad)  # NaN / Infinity: json writes and reads them
    line = GOOD.replace('"time": 0', f'"time": 0, "think_s": {token}')
    with pytest.raises(
        TraceFormatError, match=r"non-finite think_s .* \(line 3\)"
    ):
        loads(_with_header(GOOD, line))


@pytest.mark.parametrize(
    "field", ["offset", "nbytes", "instance", "stride", "count"]
)
@pytest.mark.parametrize("token", ["1.9", "true", '"4096"', "null", "1e400"])
def test_integer_fields_reject_what_is_not_an_integer(field, token):
    obj = json.loads(GOOD)
    obj[field] = json.loads(token)
    with pytest.raises(
        TraceFormatError,
        match=rf"malformed event \(line 7\): {field} must be an integer",
    ):
        TraceEvent.from_json(obj, line_no=7)
    with pytest.raises(TraceFormatError, match=r"malformed event \(line 2\)"):
        loads(_with_header(json.dumps(obj).replace("Infinity", "1e400")))


def test_integral_floats_and_int_times_are_accepted():
    obj = json.loads(GOOD) | {"offset": 8192.0, "nbytes": 4e3, "count": 1.0}
    event = TraceEvent.from_json(obj)
    assert (event.offset, event.nbytes, event.count) == (8192, 4000, 1)
    assert all(
        type(v) is int for v in (event.offset, event.nbytes, event.count)
    )
    assert type(event.time) is float  # "time": 0 in the text


# -- encoder ------------------------------------------------------------------
_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\x00\x1f", " ", "é", "\U0001f600", "/shared/f"]
)
_TIMES = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e-300, 1e22, 1e16, 0.1])
    | st.integers(-(10**6), 10**6)  # an int-typed time is legal
)
_THINK = (
    st.floats(0, allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-5, 1e-300, 1e22])
    | st.integers(0, 3)
)


@st.composite
def _any_event(draw):
    nbytes = draw(st.integers(0, 2**20))
    count = draw(st.sampled_from([1, 1, 2, 7]))
    return TraceEvent(
        draw(_TIMES),
        draw(_TEXT),
        draw(_TEXT),
        draw(st.sampled_from(["read", "write", "sync_write", "sync-write"])),
        draw(st.integers(0, 2**70)),  # past 2**63 too
        nbytes,
        draw(_TEXT),
        draw(st.integers(0, 2**33)),
        draw(_THINK),
        # count == 1 ignores the stride and does not serialize it
        nbytes + draw(st.integers(0, 2**65)) if count > 1 else 0,
        count,
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_event(), max_size=8))
def test_template_encoder_writes_the_canonical_bytes(events):
    trace = Trace(events, meta={"k": ["v", 1]})
    canonical = [json.dumps(e.to_json()) + "\n" for e in trace.events]
    text = trace.dumps()
    header, _, body = text.partition("\n")
    assert json.loads(header)["events"] == len(events)
    assert body == "".join(canonical)
    buf = io.StringIO()
    assert trace.dump_jsonl(buf) == len(events)
    assert buf.getvalue() == text
    digest = hashlib.blake2b("".join(canonical).encode(), digest_size=16)
    assert trace.content_hash() == digest.hexdigest()
    reloaded = loads(text)
    assert reloaded.events == trace.events
    if all(type(e.time) is type(e.think_s) is float for e in events):
        assert reloaded.dumps() == text  # an int 1 comes back as 1.0


# -- how much of the work is left to ``json`` ---------------------------------
def test_canonical_trace_round_trip_barely_touches_the_json_module(monkeypatch):
    calls = {"loads": 0, "dumps": 0}
    real_loads, real_dumps = json.loads, json.dumps

    def counting_loads(*args, **kwargs):
        calls["loads"] += 1
        return real_loads(*args, **kwargs)

    def counting_dumps(*args, **kwargs):
        calls["dumps"] += 1
        return real_dumps(*args, **kwargs)

    trace = Trace(
        [
            TraceEvent(
                float(i // 8), f"rank{i % 8}", f"/data/f{i % 3}",
                ("read", "write", "sync_write")[i % 3], 4096 * i, 4096,
                "gen", i % 2, 1e-5 * (i % 5), 8192 * (i % 2), 1 + i % 2,
            )
            for i in range(10_000)
        ]
    )
    distinct = {s for e in trace.events for s in (e.process, e.path, e.op, e.app)}
    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    text = trace.dumps()
    assert calls == {"loads": 0, "dumps": 1 + len(distinct)}
    trace.content_hash()
    assert calls == {"loads": 0, "dumps": 1 + 2 * len(distinct)}
    reloaded = loads(text)
    assert calls["loads"] == 1  # the header
    monkeypatch.undo()
    assert reloaded.events == trace.events
    assert text.splitlines(keepends=True)[1:] == [
        json.dumps(e.to_json()) + "\n" for e in trace.events
    ]
