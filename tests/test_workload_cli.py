"""End-to-end tests for the record/replay/validate CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workload.__main__ import SUBCOMMANDS, main
from repro.workload.trace import load_path

RECORD_ARGS = ["--d", "4096", "--p", "2", "--iterations", "4"]


def _record(tmp_path, name="run.jsonl", extra=()):
    out = tmp_path / name
    rc = main(["record", "--out", str(out), *RECORD_ARGS, *extra])
    assert rc == 0
    return out


def test_record_writes_a_loadable_trace(tmp_path, capsys):
    out = _record(tmp_path)
    trace = load_path(str(out))
    assert len(trace) == 2 * 4
    assert trace.meta["source"] == "microbench"
    assert "content hash" in capsys.readouterr().err


def test_validate_then_replay_round_trip(tmp_path, capsys):
    out = _record(tmp_path)
    assert main(["validate", "--trace", str(out)]) == 0
    captured = capsys.readouterr()
    assert "8 events" in captured.out
    assert "read=8" in captured.out

    assert main(["replay", "--trace", str(out), "--p", "2"]) == 0
    replay_out = capsys.readouterr().out
    assert "replayed 8 events" in replay_out
    assert "makespan" in replay_out


def test_replay_hash_is_deterministic(tmp_path, capsys):
    out = _record(tmp_path)

    def hash_line():
        assert main(["replay", "--trace", str(out), "--p", "2",
                     "--hash"]) == 0
        lines = capsys.readouterr().out.splitlines()
        return next(ln for ln in lines if "schedule trace hash" in ln)

    assert hash_line() == hash_line()


def test_validate_rejects_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "repro-trace", "version": 99, "events": 0}\n')
    assert main(["validate", "--trace", str(bad)]) == 1
    assert "invalid trace" in capsys.readouterr().err


BAD_TRACE_COMMANDS = {
    "replay": ["repro.workload", "replay"],
    "validate": ["repro.workload", "validate"],
}


@pytest.mark.parametrize("damage", ["truncated", "missing", "csv"])
@pytest.mark.parametrize("command", sorted(BAD_TRACE_COMMANDS))
def test_a_bad_trace_file_is_one_error_line(tmp_path, command, damage):
    """A trace that is cut short, absent, or a CSV table (the retired
    version-1 dialect) ends the command with a non-zero exit and a
    one-line reason naming the file, not a traceback."""
    trace = tmp_path / "bad.jsonl"
    if damage == "truncated":
        text = _record(tmp_path).read_text()
        trace.write_text(text[: len(text) // 2])
    elif damage == "csv":
        trace.write_text(
            "time,process,path,op,offset,nbytes\n0.0,p0,/f,read,0,4096\n"
        )
    module, *args = BAD_TRACE_COMMANDS[command]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", module, *args, "--trace", str(trace)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == (1 if command == "validate" else 2)
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert f"{trace}: " in done.stderr


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert "--trace" in capsys.readouterr().out or sub == "record"


def test_legacy_invocation_unchanged(capsys):
    assert main(["--p", "0"]) == 2
    capsys.readouterr()
    assert main(["--d", "4096", "--p", "2", "--iterations", "2"]) == 0
    assert "micro-benchmark (caching version)" in capsys.readouterr().out

