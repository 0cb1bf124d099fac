"""End-to-end tests for the record/replay/transform/validate CLI."""

import pytest

from repro.cluster.config import TRACE_ENV_VAR
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


def test_transform_pipeline_then_replay(tmp_path, capsys):
    out = _record(tmp_path)
    big = tmp_path / "big.jsonl"
    rc = main([
        "transform", "--trace", str(out), "--out", str(big),
        "--scale-out", "2", "--remix-sharing", "0.5", "--seed", "5",
    ])
    assert rc == 0
    assert "passes" in capsys.readouterr().err
    trace = load_path(str(big))
    assert len(trace) == 16
    assert trace.meta["transforms"] == [
        "scale_out(2)", "remix_sharing(0.5, seed=5)"
    ]
    assert main(["replay", "--trace", str(big), "--p", "4"]) == 0
    assert "replayed 16 events" in capsys.readouterr().out


def test_transform_requires_a_pass_and_valid_remap(tmp_path, capsys):
    out = _record(tmp_path)
    assert main(["transform", "--trace", str(out)]) == 2
    assert "no transform" in capsys.readouterr().err
    assert main(["transform", "--trace", str(out), "--remap", "bogus"]) == 2
    assert "OLD=NEW" in capsys.readouterr().err


def test_validate_rejects_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"format": "repro-trace", "version": 99, "events": 0}\n')
    assert main(["validate", "--trace", str(bad)]) == 1
    assert "invalid trace" in capsys.readouterr().err


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


def test_legacy_invocation_replays_under_repro_trace(
    tmp_path, capsys, monkeypatch
):
    out = _record(tmp_path)
    capsys.readouterr()
    monkeypatch.setenv(TRACE_ENV_VAR, str(out))
    assert main(RECORD_ARGS) == 0
    assert "bytes over the wire" in capsys.readouterr().out
