"""Tests for the micro-benchmark command-line interface."""

import pytest

from repro.workload.__main__ import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.d == 65536
    assert args.p == 4
    assert args.mode == "read"
    assert not args.no_caching


def test_parser_aliases():
    args = build_parser().parse_args(
        ["--request-size", "4096", "--locality", "0.5", "--sharing", "0.25"]
    )
    assert args.d == 4096
    assert args.l == 0.5
    assert args.s == 0.25


def test_cli_read_run(capsys):
    rc = main(["--d", "16384", "--p", "2", "--iterations", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "caching version" in out
    assert "mean time per read" in out
    assert "cache hits/misses" in out


def test_cli_no_caching_run(capsys):
    rc = main(
        ["--d", "16384", "--p", "2", "--iterations", "4", "--no-caching"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "no caching version" in out
    assert "cache hits/misses" not in out


def test_cli_write_mode(capsys):
    rc = main(["--d", "8192", "--p", "1", "--iterations", "4",
               "--mode", "write"])
    assert rc == 0
    assert "mean time per write" in capsys.readouterr().out


def test_cli_sync_write_mode(capsys):
    rc = main(["--d", "8192", "--p", "1", "--iterations", "2",
               "--mode", "sync_write"])
    assert rc == 0
    assert "mean time per sync_write" in capsys.readouterr().out
    with pytest.raises(SystemExit):  # the retired spelling
        main(["--mode", "sync-write"])


def test_cli_two_instances(capsys):
    rc = main(["--d", "16384", "--p", "2", "--iterations", "4",
               "--instances", "2", "--s", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "instance 0 makespan" in out
    assert "instance 1 makespan" in out


def test_cli_extensions(capsys):
    rc = main(["--d", "16384", "--p", "2", "--iterations", "4",
               "--readahead"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "blocks prefetched" in out


def test_cli_hub_fabric(capsys):
    rc = main(["--d", "16384", "--p", "2", "--iterations", "2",
               "--fabric", "hub"])
    assert rc == 0


def test_cli_rejects_bad_counts(capsys):
    assert main(["--p", "0"]) == 2
    assert main(["--instances", "0"]) == 2


def test_cli_invalid_mode_exits():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--mode", "append"])


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "cluster.json"
    cfg.write_text('{"compute_nodes": 2, "iod_nodes": 2, "caching": false}')
    rc = main(["--config", str(cfg), "--d", "8192", "--iterations", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "no caching version" in out
