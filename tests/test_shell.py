"""Tests for the PVFS shell utilities."""

import pytest

from repro.pvfs.shell import PVFSShell
from tests.conftest import make_cluster


def test_cp_roundtrip():
    cluster = make_cluster(caching=False)
    shell = PVFSShell(cluster)
    payload = bytes(range(256)) * 100
    shell.cp_in("/data/in", payload)
    assert shell.cp_out("/data/in", len(payload)) == payload


def test_cp_out_without_size_uses_apparent_size():
    cluster = make_cluster(caching=False)
    shell = PVFSShell(cluster)
    payload = b"hello world" * 100
    shell.cp_in("/f", payload)
    out = shell.cp_out("/f")
    # apparent size is block-rounded; the prefix must match
    assert out[: len(payload)] == payload
    assert len(out) % 4096 == 0


def test_cp_out_empty_file():
    cluster = make_cluster(caching=False)
    shell = PVFSShell(cluster)

    def gen(env):
        yield from shell.client.open("/empty")

    shell._run(gen(cluster.env))
    assert shell.cp_out("/empty") == b""


def test_ls_and_exists():
    cluster = make_cluster(caching=False)
    shell = PVFSShell(cluster)
    shell.cp_in("/b", b"x")
    shell.cp_in("/a", b"x")
    assert shell.ls() == ["/a", "/b"]
    assert shell.exists("/a")
    assert not shell.exists("/zzz")


def test_stat_reports_striping():
    cluster = make_cluster(caching=False, iod_nodes=2)
    shell = PVFSShell(cluster)
    # 2 stripes of 64 KB: one per iod
    shell.cp_in("/striped", b"s" * 131072)
    st = shell.stat("/striped")
    assert st.apparent_size == 131072
    assert sum(st.blocks_per_iod.values()) == 32
    assert all(count == 16 for count in st.blocks_per_iod.values())
    assert st.allocated_bytes == 131072


def test_stat_missing_file():
    cluster = make_cluster(caching=False)
    with pytest.raises(FileNotFoundError):
        PVFSShell(cluster).stat("/ghost")


def test_rm_frees_blocks():
    cluster = make_cluster(caching=False)
    shell = PVFSShell(cluster)
    shell.cp_in("/victim", b"v" * 16384)
    assert shell.rm("/victim") == 4
    st = shell.stat("/victim")
    assert st.apparent_size == 0
    with pytest.raises(FileNotFoundError):
        shell.rm("/ghost")


def test_rm_forgets_the_files_sharers():
    cluster = make_cluster()
    shell = PVFSShell(cluster)
    shell.cp_in("/victim", b"v" * (40 * 4096))  # spans both iods
    shell.dd("/victim", 4096, 40)  # cached reads register node0
    file_id = shell.stat("/victim").file_id
    assert all(iod.stats()["directory_files"] == 1 for iod in cluster.iods)
    shell.rm("/victim")
    for iod in cluster.iods:
        assert iod.stats()["directory_files"] == 0
        assert not any(iod.directory.sharers(file_id, b) for b in range(40))


def test_dd_read_and_write():
    cluster = make_cluster()
    shell = PVFSShell(cluster)
    stats = shell.dd("/dd", block_size=16384, count=8, mode="write")
    assert stats["bytes"] == 131072
    assert stats["bytes_per_second"] > 0
    stats = shell.dd("/dd", block_size=16384, count=8, mode="read")
    assert stats["seconds"] > 0
    with pytest.raises(ValueError):
        shell.dd("/dd", 4096, 1, mode="append")


def test_shell_works_through_cache_too():
    cluster = make_cluster()
    shell = PVFSShell(cluster, use_cache=True)
    payload = b"c" * 8192
    shell.cp_in("/cached", payload)
    assert shell.cp_out("/cached", len(payload)) == payload
