"""Tests for the writeback daemon and the RPC channel."""

import pytest

from repro.disk import DiskModel
from repro.disk.writeback import WritebackDaemon, WritebackItem
from repro.net import Message, Network, SocketAPI
from repro.sim import Environment
from repro.svc.rpc import RpcChannel


# -- WritebackDaemon -----------------------------------------------------------

PAGE = 4096


def test_writeback_validation():
    env = Environment()
    disk = DiskModel(env)
    with pytest.raises(ValueError):
        WritebackDaemon(env, disk, max_dirty_bytes=0)
    with pytest.raises(ValueError):
        WritebackDaemon(env, disk, page_size=0)


def test_writeback_submit_returns_before_disk():
    env = Environment()
    disk = DiskModel(env)
    wb = WritebackDaemon(env, disk)
    wb.start()
    submit_time = {}

    def proc(env):
        yield from wb.submit(WritebackItem(1, 0, 65536))
        submit_time["t"] = env.now

    env.process(proc(env))
    env.run()
    # submit returned immediately (pages dirtied only)...
    assert submit_time["t"] == 0.0
    # ...but the disk eventually wrote the bytes
    assert wb.bytes_written == 65536
    assert disk.writes == 1
    assert wb.idle()


def test_writeback_negative_size_rejected():
    env = Environment()
    wb = WritebackDaemon(env, DiskModel(env))
    wb.start()

    def proc(env):
        yield from wb.submit(WritebackItem(1, 0, -1))

    p = env.process(proc(env))
    env.run()
    assert not p.ok


def test_writeback_dirties_whole_pages():
    env = Environment()
    disk = DiskModel(env)
    wb = WritebackDaemon(env, disk)
    wb.start()

    def proc(env):
        # 100 bytes straddling a page boundary dirty both pages.
        yield from wb.submit(WritebackItem(1, PAGE - 50, 100))
        assert wb.dirty_pages == 2 and wb.dirty_bytes == 2 * PAGE

    env.run(until=env.process(proc(env)))
    env.run()
    assert disk.writes == 1 and wb.bytes_written == 2 * PAGE


def _busy_daemon(**kwargs):
    """A daemon whose disk is busy with file 9's page 0 from t = 0,
    so what is submitted just after waits dirty for the next run."""
    env = Environment()
    disk = DiskModel(env, **kwargs)
    wb = WritebackDaemon(env, disk)
    wb.start()

    def first(env):
        yield from wb.submit(WritebackItem(9, 0, PAGE))

    env.process(first(env))
    env.run(until=0.001)
    assert wb.dirty_pages == 1 and disk.writes == 0  # on the platter
    return env, disk, wb


def test_rewrite_of_a_dirty_page_is_absorbed():
    env, disk, wb = _busy_daemon()
    seen = []

    def proc(env):
        yield from wb.submit(WritebackItem(1, 0, PAGE))
        seen.append(wb.dirty_bytes)
        yield env.timeout(0.001)
        yield from wb.submit(WritebackItem(1, 100, 200))
        seen.append(wb.dirty_bytes)

    env.process(proc(env))
    env.run()
    # The re-write landed in a page still dirty: no new dirty byte...
    assert seen == [2 * PAGE, 2 * PAGE]
    # ...and one disk write for it (plus file 9's).
    assert disk.writes == 2
    assert wb.runs_written == 2 and wb.bytes_written == 2 * PAGE
    assert wb.idle()


def test_adjacent_items_coalesce_into_one_request():
    env, disk, wb = _busy_daemon()
    runs = []
    real_io = disk.io

    def spy(file_id, offset, nbytes, write):
        runs.append((file_id, offset, nbytes))
        return real_io(file_id, offset, nbytes, write)

    disk.io = spy

    def proc(env):
        # File 1's pages 0 and 1 arrive around a page of file 2; the
        # run starting at the oldest page takes every contiguous dirty
        # page after it in the same file, whatever their ages.
        yield from wb.submit(WritebackItem(1, 0, PAGE))
        yield from wb.submit(WritebackItem(2, 0, PAGE))
        yield from wb.submit(WritebackItem(1, PAGE, 2 * PAGE))

    env.process(proc(env))
    env.run()
    assert runs == [(1, 0, 3 * PAGE), (2, 0, PAGE)]
    assert disk.writes == 3  # file 9's page, then the two runs
    assert wb.bytes_written == 5 * PAGE


def test_page_rewritten_while_its_run_is_on_the_platter_is_written_again():
    env, disk, wb = _busy_daemon()

    def proc(env):
        # File 9's page 0 was picked at t = 0 and is being written; a
        # write to it now makes it dirty again, owed a second write.
        yield from wb.submit(WritebackItem(9, 0, PAGE))
        assert wb.dirty_pages == 2

    env.run(until=env.process(proc(env)))
    env.run()
    assert disk.writes == 2
    assert wb.runs_written == 2 and wb.bytes_written == 2 * PAGE
    assert wb.idle()


def test_writeback_throttles_when_dirty_cap_exceeded():
    env = Environment()
    disk = DiskModel(env, transfer_bytes_per_s=1e6)  # slow disk
    wb = WritebackDaemon(env, disk, max_dirty_bytes=24 * PAGE)
    wb.start()
    times = []
    gauge = []

    def proc(env):
        # 15-page items two pages apart: no two coalesce.
        for i in range(4):
            yield from wb.submit(WritebackItem(1, i * 17 * PAGE, 15 * PAGE))
            times.append(env.now)
            gauge.append(wb.dirty_pages)

    env.process(proc(env))
    env.run()
    assert wb.throttle_waits > 0
    assert times[0] == 0.0
    assert times[-1] > 0.0  # later submits waited for a run to land
    # Dirty plus in-flight pages never crossed the cap.
    assert max(gauge) <= 24
    assert wb.runs_written == 4 and wb.bytes_written == 60 * PAGE


def test_throttle_counts_only_fresh_pages():
    env = Environment()
    disk = DiskModel(env)
    wb = WritebackDaemon(env, disk, max_dirty_bytes=2 * PAGE)
    wb.start()

    def proc(env):
        yield from wb.submit(WritebackItem(1, 0, 2 * PAGE))
        # At the cap, but a re-write of the same pages adds nothing.
        yield from wb.submit(WritebackItem(1, 0, 2 * PAGE))
        assert env.now == 0.0

    env.run(until=env.process(proc(env)))
    assert wb.throttle_waits == 0


# -- WritebackDaemon drain/stop semantics --------------------------------------


def _loaded_daemon(n_items=3, pages=15):
    """A daemon with ``n_items`` separate ``pages``-page items
    submitted against a slow disk (a page apart: one run each)."""
    env = Environment()
    disk = DiskModel(env, transfer_bytes_per_s=1e6)
    wb = WritebackDaemon(env, disk)
    wb.start()

    def submit(env):
        for i in range(n_items):
            yield from wb.submit(
                WritebackItem(1, i * (pages + 1) * PAGE, pages * PAGE)
            )

    env.process(submit(env))
    return env, disk, wb


def test_writeback_backlog_accounting():
    env, _disk, wb = _loaded_daemon(n_items=3, pages=15)
    assert wb.idle()  # nothing submitted yet at t=0
    env.run(until=0.001)
    # One run is on the platter, two are dirty; all 45 pages are owed
    # until their writes land.
    assert wb.dirty_pages == 45
    assert wb.dirty_bytes == 45 * PAGE
    assert not wb.idle()
    env.run()
    assert wb.dirty_pages == 0 and wb.dirty_bytes == 0
    assert wb.idle()
    assert wb.runs_written == 3 and wb.bytes_written == 45 * PAGE


def test_writeback_stop_reports_dropped_backlog():
    env, disk, wb = _loaded_daemon(n_items=3, pages=15)
    env.run(until=0.001)  # first run still in flight
    report = wb.stop()
    assert report.dropped == {"dirty_pages": 45, "dirty_bytes": 45 * PAGE}
    assert report.total_dropped == 45 + 45 * PAGE
    assert wb.svc_stats.dropped == report.dropped
    # The killed pump never finished even the in-flight run.
    assert wb.runs_written == 0
    assert disk.writes == 0


def test_writeback_stop_after_drain_drops_nothing():
    env, disk, wb = _loaded_daemon(n_items=3, pages=15)
    drained = env.process(wb.drain())
    env.run(until=drained)
    assert wb.idle()
    assert wb.runs_written == 3 and disk.writes == 3
    report = wb.stop()
    assert report.dropped == {}
    assert report.total_dropped == 0


def test_writeback_drain_blocks_until_queue_and_dirty_empty():
    env, _disk, wb = _loaded_daemon(n_items=2, pages=15)
    seen = {}

    def drainer(env):
        yield from wb._drain()
        seen["t"] = env.now
        seen["idle"] = wb.idle()

    env.process(drainer(env))
    env.run()
    # Two 60 KB runs at 1 MB/s dominate: drain cannot return before
    # the second run lands (~0.12 s of media time plus a seek).
    assert seen["idle"] is True
    assert seen["t"] >= 0.12


def test_writeback_stop_is_idempotent_after_stop():
    env, _disk, wb = _loaded_daemon(n_items=1, pages=15)
    env.run()
    first = wb.stop()
    second = wb.stop()
    assert first.dropped == {} and second.dropped == {}


# -- RpcChannel ---------------------------------------------------------------


def _pair(env, net):
    api_s = SocketAPI(net, "s")
    api_c = SocketAPI(net, "c")
    listener = api_s.listen(1)
    out = {}

    def srv(env):
        out["server"] = yield listener.accept()

    def cli(env):
        out["client"] = yield env.process(api_c.connect("s", 1))

    env.process(srv(env))
    env.process(cli(env))
    env.run()
    return out["client"], out["server"]


def test_rpc_correlates_out_of_order_responses():
    env = Environment()
    net = Network(env)
    client, server = _pair(env, net)
    channel = RpcChannel(client, label="test")
    got = {}

    def cli(env):
        c1 = channel.call(Message(kind="q1", size_bytes=10))
        c2 = channel.call(Message(kind="q2", size_bytes=10))
        r2 = yield c2.response()
        r1 = yield c1.response()
        got["r1"], got["r2"] = r1.kind, r2.kind
        c1.close()
        c2.close()

    def srv(env):
        m1 = yield server.recv()
        m2 = yield server.recv()
        # answer in REVERSE order
        yield server.send(m2.reply("a2", 10))
        yield server.send(m1.reply("a1", 10))

    env.process(cli(env))
    env.process(srv(env))
    env.run()
    assert got == {"r1": "a1", "r2": "a2"}
    assert channel.outstanding == 0


def test_rpc_multiple_responses_per_call():
    env = Environment()
    net = Network(env)
    client, server = _pair(env, net)
    channel = RpcChannel(client, label="test")
    kinds = []

    def cli(env):
        call = channel.call(Message(kind="read", size_bytes=10))
        for _ in range(2):
            resp = yield call.response()
            kinds.append(resp.kind)
        call.close()

    def srv(env):
        req = yield server.recv()
        yield server.send(req.reply("ack", 8))
        yield server.send(req.reply("data", 4096))

    env.process(cli(env))
    env.process(srv(env))
    env.run()
    assert kinds == ["ack", "data"]


def test_rpc_orphan_responses_counted():
    env = Environment()
    net = Network(env)
    client, server = _pair(env, net)
    channel = RpcChannel(client, label="test")

    def srv(env):
        # unsolicited response correlated to nothing
        yield server.send(
            Message(kind="spam", size_bytes=1, reply_to=999999)
        )
        yield server.send(Message(kind="spam2", size_bytes=1))

    env.process(srv(env))
    env.run()
    assert channel.orphans == 2
