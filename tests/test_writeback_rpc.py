"""Tests for the writeback daemon and the RPC channel."""

import pytest

from repro.disk import DiskModel
from repro.disk.writeback import WritebackDaemon, WritebackItem
from repro.net import Message, Network, SocketAPI
from repro.sim import Environment
from repro.svc.rpc import RpcChannel


# -- WritebackDaemon -----------------------------------------------------------


def test_writeback_validation():
    env = Environment()
    disk = DiskModel(env)
    with pytest.raises(ValueError):
        WritebackDaemon(env, disk, max_dirty_bytes=0)


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
    # submit returned immediately (enqueue only)...
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


def test_writeback_throttles_when_dirty_cap_exceeded():
    env = Environment()
    disk = DiskModel(env, transfer_bytes_per_s=1e6)  # slow disk
    wb = WritebackDaemon(env, disk, max_dirty_bytes=100_000)
    wb.start()
    times = []

    def proc(env):
        for _ in range(4):
            yield from wb.submit(WritebackItem(1, 0, 60_000))
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert wb.throttle_waits > 0
    assert times[0] == 0.0
    assert times[-1] > 0.0  # later submits waited for drain


def test_writeback_fifo_order():
    env = Environment()
    disk = DiskModel(env)
    wb = WritebackDaemon(env, disk)
    wb.start()

    def proc(env):
        yield from wb.submit(WritebackItem(1, 0, 4096))
        yield from wb.submit(WritebackItem(1, 4096, 4096))

    env.process(proc(env))
    env.run()
    # sequential items -> only the first seeks
    assert disk.seeks == 1
    assert wb.items_written == 2


# -- WritebackDaemon drain/stop semantics --------------------------------------


def _loaded_daemon(n_items=3, nbytes=60_000):
    """A daemon with ``n_items`` submitted against a slow disk."""
    env = Environment()
    disk = DiskModel(env, transfer_bytes_per_s=1e6)
    wb = WritebackDaemon(env, disk)
    wb.start()

    def submit(env):
        for i in range(n_items):
            yield from wb.submit(WritebackItem(1, i * nbytes, nbytes))

    env.process(submit(env))
    return env, disk, wb


def test_writeback_backlog_accounting():
    env, _disk, wb = _loaded_daemon(n_items=3, nbytes=60_000)
    assert wb.idle()  # nothing submitted yet at t=0
    env.run(until=0.001)
    # One item is in service (pulled off the mailbox), two queued; all
    # three are still counted dirty until their writes land.
    assert wb.backlog == 2
    assert wb.dirty_bytes == 180_000
    assert not wb.idle()
    env.run()
    assert wb.backlog == 0 and wb.dirty_bytes == 0
    assert wb.idle()
    assert wb.items_written == 3 and wb.bytes_written == 180_000


def test_writeback_stop_reports_dropped_backlog():
    env, disk, wb = _loaded_daemon(n_items=3, nbytes=60_000)
    env.run(until=0.001)  # first write still in flight
    report = wb.stop()
    assert report.dropped == {"queued_items": 2, "dirty_bytes": 180_000}
    assert report.total_dropped == 2 + 180_000
    assert wb.svc_stats.dropped == report.dropped
    # The killed pump never finished even the in-flight write.
    assert wb.items_written == 0
    assert disk.writes == 0


def test_writeback_stop_after_drain_drops_nothing():
    env, disk, wb = _loaded_daemon(n_items=3, nbytes=60_000)
    drained = env.process(wb.drain())
    env.run(until=drained)
    assert wb.idle()
    assert wb.items_written == 3 and disk.writes == 3
    report = wb.stop()
    assert report.dropped == {}
    assert report.total_dropped == 0


def test_writeback_drain_blocks_until_queue_and_dirty_empty():
    env, _disk, wb = _loaded_daemon(n_items=2, nbytes=60_000)
    seen = {}

    def drainer(env):
        yield from wb._drain()
        seen["t"] = env.now
        seen["idle"] = wb.idle()

    env.process(drainer(env))
    env.run()
    # Two 60 KB writes at 1 MB/s dominate: drain cannot return before
    # the second write lands (~0.12 s of media time plus a seek).
    assert seen["idle"] is True
    assert seen["t"] >= 0.12


def test_writeback_stop_is_idempotent_after_stop():
    env, _disk, wb = _loaded_daemon(n_items=1, nbytes=60_000)
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
    channel = RpcChannel(client)
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
    channel = RpcChannel(client)
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
    channel = RpcChannel(client)

    def srv(env):
        # unsolicited response correlated to nothing
        yield server.send(
            Message(kind="spam", size_bytes=1, reply_to=999999)
        )
        yield server.send(Message(kind="spam2", size_bytes=1))

    env.process(srv(env))
    env.run()
    assert channel.orphans == 2
