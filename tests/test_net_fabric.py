"""Tests for the two fabric models (shared hub vs switched)."""

import pytest

from repro.net import Network, SharedHubFabric, SwitchedFabric
from repro.sim import Environment


def _timed_transfer(env, fabric, src, dst, size, finish, tag):
    def proc(env):
        yield fabric.transfer(src, dst, size)
        finish[tag] = env.now

    env.process(proc(env))


def test_switched_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SwitchedFabric(env, bandwidth_bps=0)
    with pytest.raises(ValueError):
        SwitchedFabric(env, frame_bytes=0)


def test_switched_negative_size_rejected():
    env = Environment()
    fab = SwitchedFabric(env)

    def proc(env):
        yield fab.transfer("a", "b", -1)

    p = env.process(proc(env))
    env.run()
    assert not p.ok and isinstance(p.value, ValueError)


def test_switched_disjoint_pairs_do_not_contend():
    """a->b and c->d run at full speed simultaneously on a switch."""
    env = Environment()
    fab = SwitchedFabric(env, bandwidth_bps=100e6, base_latency_s=0)
    finish = {}
    _timed_transfer(env, fab, "a", "b", 2**20, finish, "ab")
    _timed_transfer(env, fab, "c", "d", 2**20, finish, "cd")
    env.run()
    solo = 2**20 * 8 / 100e6
    assert finish["ab"] == pytest.approx(solo, rel=0.02)
    assert finish["cd"] == pytest.approx(solo, rel=0.02)


def test_shared_hub_disjoint_pairs_do_contend():
    """The same two transfers on a hub each take ~2x solo time."""
    env = Environment()
    fab = SharedHubFabric(env, bandwidth_bps=100e6, base_latency_s=0)
    finish = {}
    _timed_transfer(env, fab, "a", "b", 2**20, finish, "ab")
    _timed_transfer(env, fab, "c", "d", 2**20, finish, "cd")
    env.run()
    solo = 2**20 * 8 / 100e6
    assert finish["ab"] >= 1.9 * solo
    assert finish["cd"] >= 1.9 * solo


def test_switched_shared_receiver_contends():
    """Two senders to one receiver split the receiver's port rate."""
    env = Environment()
    fab = SwitchedFabric(env, bandwidth_bps=100e6, base_latency_s=0)
    finish = {}
    _timed_transfer(env, fab, "a", "x", 2**20, finish, "ax")
    _timed_transfer(env, fab, "b", "x", 2**20, finish, "bx")
    env.run()
    solo = 2**20 * 8 / 100e6
    assert finish["ax"] >= 1.8 * solo
    assert finish["bx"] >= 1.8 * solo


def test_switched_shared_sender_contends():
    env = Environment()
    fab = SwitchedFabric(env, bandwidth_bps=100e6, base_latency_s=0)
    finish = {}
    _timed_transfer(env, fab, "x", "a", 2**20, finish, "xa")
    _timed_transfer(env, fab, "x", "b", 2**20, finish, "xb")
    env.run()
    solo = 2**20 * 8 / 100e6
    assert finish["xa"] >= 1.8 * solo
    assert finish["xb"] >= 1.8 * solo


def test_switched_full_duplex():
    """a->b and b->a can run simultaneously at full rate (full duplex)."""
    env = Environment()
    fab = SwitchedFabric(env, bandwidth_bps=100e6, base_latency_s=0)
    finish = {}
    _timed_transfer(env, fab, "a", "b", 2**20, finish, "ab")
    _timed_transfer(env, fab, "b", "a", 2**20, finish, "ba")
    env.run()
    solo = 2**20 * 8 / 100e6
    assert finish["ab"] == pytest.approx(solo, rel=0.02)
    assert finish["ba"] == pytest.approx(solo, rel=0.02)


def test_switched_unloaded_time_formula():
    env = Environment()
    fab = SwitchedFabric(env, bandwidth_bps=100e6, base_latency_s=1e-4)
    assert fab.transfer_time_unloaded(65536) == pytest.approx(
        1e-4 + 65536 * 8 / 100e6
    )


def test_switched_accounting():
    env = Environment()
    fab = SwitchedFabric(env, frame_bytes=1000)

    def proc(env):
        yield fab.transfer("a", "b", 2500)

    env.process(proc(env))
    env.run()
    assert fab.bytes_transferred == 2500
    assert fab.frames_transferred == 3


def test_network_accepts_custom_fabric():
    env = Environment()
    fab = SharedHubFabric(env)
    net = Network(env, fabric=fab)
    assert net.fabric is fab
