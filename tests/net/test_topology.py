"""Tests for topology assembly."""

import pytest

from repro.net import Topology, TopologySpec
from repro.net.topology import ClientSpec
from repro.sim import Simulator, SimulationError, RNGRegistry


def two_client_spec(**overrides):
    base = dict(
        server_access_bps=1e6,
        clients=[
            ClientSpec("c0", rtt_to_target=0.05, rtt_to_coord=0.02, access_bps=1e6),
            ClientSpec("c1", rtt_to_target=0.15, rtt_to_coord=0.08, access_bps=5e5),
        ],
    )
    base.update(overrides)
    return TopologySpec(**base)


def test_builds_links_per_client():
    sim = Simulator()
    topo = Topology(sim, two_client_spec())
    assert len(topo) == 2
    assert topo.server_access.capacity_bps == 1e6
    assert topo.client("c1").access_link.capacity_bps == 5e5


def test_download_path_order():
    sim = Simulator()
    topo = Topology(sim, two_client_spec())
    path = topo.client("c0").download_path(topo.server_access)
    assert [l.name for l in path] == ["server-access", "client-access:c0"]


def test_bottleneck_group_inserted_in_path():
    spec = TopologySpec(
        server_access_bps=1e6,
        clients=[
            ClientSpec(
                "c0", 0.05, 0.02, 1e6, bottleneck_group="transatlantic"
            ),
        ],
        shared_bottlenecks={"transatlantic": 2e5},
    )
    sim = Simulator()
    topo = Topology(sim, spec)
    path = topo.client("c0").download_path(topo.server_access)
    assert [l.name for l in path] == [
        "server-access",
        "bottleneck:transatlantic",
        "client-access:c0",
    ]
    assert topo.bottleneck("transatlantic").capacity_bps == 2e5


def test_unknown_bottleneck_group_rejected():
    spec = TopologySpec(
        server_access_bps=1e6,
        clients=[ClientSpec("c0", 0.05, 0.02, 1e6, bottleneck_group="ghost")],
    )
    with pytest.raises(ValueError, match="ghost"):
        Topology(Simulator(), spec)


def test_duplicate_client_ids_rejected():
    spec = TopologySpec(
        server_access_bps=1e6,
        clients=[
            ClientSpec("dup", 0.05, 0.02, 1e6),
            ClientSpec("dup", 0.06, 0.03, 1e6),
        ],
    )
    with pytest.raises(ValueError, match="duplicate"):
        Topology(Simulator(), spec)


@pytest.mark.parametrize("prob", [1.5, -0.2, float("nan")])
def test_unresponsive_prob_outside_unit_interval_rejected(prob):
    spec = TopologySpec(
        server_access_bps=1e6,
        clients=[ClientSpec("flaky", 0.05, 0.02, 1e6, unresponsive_prob=prob)],
    )
    with pytest.raises(ValueError, match="flaky has unresponsive_prob"):
        spec.validate()
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        Topology(Simulator(), spec)


@pytest.mark.parametrize("prob", [0.0, 0.3, 1.0])
def test_unresponsive_prob_in_unit_interval_accepted(prob):
    spec = TopologySpec(
        server_access_bps=1e6,
        clients=[ClientSpec("c0", 0.05, 0.02, 1e6, unresponsive_prob=prob)],
    )
    spec.validate()
    assert len(Topology(Simulator(), spec)) == 1


def test_empty_topology_rejected():
    with pytest.raises(SimulationError):
        Topology(Simulator(), TopologySpec(server_access_bps=1e6, clients=[]))


def test_unknown_client_lookup_raises():
    topo = Topology(Simulator(), two_client_spec())
    with pytest.raises(KeyError):
        topo.client("nope")


def test_latencies_deterministic_per_seed():
    def sample(seed):
        topo = Topology(Simulator(), two_client_spec(), rngs=RNGRegistry(seed))
        return topo.client("c0").latency_to_target.sample_rtt()

    assert sample(5) == sample(5)
    assert sample(5) != sample(6)


def test_coordinator_latency_lookup():
    topo = Topology(Simulator(), two_client_spec())
    lat = topo.coordinator.latency_to("c1")
    assert lat.base_rtt == 0.08
