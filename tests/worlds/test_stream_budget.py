"""Stream budget: how many named RNG streams building a world creates.

Each stream costs a SHA-256 and a Mersenne Twister seed, so per-client
streams dominate world assembly at fleet scale.  A fleet client gets
its two latency streams (``lat.target.<id>``, ``lat.coord.<id>``) and a
``client.<id>`` liveness stream only if its unresponsive probability
is fractional — a coin whose outcome is fixed is never drawn.
"""

import dataclasses

import pytest

from repro.core.config import MFCConfig
from repro.core.stages import StageKind
from repro.server.presets import qtnp_server
from repro.sim.rng import RNGRegistry
from repro.workload import fleet as fleet_module
from repro.workload.fleet import FleetSpec
from repro.worlds import WorldSpec

#: streams a scenario world creates besides its per-client ones: fleet,
#: coordinator, cohort, background, control.loss, and the two latency
#: streams of each of the 8 background nodes
FIXED_STREAMS = 21


def cohort_world(n_clients, seed=0):
    """The shape of the benchmark's cohort-crowd worlds."""
    return WorldSpec(
        scenario=qtnp_server(),
        fleet=FleetSpec(n_clients=n_clients),
        config=MFCConfig(
            threshold_s=0.100,
            max_crowd=2000,
            crowd_step=250,
            initial_crowd=250,
            min_clients=50,
        ),
        seed=seed,
        stage_kinds=(StageKind.LARGE_OBJECT,),
        crowd_mode="cohort",
    )


@pytest.fixture
def created(monkeypatch):
    """Names of the registry streams created, in creation order."""
    names = []
    original = RNGRegistry.stream

    def stream(self, name):
        if name not in self._streams:
            names.append(name)
        return original(self, name)

    monkeypatch.setattr(RNGRegistry, "stream", stream)
    return names


def test_cohort_world_creates_two_streams_per_fleet_client(created):
    runner = cohort_world(2000).build()
    probs = {c.node.spec.unresponsive_prob for c in runner.clients}
    # the fleet has both fixed outcomes and nothing in between
    assert probs == {0.0, 1.0}
    assert len(created) == 2 * 2000 + FIXED_STREAMS
    assert len(set(created)) == len(created)
    assert not [name for name in created if name.startswith("client.")]


def test_fractional_clients_get_their_liveness_stream(created, monkeypatch):
    original = fleet_module.build_fleet
    fractional = {"pl003": 0.3, "pl017": 0.7}

    def fleet_with_fractional(spec, rng=None, id_prefix="pl"):
        return [
            dataclasses.replace(c, unresponsive_prob=fractional[c.client_id])
            if c.client_id in fractional
            else c
            for c in original(spec, rng=rng, id_prefix=id_prefix)
        ]

    monkeypatch.setattr(fleet_module, "build_fleet", fleet_with_fractional)
    cohort_world(60).build()
    assert len(created) == 2 * 60 + FIXED_STREAMS + len(fractional)
    assert sorted(n for n in created if n.startswith("client.")) == [
        "client.pl003",
        "client.pl017",
    ]
