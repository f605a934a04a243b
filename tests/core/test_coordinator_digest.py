"""Byte-level freeze of the coordinator's observable behaviour.

Each world below runs the chaos grid's compact shape
(:func:`~repro.faults.chaos.chaos_config` / ``chaos_fleet``) at a fixed
seed, and its full-detail encoding — every epoch, every client report,
every float — is hashed.  The matrix crosses two structurally
different scenarios with both crowd modes and eleven coordinator
setups: fault-free unhardened, fault-free hardened, and every shipped
fault preset under the hardened coordinator.  Between them they drive
invalid-epoch retries, retry-limit and safety aborts, re-liveness
quarantine and attrition-truncated crowd caps, so a refactor of the
stage loop that changes any event, RNG draw or annotation on those
paths shows up here as a digest mismatch.
"""

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from repro.campaign.codec import encode_result
from repro.faults.chaos import chaos_config, chaos_fleet
from repro.faults.spec import FAULT_PRESETS
from repro.worlds import SCENARIO_PRESETS, WorldSpec

SEED = 0
SCENARIOS = ("lab", "qtnp")
MODES = ("exact", "cohort")
SETUPS = ("clean-unhardened", "clean-hardened") + tuple(sorted(FAULT_PRESETS))

#: sha256 of the canonical full-detail encoding, per scenario|mode|setup
DIGESTS = {
    "lab|cohort|blackhole":
        "0fc1744de78e156e3dc7a80bccf0fe986429d2dc7a42b0d3db2fe609af58e361",
    "lab|cohort|clean-hardened":
        "2d4e93783c3bdc841fdac346c5d08a32ac0fc9baf27b9af81da9dff9ab974990",
    "lab|cohort|clean-unhardened":
        "d557939b54b289c3b05278d8cba24a6d38ba7a039bcc0c14157062d6878ca957",
    "lab|cohort|crash":
        "6810f17d4fcee525c973ae05e5d2056f714d378315a5d7fa5c5d75755badc227",
    "lab|cohort|dropout":
        "1667aa99c4cbf0cae8bbbf2c8e4b553fbde9fa57a15f8f8d7f3abf868c23050d",
    "lab|cohort|flap":
        "2d4e93783c3bdc841fdac346c5d08a32ac0fc9baf27b9af81da9dff9ab974990",
    "lab|cohort|report-loss":
        "c573f16c546f383b99afc6f8c171e2dc0ea4e1e563794728b1fac3c2e9461734",
    "lab|cohort|reset":
        "abe6b499ed0aec5f0a4031b934daa44ea9d799315132c112007b78f157a1e4cf",
    "lab|cohort|stall":
        "119a036c89ff2a4f5690bc261999bfaade635d9b881b8287568236e170c00eb1",
    "lab|cohort|storm":
        "4f1c1c995ec0917e4fa9dea8f2f914ad34b98690d0ff6ef695ede47395b52a82",
    "lab|exact|blackhole":
        "f06fcd2889968dc1a2d1e18ee1d58a4bb31d25345f4d7666b4a4fe22869c1422",
    "lab|exact|clean-hardened":
        "bfec356f5d222cfb6784c74dc5476f13b462bae48a3c1bf225fc9637ac0c3f47",
    "lab|exact|clean-unhardened":
        "1613774ec891d0001d6ab7865999f614c3f05aa8b1e0eb8baebf472c3bd2329e",
    "lab|exact|crash":
        "92d396ecf11ad99309383347bd9219e81fa9aa214b089b6d19e66a5684c1ccdc",
    "lab|exact|dropout":
        "f1738eb17d433558cec1c3580d1e32cdede6bd95d08197a68d03f579c839f66b",
    "lab|exact|flap":
        "bfec356f5d222cfb6784c74dc5476f13b462bae48a3c1bf225fc9637ac0c3f47",
    "lab|exact|report-loss":
        "9bdb4c59549e8eaeb2382ef51bcfda3f206a7d7d458529b23948e5e2aa34829f",
    "lab|exact|reset":
        "b93c2ed1a0623812c6a32733246a23d0b0ccca44ef8bae038ab153fa3b5e5b29",
    "lab|exact|stall":
        "7260de37ac9ea7611b77ee4f67b165f95db55912244ce986d813b1d049c4984d",
    "lab|exact|storm":
        "e8a0bbdeb2bb91e3d884f79801b5b7332c86bea0802c521c4ea44b9fe509c5f2",
    "qtnp|cohort|blackhole":
        "c148ae9e9f447e2f5540ca942230ea148d03247867f455d1c573225eabb37d62",
    "qtnp|cohort|clean-hardened":
        "9fd152ac4784a03d122d01a558111920961c6605f7d18226fe7466c457526dc9",
    "qtnp|cohort|clean-unhardened":
        "c408287c9b40c5e61ca7243c0f5f1a2818a4ef1af81b411c44c6e1cdf862f95d",
    "qtnp|cohort|crash":
        "82d0c374424f7cd121c8e5ea486fbd33740911a858a06f39e87f17dc14004980",
    "qtnp|cohort|dropout":
        "5b84afe0489531e24aaf006a435bc230d4cbaf62a8f5692bd27d87876bf3d709",
    "qtnp|cohort|flap":
        "9fd152ac4784a03d122d01a558111920961c6605f7d18226fe7466c457526dc9",
    "qtnp|cohort|report-loss":
        "4c5fb65314d3dd24a462498a2c13f97b0df94ebeb0d65fcbbae298ca1183c1fb",
    "qtnp|cohort|reset":
        "371492ac16c567d1c6b7b771c9e3bcf8805ecf9418d00d2601e83740b4dd0793",
    "qtnp|cohort|stall":
        "7435828ccf6336cee5a4deba7e0a9ead9aac6bea2e10628e7444660ac2db9198",
    "qtnp|cohort|storm":
        "8dd3ef9c882ad05467f928d679219e5821127d22cde4b9100db6686657ea0864",
    "qtnp|exact|blackhole":
        "5aaa6bf2e69322bbc3818078fecb6dec861f7995054792f3c38a7a9f45626bb8",
    "qtnp|exact|clean-hardened":
        "793d263e1c85077de7668be2c515ddc7a1fbc4129712f1f500bfdbd2d893ad0a",
    "qtnp|exact|clean-unhardened":
        "b635c03d6b1c80e524a800d74a942524a494253546455f994a3ffbd129e6c931",
    "qtnp|exact|crash":
        "c90d5251c40178419769fc4c44ef9c5999a5db53030b3515ae389d8b725e3c34",
    "qtnp|exact|dropout":
        "a159d0392859387eca3086b0f8a41080d545240ab547b08ec9a6757fb9f9441f",
    "qtnp|exact|flap":
        "793d263e1c85077de7668be2c515ddc7a1fbc4129712f1f500bfdbd2d893ad0a",
    "qtnp|exact|report-loss":
        "390add46e23cd06d93a78c983fb79c24a35b0e8491a676be78c1856f1a86596e",
    "qtnp|exact|reset":
        "d9ac9a807ff1ca609fa870ec8c1fd376cce91600979d7d5af2968db0af246924",
    "qtnp|exact|stall":
        "aef9c119157542022ed5e7a4e633c8b8505eed658212dbb4ee9850545cc555b9",
    "qtnp|exact|storm":
        "6d84ad2dcd15a7dadb12a00d2a179dad289657c513c74f120bc47ff1411d7eeb",
}


def _world(scenario: str, mode: str, setup: str) -> WorldSpec:
    config = chaos_config()
    faults = None
    if setup == "clean-unhardened":
        config = replace(config, hardening=False)
    elif setup != "clean-hardened":
        faults = FAULT_PRESETS[setup]()
    return WorldSpec(
        scenario=SCENARIO_PRESETS[scenario](),
        fleet=chaos_fleet(),
        config=config,
        seed=SEED,
        crowd_mode=mode,
        faults=faults,
    )


@functools.lru_cache(maxsize=None)
def _run(key: str):
    """(sha256 of the full encoding, the result's stages) for one world."""
    result = _world(*key.split("|")).build().run()
    doc = encode_result(result, detail="full")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), list(result.stages.values())


def test_matrix_is_complete():
    keys = {f"{s}|{m}|{c}" for s in SCENARIOS for m in MODES for c in SETUPS}
    assert keys == set(DIGESTS)


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_full_encoding_digest(key):
    digest, _ = _run(key)
    assert digest == DIGESTS[key]


def test_matrix_reaches_the_hardened_paths():
    stages = [stage for key in sorted(DIGESTS) for stage in _run(key)[1]]
    reasons = [stage.reason or "" for stage in stages]
    assert any(stage.invalid_epochs for stage in stages)
    assert any(stage.quarantined_clients for stage in stages)
    assert any(stage.truncated_crowd_cap is not None for stage in stages)
    assert any("attempts" in reason for reason in reasons)
    assert any(reason.startswith("safety abort") for reason in reasons)
