"""Golden trace digests: refactors must keep every trace byte-identical.

Each digest is the SHA-256 of the rendered trace of one scenario. A change
that alters any of them changes observable protocol behaviour (message
bytes, RNG draw order, event order or trace fields) and has to say why.
"""

from pathlib import Path

import pytest

from trustshift.scenario import ScenarioConfig, ScenarioOptions, run_scenario

REPO = Path(__file__).resolve().parent.parent

SHIPPED = {
    "attacks/cross_session_replay.json":
        "fcf74e3d7e38a8e7332e65a7ce1c6d781b0e4baa0f621656025bd0a43fe9baa7",
    "attacks/drop_enroll.json":
        "3f620ba4a74336531aaf9baa86f86b92ec6aa16d0cd35852dbfb6b188de9cb8c",
    "attacks/forge_transfer.json":
        "aea325a4988540771d7ef40515819aa30caa7cc58e63eae88c4b8a1bc16f2d75",
    "attacks/modify_transfer.json":
        "4e29304886d28e1489df8bf1e1ac83f707657ec45072e8a296fa0051355d5340",
    "attacks/replay_transfer.json":
        "df8fa3759272c7416efe84ec7fd56375a2bf74f585cfd3b5a5c36ac395d2044e",
    "baseline_d.json":
        "17822e89da0e1ce364c04391a2a21a9fdacc20d6e28e182e15d47b88ce5a37b9",
    "full_options_a.json":
        "3007faea4a468f35e2d2c495020d6b612cb5494c82b6fae6adfc86e84692c59c",
    "no_ca2_root_a.json":
        "76dbaf55ea1069c60181da73127dd45ee9fe956aa358918cb153d4ad186542e2",
    "ra_tamper.json":
        "f2145824e09bd493a09c86e42f776da167dcd0beab531a14f8eeb8217fce0518",
}

INLINE = {
    # every delivery replayed, every option on: replay and RA/update paths
    "replay_all_full_options": (
        ScenarioConfig(name="replay_all_full_options", variant="a",
                       device_count=4, seed=7, adversary="replay_all",
                       options=ScenarioOptions(
                           use_ra=True, contact_update_before_enroll=True,
                           server_keygen=True, last_sp1_update=True,
                           sp1_fallback_ra=True)),
        "670eb05d726e75ca51d87c33cbd7de5b8dc13c1440b596c198cedf5d72541e60"),
    # every tenth delivery dropped: retry and timeout paths
    "drop_10pct_c": (
        ScenarioConfig(name="drop_10pct_c", variant="c", device_count=4,
                       seed=3, adversary="drop_10pct"),
        "7143126f15b6fbd23f8dc73e217ac8a230b0ab74b242388dab866d448d0fc907"),
}


def test_every_shipped_config_is_pinned():
    shipped = {str(p.relative_to(REPO / "configs"))
               for p in (REPO / "configs").rglob("*.json")}
    assert shipped == set(SHIPPED)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_digest(name):
    result = run_scenario(ScenarioConfig.from_file(REPO / "configs" / name))
    assert result.trace.digest() == SHIPPED[name]


@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_scenario_digest(name):
    config, digest = INLINE[name]
    assert run_scenario(config).trace.digest() == digest
