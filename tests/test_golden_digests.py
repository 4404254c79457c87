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
        "d50b81c9d393b2e9ecb31ecacc5a46b0b35c2421d48fb50a32821591dbc6ee18",
    "attacks/drop_enroll.json":
        "ae8b939411f35bec3ba96edd51abfd4274f9b92c220225511e07bcd8651de88a",
    "attacks/forge_transfer.json":
        "b1d2e8201ee2f0bdc50ae830550c35a3d51ae2083b19a6ae803e52b7e7c1cb8e",
    "attacks/modify_transfer.json":
        "ee874b6e7383cdc347744115afc822ae7512cdd76c07a7c262f2605d02018130",
    "attacks/replay_transfer.json":
        "7718806737a8f961e467f62769f673537397efa6d61a24e323f46e94ca2884e9",
    "baseline_d.json":
        "01a61d298b4d21b93b7aea108e5256b1930839654cb30238d75d83de6b16ad00",
    "full_options_a.json":
        "df6d1cbf70adb2c8e5bd6816122116ca457b42ad2b08980792d7f18a8cea945e",
    "no_ca2_root_a.json":
        "7b4aab1b03ea9bab58bb8e62fe546688b79f9840a279168d7a006ff87a0a6f92",
    "ra_tamper.json":
        "fd225b7c4819d4d6adc4563e721c3bd6af488caf50562768390de9c89d7a6e66",
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
        "c4d91d2ab7cffcb58690374e94d7a0cdb52c2ac8b6abc2cb8e7357738cdb2eaa"),
    # every tenth delivery dropped: retry and timeout paths
    "drop_10pct_c": (
        ScenarioConfig(name="drop_10pct_c", variant="c", device_count=4,
                       seed=3, adversary="drop_10pct"),
        "cc9ad70700c3e1ff7e5fedd227dae74d2bebadbef63063a3d7f7814eb8e5b397"),
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
