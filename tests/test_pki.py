"""PKI tests: hierarchies, truststores, chains, issuance, revocation."""

import random

import pytest

from trustshift import crypto, pki
from trustshift.errors import (
    BadProofOfPossession,
    InvalidValidityWindow,
    InvariantViolation,
    NameMismatch,
    NotRegistered,
    RevokedFactoryCert,
    UnknownSerial,
    UnverifiableFactoryCert,
)
from trustshift.messages import CertProfile, CompactCertificate

NOW = 1_000
LIFETIME = (0, 10**9)


def build(variant, seed=1):
    return pki.build_hierarchy(variant, random.Random(seed))


def device_key(tag):
    return crypto.generate_key_pair(crypto.digest(tag))


def factory_cert_for(h, name=b"dev-1", key=None):
    key = key or device_key(name)
    csr = pki.make_csr(name, key, CertProfile.FACTORY)
    return pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, LIFETIME), key


# ---------------------------------------------------------------------------
# hierarchy construction
# ---------------------------------------------------------------------------

def test_variant_a_separate_roots():
    h = build("a")
    assert h.ca1.certificate.is_self_signed
    assert h.ca2.certificate.is_self_signed
    assert h.ca1 is not h.permanent


def test_variant_b_ca1_under_permanent():
    h = build("b")
    assert h.ca1.certificate.issuer_name == pki.PERMANENT_CA_NAME
    assert h.ca2.certificate.is_self_signed


@pytest.mark.parametrize("variant", ["c", "d"])
def test_variant_cd_ca2_verifies_with_permanent_root_alone(variant):
    h = build(variant)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    assert pki.verify_chain(h.ca2.certificate, [], store, NOW, set())


def test_variant_d_ca1_is_permanent():
    h = build("d")
    assert h.ca1 is h.permanent


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_all_ca_certs_verify_along_declared_chains(variant):
    h = build(variant)
    for ca in h.cas():
        root_name = (ca.name if ca.certificate.is_self_signed
                     else ca.certificate.issuer_name)
        store = h.store_for({root_name})
        assert pki.verify_chain(ca.certificate, [], store, NOW, set()), ca.name


# ---------------------------------------------------------------------------
# minimal truststore oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant,phase,expected", [
    ("a", pki.TrustPhase.PRE_ENROLL, {b"ca1"}),
    ("a", pki.TrustPhase.PRE_TRANSFER, {b"ca1", b"ca2"}),
    ("b", pki.TrustPhase.PRE_ENROLL, {b"permanent-ca"}),
    ("b", pki.TrustPhase.PRE_TRANSFER, {b"permanent-ca", b"ca2"}),
    ("c", pki.TrustPhase.PRE_ENROLL, {b"permanent-ca"}),
    ("c", pki.TrustPhase.PRE_TRANSFER, {b"permanent-ca"}),
    ("d", pki.TrustPhase.PRE_ENROLL, {b"permanent-ca"}),
    ("d", pki.TrustPhase.PRE_TRANSFER, {b"permanent-ca"}),
])
def test_minimal_truststore_matrix(variant, phase, expected):
    assert pki.minimal_truststore(variant, phase) == expected


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_minimal_pretransfer_suffices_for_ca2(variant):
    """With exactly the pre-transfer roots, a device can verify CA2's
    presented chain; removing any listed root breaks some verification."""
    h = build(variant)
    names = pki.minimal_truststore(variant, pki.TrustPhase.PRE_TRANSFER)
    store = h.store_for(names)
    assert pki.verify_chain(h.ca2.certificate, list(h.ca2.issuer_chain),
                            store, NOW, set())
    for removed in sorted(names):
        pruned = h.store_for(names - {removed})
        ca1_ok = pki.verify_chain(h.ca1.certificate, list(h.ca1.issuer_chain),
                                  pruned, NOW, set())
        ca2_ok = pki.verify_chain(h.ca2.certificate, list(h.ca2.issuer_chain),
                                  pruned, NOW, set())
        assert not (ca1_ok and ca2_ok), f"removing {removed!r} changed nothing"


# ---------------------------------------------------------------------------
# issuance
# ---------------------------------------------------------------------------

def test_issue_certificate_contract():
    h = build("b")
    key = device_key(b"dev-9")
    csr = pki.make_csr(b"dev-9", key, CertProfile.FACTORY)
    cert = pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, LIFETIME)
    assert cert.issuer_name == h.permanent.name
    store = h.store_for({pki.PERMANENT_CA_NAME})
    assert pki.verify_chain(cert, [], store, NOW, set())


def test_issue_rejects_corrupt_pop():
    h = build("b")
    key = device_key(b"dev-9")
    csr = pki.make_csr(b"dev-9", key, CertProfile.FACTORY)
    pop = csr.proof_of_possession
    bad = type(csr)(csr.subject_name, csr.subject_public_key,
                    csr.requested_profile,
                    pop[:-1] + bytes([pop[-1] ^ 1]))
    with pytest.raises(BadProofOfPossession):
        pki.issue_certificate(h.permanent, bad, CertProfile.FACTORY, LIFETIME)


def test_issue_rejects_inverted_window():
    h = build("b")
    csr = pki.make_csr(b"dev-9", device_key(b"dev-9"), CertProfile.FACTORY)
    with pytest.raises(InvalidValidityWindow):
        pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, (10, 9))


def test_serials_strictly_increase():
    h = build("b")
    csr = pki.make_csr(b"dev-9", device_key(b"dev-9"), CertProfile.FACTORY)
    a = pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, LIFETIME)
    b = pki.issue_certificate(h.permanent, csr, CertProfile.FACTORY, LIFETIME)
    assert b.serial == a.serial + 1


def test_serials_unique_across_hierarchy():
    h = build("c")
    serials = []
    for ca in h.cas():
        serials.extend(ca.issued)
    csr = pki.make_csr(b"dev-9", device_key(b"dev-9"), CertProfile.FACTORY)
    serials.append(pki.issue_certificate(h.ca1, csr, CertProfile.OPERATIONAL,
                                         LIFETIME).serial)
    serials.append(pki.issue_certificate(h.ca2, csr, CertProfile.OPERATIONAL,
                                         LIFETIME).serial)
    assert len(serials) == len(set(serials))


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------

def test_chain_expired_intermediate():
    h = build("c")
    key = device_key(b"srv")
    csr = pki.make_csr(b"srv", key, CertProfile.OPERATIONAL)
    cert = pki.issue_certificate(h.ca2, csr, CertProfile.SERVER, LIFETIME)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    late = h.ca2.certificate.not_after + 1
    res = pki.verify_chain(cert, [h.ca2.certificate], store, late, set())
    assert not res and res.reason is pki.ChainReason.EXPIRED


def test_chain_not_yet_valid():
    h = build("b")
    key = device_key(b"srv")
    csr = pki.make_csr(b"srv", key, CertProfile.OPERATIONAL)
    cert = pki.issue_certificate(h.ca2, csr, CertProfile.SERVER, (500, 900))
    store = h.store_for({pki.CA2_NAME})
    res = pki.verify_chain(cert, [], store, 100, set())
    assert not res and res.reason is pki.ChainReason.NOT_YET_VALID


def test_chain_revoked_leaf():
    h = build("c")
    cert, _ = factory_cert_for(h)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    assert pki.verify_chain(cert, [], store, NOW, set())
    pki.revoke(h.permanent, cert.serial)
    res = pki.verify_chain(cert, [], store, NOW, h.revocation_view())
    assert not res and res.reason is pki.ChainReason.REVOKED


def test_chain_soundness_each_link_mutated():
    """Flipping the signature of any link breaks verification."""
    h = build("c")
    key = device_key(b"srv")
    csr = pki.make_csr(b"srv", key, CertProfile.OPERATIONAL)
    leaf = pki.issue_certificate(h.ca2, csr, CertProfile.SERVER, LIFETIME)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    chain = [leaf, h.ca2.certificate]
    assert pki.verify_chain(leaf, [h.ca2.certificate], store, NOW, set())
    for i, cert in enumerate(chain):
        mutated = CompactCertificate(
            cert.serial, cert.subject_name, cert.subject_public_key,
            cert.issuer_name, cert.not_before, cert.not_after, cert.profile,
            bytes(cert.signature[:-1]) + bytes([cert.signature[-1] ^ 1]))
        new_chain = list(chain)
        new_chain[i] = mutated
        res = pki.verify_chain(new_chain[0], new_chain[1:], store, NOW, set())
        assert not res, f"mutated link {i} still verified"


def test_chain_leaf_cannot_act_as_issuer():
    """A factory certificate must not authenticate another certificate."""
    h = build("a")
    fake_ca_key = device_key(b"fake")
    fake_ca_csr = pki.make_csr(b"fake-ca", fake_ca_key, CertProfile.FACTORY)
    fake_ca = pki.issue_certificate(h.permanent, fake_ca_csr,
                                    CertProfile.FACTORY, LIFETIME)
    victim_key = device_key(b"victim")
    victim = pki._signed_cert(b"fake-ca", fake_ca_key, 999, b"victim",
                              victim_key.public_key, LIFETIME,
                              CertProfile.OPERATIONAL)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    res = pki.verify_chain(victim, [fake_ca], store, NOW, set())
    assert not res and res.reason is pki.ChainReason.BAD_ISSUER_PROFILE


def test_truststore_rejects_non_root():
    h = build("b")
    cert, _ = factory_cert_for(h)
    store = pki.TrustStore()
    with pytest.raises(InvariantViolation):
        store.add_root(cert)
    rogue_key = device_key(b"rogue")
    rogue = pki._signed_cert(b"rogue", rogue_key, 1, b"rogue",
                             device_key(b"other").public_key, LIFETIME,
                             CertProfile.ROOT_CA)
    with pytest.raises(InvariantViolation):
        store.add_root(rogue)  # self-signed in name, but wrong inner key


# ---------------------------------------------------------------------------
# registration and enrollment
# ---------------------------------------------------------------------------

def test_register_factory_certs():
    h = build("b")
    certs = [factory_cert_for(h, b"dev-%d" % i)[0] for i in range(3)]
    uri = pki.register_factory_certs(h.ca2, certs, NOW)
    assert uri == h.ca2.enroll_uri
    assert set(h.ca2.registered_factory) == {c.serial for c in certs}


def test_register_rejects_rogue_cert():
    h = build("b")
    good, _ = factory_cert_for(h)
    rogue_key = device_key(b"rogue")
    rogue = pki._signed_cert(b"rogue-ca", rogue_key, 777, b"rogue-dev",
                             rogue_key.public_key, LIFETIME, CertProfile.FACTORY)
    with pytest.raises(UnverifiableFactoryCert) as err:
        pki.register_factory_certs(h.ca2, [good, rogue], NOW)
    assert err.value.serial == 777
    assert not h.ca2.registered_factory  # nothing registered on failure


def test_register_empty_list():
    h = build("b")
    uri = pki.register_factory_certs(h.ca2, [], NOW)
    assert uri == h.ca2.enroll_uri
    assert not h.ca2.registered_factory


def test_enroll_contract():
    h = build("b")
    fcert, fkey = factory_cert_for(h)
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    op_key = device_key(b"dev-1-op")
    csr = pki.make_csr(b"dev-1", op_key, CertProfile.OPERATIONAL)
    cert = pki.enroll(h.ca1, fcert, csr, (NOW, NOW + 10_000))
    assert cert.issuer_name == h.ca1.name
    assert cert.profile is CertProfile.OPERATIONAL
    assert cert.subject_name == fcert.subject_name
    store = h.store_for({pki.PERMANENT_CA_NAME})
    assert pki.verify_chain(cert, [h.ca1.certificate], store, NOW, set())


def test_enroll_unregistered_rejected():
    h = build("b")
    fcert, _ = factory_cert_for(h)
    csr = pki.make_csr(b"dev-1", device_key(b"op"), CertProfile.OPERATIONAL)
    with pytest.raises(NotRegistered):
        pki.enroll(h.ca1, fcert, csr, LIFETIME)


def test_enroll_name_mismatch_rejected():
    h = build("b")
    fcert, _ = factory_cert_for(h, b"dev-1")
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    impostor = pki.make_csr(b"dev-2", device_key(b"imp"), CertProfile.OPERATIONAL)
    with pytest.raises(NameMismatch):
        pki.enroll(h.ca1, fcert, impostor, LIFETIME)


def test_enroll_revoked_factory_rejected():
    h = build("b")
    fcert, _ = factory_cert_for(h)
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    pki.revoke(h.permanent, fcert.serial)
    csr = pki.make_csr(b"dev-1", device_key(b"op"), CertProfile.OPERATIONAL)
    with pytest.raises(RevokedFactoryCert):
        pki.enroll(h.ca1, fcert, csr, LIFETIME)


def test_enroll_server_keygen():
    h = build("b")
    fcert, _ = factory_cert_for(h)
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    cert, seed = pki.enroll_server_keygen(h.ca1, fcert, LIFETIME)
    key = crypto.generate_key_pair(seed)
    assert cert.subject_public_key == key.public_key


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------

def test_revoke_and_is_revoked():
    h = build("b")
    fcert, _ = factory_cert_for(h)
    assert pki.is_revoked(h.permanent, fcert.serial) is False
    pki.revoke(h.permanent, fcert.serial)
    assert pki.is_revoked(h.permanent, fcert.serial) is True


def test_unknown_serial():
    h = build("b")
    with pytest.raises(UnknownSerial):
        pki.revoke(h.permanent, 424242)
    with pytest.raises(UnknownSerial):
        pki.is_revoked(h.permanent, 424242)


def test_factory_profile_never_passes_operational_checks():
    """Factory certificates are capability-restricted: an authorization point
    that requires an operational/server profile must reject them."""
    h = build("b")
    fcert, _ = factory_cert_for(h)
    assert fcert.profile is CertProfile.FACTORY
    assert fcert.profile not in (CertProfile.OPERATIONAL, CertProfile.SERVER)
