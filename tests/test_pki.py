"""PKI tests: hierarchies, truststores, chains, issuance, revocation."""

import random
from dataclasses import replace

import pytest

import gen
from trustshift import codec, crypto, device, pki, scenario, simnet
from trustshift.errors import (
    BadProofOfPossession,
    InvalidValidityWindow,
    InvariantViolation,
    MalformedEncoding,
    NameMismatch,
    NotRegistered,
    RevokedFactoryCert,
    UnknownSerial,
    UnverifiableFactoryCert,
)
from trustshift.messages import CertProfile, CompactCertificate, encode

NOW = 1_000
LIFETIME = (0, 10**9)


def build(variant, seed=1):
    h = pki.build_hierarchy(variant, random.Random(seed))
    h.trust_roots()
    return h


def device_key(tag):
    return crypto.generate_key_pair(crypto.digest(tag))


def factory_cert_for(h, name=b"dev-1", key=None):
    key = key or device_key(name)
    return pki.issue_certificate(h.permanent, name, key.public_key,
                                 CertProfile.FACTORY, LIFETIME), key


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
def test_built_hierarchy_matches_the_variant_table(variant):
    """Each built CA is a root of its own exactly when `VARIANTS` says so,
    in (d) CA1 is the permanent CA, each CA enrolls at its `ENROLL_URIS`
    entry, and the pre-transfer roots plus the permanent root are the
    hierarchy's roots. Every factory root is still needed before the
    transfer, so each one persists through the reset."""
    h = build(variant)
    assert h.permanent.certificate.is_self_signed
    for name, ca in ((pki.CA1_NAME, h.ca1), (pki.CA2_NAME, h.ca2)):
        own_root = pki.VARIANTS[variant][name]
        assert (ca is h.permanent) == (own_root is None), name
        if own_root is not None:
            assert ca.certificate.is_self_signed == own_root, name
    assert (h.ca1 is h.permanent) == (variant == "d")
    for ca in h.cas():
        assert ca.enroll_uri == pki.ENROLL_URIS[ca.name]
    pre_enroll = pki.minimal_truststore(variant, pki.TrustPhase.PRE_ENROLL)
    pre_transfer = pki.minimal_truststore(variant, pki.TrustPhase.PRE_TRANSFER)
    assert pre_transfer | {pki.PERMANENT_CA_NAME} == h.root_names()
    assert pre_enroll <= pre_transfer


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_all_ca_certs_verify_along_declared_chains(variant):
    h = build(variant)
    for ca in h.cas():
        root_name = (ca.name if ca.certificate.is_self_signed
                     else ca.certificate.issuer_name)
        store = h.store_for({root_name})
        assert pki.verify_chain(ca.certificate, [], store, NOW, set()), ca.name


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_cas_trust_their_roots_once_told(variant):
    """A built hierarchy's CAs hold no roots until `trust_roots`: then each
    root CA trusts itself and every CA the permanent root, each
    self-signature checked."""
    h = pki.build_hierarchy(variant, random.Random(1))
    assert all(not ca.truststore.root_names() for ca in h.cas())
    h.trust_roots()
    for ca in h.cas():
        assert ca.truststore.root_names() == {pki.PERMANENT_CA_NAME} | (
            {ca.name} if ca.certificate.is_self_signed else set())
    forged = pki.build_hierarchy(variant, random.Random(1))
    forged.permanent.certificate = replace(forged.permanent.certificate,
                                           signature=bytes(64))
    with pytest.raises(InvariantViolation):
        forged.trust_roots()


def test_run_scenario_checks_each_set_up_signature_a_pass_later(monkeypatch):
    """`run_scenario`'s set-up makes one signature per certificate it
    issues and no CSR: the CA certificates, then each factory certificate,
    then the server certificates of SP1 and SP2 and, with `use_ra` only,
    of the RA verifier, in serial order. It checks each root's
    self-signature only after the last CA certificate is signed, and
    registers the factory certificates (each chain checked) after the last
    device is provisioned. The order is pinned because the key draws and
    serials follow it, and with them every digest."""
    log = []

    def logged(kind, function):
        def call(*args, **kwargs):
            log.append([kind, args])
            return function(*args, **kwargs)
        return call

    def signing(self, data):
        log.append(["sign", data])
        return sign(self, data)

    sign = crypto.KeyPair.sign
    monkeypatch.setattr(crypto.KeyPair, "sign", signing)
    monkeypatch.setattr(crypto, "verify_raw", logged("check", crypto.verify_raw))
    monkeypatch.setattr(pki, "make_csr", logged("csr", pki.make_csr))
    monkeypatch.setattr(device, "provision_factory",
                        logged("provision", device.provision_factory))
    monkeypatch.setattr(pki, "register_factory_certs",
                        logged("register", pki.register_factory_certs))
    monkeypatch.setattr(simnet.Simulator, "run",
                        logged("run", simnet.Simulator.run))
    devices = 3
    for use_ra, servers in ((False, [b"sp1", b"sp2"]),
                            (True, [b"sp1", b"sp2", b"ra"])):
        log.clear()
        result = scenario.run_scenario(scenario.ScenarioConfig(
            name="order", variant="a", device_count=devices, seed=7,
            options=scenario.ScenarioOptions(use_ra=use_ra)))
        assert result.ok

        setup = log[:next(i for i, e in enumerate(log) if e[0] == "run")]
        kinds = [kind for kind, _ in setup]
        assert "csr" not in kinds
        signed = [(i, data) for i, (kind, data) in enumerate(setup)
                  if kind == "sign"]
        checked = {}
        for i, (kind, args) in enumerate(setup):
            if kind == "check":
                checked.setdefault(args[2], i)
        cas = result.hierarchy.cas()
        issued = sorted((c for ca in cas for c in ca.issued.values()),
                        key=lambda c: c.serial)
        setup_certs = issued[:len(cas) + devices + len(servers)]
        assert [data for _, data in signed] \
            == [c.tbs_bytes() for c in setup_certs]
        assert [c.profile for c in setup_certs[len(cas):]] \
            == [CertProfile.FACTORY] * devices \
            + [CertProfile.SERVER] * len(servers)
        assert [c.subject_name for c in setup_certs[-len(servers):]] \
            == servers
        roots = [ca.certificate.tbs_bytes() for ca in cas]
        assert [c.tbs_bytes() for c in setup_certs[:len(cas)]] == roots
        last_ca_signed = signed[len(cas) - 1][0]
        assert all(checked[tbs] > last_ca_signed for tbs in roots)
        factory = [m.factory_certificate.tbs_bytes()
                   for m in result.sp1_state.managed_devices.values()]
        assert factory == [c.tbs_bytes()
                           for c in setup_certs[len(cas):-len(servers)]]
        last_provision = len(kinds) - 1 - kinds[::-1].index("provision")
        assert kinds.count("provision") == devices
        assert kinds.index("register") > last_provision
        assert all(checked[tbs] > kinds.index("register") for tbs in factory)


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
    cert = pki.issue_certificate(h.permanent, b"dev-9", key.public_key,
                                 CertProfile.FACTORY, LIFETIME)
    assert cert.issuer_name == h.permanent.name
    store = h.store_for({pki.PERMANENT_CA_NAME})
    assert pki.verify_chain(cert, [], store, NOW, set())


def test_issue_rejects_inverted_window():
    h = build("b")
    key = device_key(b"dev-9")
    with pytest.raises(InvalidValidityWindow):
        pki.issue_certificate(h.permanent, b"dev-9", key.public_key,
                              CertProfile.FACTORY, (10, 9))


def test_inverted_window_takes_no_serial():
    """A refused window uses up no serial: the certificates issued before
    and after it have consecutive serials."""
    h = build("b")
    key = device_key(b"dev-9")

    def issue(window):
        return pki.issue_certificate(h.permanent, b"dev-9", key.public_key,
                                     CertProfile.FACTORY, window)

    before = issue((0, 9))
    with pytest.raises(InvalidValidityWindow):
        issue((10, 9))
    assert issue((0, 9)).serial == before.serial + 1


def test_serials_strictly_increase():
    h = build("b")
    key = device_key(b"dev-9")
    a = pki.issue_certificate(h.permanent, b"dev-9", key.public_key,
                              CertProfile.FACTORY, LIFETIME)
    b = pki.issue_certificate(h.permanent, b"dev-9", key.public_key,
                              CertProfile.FACTORY, LIFETIME)
    assert b.serial == a.serial + 1


def test_serials_unique_across_hierarchy():
    h = build("c")
    serials = []
    for ca in h.cas():
        serials.extend(ca.issued)
    key = device_key(b"dev-9")
    serials.append(pki.issue_certificate(h.ca1, b"dev-9", key.public_key,
                                         CertProfile.OPERATIONAL,
                                         LIFETIME).serial)
    serials.append(pki.issue_certificate(h.ca2, b"dev-9", key.public_key,
                                         CertProfile.OPERATIONAL,
                                         LIFETIME).serial)
    assert len(serials) == len(set(serials))


@pytest.mark.parametrize("variant", pki.VARIANTS)
def test_issued_serials_for_matches_a_scan(variant):
    """The subject index agrees with a scan of everything each CA issued:
    roots, sub-CAs and certificates issued later, in issue order."""
    h = build(variant)
    for name in (b"dev-1", b"dev-2", b"dev-1"):
        pki.issue_certificate(h.ca1, name, device_key(name).public_key,
                              CertProfile.OPERATIONAL, LIFETIME)
    for ca in h.cas():
        subjects = {c.subject_name for c in ca.issued.values()}
        for subject in subjects | {b"nobody"}:
            assert ca.issued_serials_for(subject) == [
                s for s, c in ca.issued.items() if c.subject_name == subject]


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------

def test_chain_expired_intermediate():
    h = build("c")
    key = device_key(b"srv")
    cert = pki.issue_certificate(h.ca2, b"srv", key.public_key,
                                 CertProfile.SERVER, LIFETIME)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    late = h.ca2.certificate.not_after + 1
    res = pki.verify_chain(cert, [h.ca2.certificate], store, late, set())
    assert not res and res.reason is pki.ChainReason.EXPIRED


def test_chain_not_yet_valid():
    h = build("b")
    key = device_key(b"srv")
    cert = pki.issue_certificate(h.ca2, b"srv", key.public_key,
                                 CertProfile.SERVER, (500, 900))
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


def own_root(validity=LIFETIME):
    """A root of its own with the given validity, and a store trusting it."""
    key = device_key(b"own-root")
    root = pki._signed_cert(b"own-root", key, 900, b"own-root",
                            key.public_key, validity, CertProfile.ROOT_CA)
    store = pki.TrustStore()
    store.add_root(root)
    return root, key, store


def chain_below(root, root_key, length):
    """A leaf and the sub-CAs above it: `length` certificates, each signed
    by the next, the last by `root`."""
    issuer_name, issuer_key, links = root.subject_name, root_key, []
    for depth in range(length - 1, -1, -1):
        name, key = b"link-%d" % depth, device_key(b"link-%d" % depth)
        links.append(pki._signed_cert(
            issuer_name, issuer_key, 901 + len(links), name, key.public_key,
            LIFETIME, CertProfile.SUB_CA if depth else CertProfile.SERVER))
        issuer_name, issuer_key = name, key
    return links[-1], links[-2::-1]


@pytest.mark.parametrize("now,reason,detail", [
    (300, pki.ChainReason.EXPIRED, "serial 900 expired at 200"),
    (50, pki.ChainReason.NOT_YET_VALID, "serial 900 not valid before 100"),
], ids=["expired", "not_yet_valid"])
def test_chain_checks_the_trusted_root_validity(now, reason, detail):
    """A trusted root that is a link above the certificate must be valid
    at `now`; the failure names the root's serial."""
    root, key, store = own_root((100, 200))
    leaf, intermediates = chain_below(root, key, 1)
    res = pki.verify_chain(leaf, intermediates, store, now, set())
    assert (res.ok, res.reason, res.detail) == (False, reason, detail)


def test_chain_checks_the_trusted_root_revocation():
    root, key, store = own_root()
    leaf, intermediates = chain_below(root, key, 2)
    assert pki.verify_chain(leaf, intermediates, store, NOW, set())
    res = pki.verify_chain(leaf, intermediates, store, NOW, {root.serial})
    assert (res.ok, res.reason, res.detail) \
        == (False, pki.ChainReason.REVOKED, "root serial 900 revoked")


def test_trusted_root_verifies_as_the_certificate_itself():
    root, _, store = own_root()
    assert pki.verify_chain(root, [], store, NOW, set())
    res = pki.verify_chain(root, [], store, NOW, {root.serial})
    assert (res.reason, res.detail) \
        == (pki.ChainReason.REVOKED, "serial 900 revoked")


def test_chain_length_bound():
    """Up to MAX_CHAIN_LEN certificates below a root verify; one more is
    too long."""
    root, key, store = own_root()
    leaf, intermediates = chain_below(root, key, pki.MAX_CHAIN_LEN)
    assert pki.verify_chain(leaf, intermediates, store, NOW, set())
    leaf, intermediates = chain_below(root, key, pki.MAX_CHAIN_LEN + 1)
    res = pki.verify_chain(leaf, intermediates, store, NOW, set())
    assert not res and res.reason is pki.ChainReason.TOO_LONG


# ---------------------------------------------------------------------------
# certificates answered from the record of encodings
# ---------------------------------------------------------------------------

def test_memo_equal_bytes_equal_certificate():
    """Bytes of a certificate made in this run, in any bytes object, decode
    to that certificate, on every decode; once the run's record is emptied
    they decode, strictly, to an equal one."""
    h = build("c")
    cert, _ = factory_cert_for(h)
    data = encode(cert)
    assert pki.decode_certificate(data) is cert
    assert pki.decode_certificate(bytes(bytearray(data))) is cert
    crypto.forget_run(0)
    parsed = pki.decode_certificate(data)
    assert parsed == cert and parsed is not cert
    assert encode(parsed) == data


def test_memo_never_holds_an_error():
    h = build("c")
    data = encode(factory_cert_for(h)[0])
    before = list(codec._encoded.items())
    for bad in (data[:-1], data + b"\x00", b"junk"):
        for _ in range(2):
            with pytest.raises(MalformedEncoding):
                pki.decode_certificate(bad)
    assert list(codec._encoded.items()) == before


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(codec, "RECORD_SIZE", 64)
    rng = random.Random(5)
    for serial in range(codec.RECORD_SIZE + 100):
        cert = replace(gen.rand_certificate(rng), serial=serial)
        assert pki.decode_certificate(encode(cert)) is cert
        assert len(codec._encoded) <= codec.RECORD_SIZE


def test_memoized_certificate_still_expires_and_is_revoked():
    """The record saves decoding, never a check: `verify_chain` judges a
    certificate answered from it at the time and revocations it is given."""
    h = build("c")
    cert, _ = factory_cert_for(h)
    data = encode(cert)
    store = h.store_for({pki.PERMANENT_CA_NAME})
    recorded = pki.decode_certificate(data)
    assert recorded is cert and pki.decode_certificate(data) is recorded
    assert pki.verify_chain(recorded, [], store, NOW, set())
    late = pki.verify_chain(recorded, [], store, cert.not_after + 1, set())
    assert not late and late.reason is pki.ChainReason.EXPIRED
    pki.revoke(h.permanent, cert.serial)
    res = pki.verify_chain(pki.decode_certificate(data), [], store, NOW,
                           h.revocation_view())
    assert not res and res.reason is pki.ChainReason.REVOKED


def test_chain_soundness_each_link_mutated():
    """Flipping the signature of any link breaks verification."""
    h = build("c")
    key = device_key(b"srv")
    leaf = pki.issue_certificate(h.ca2, b"srv", key.public_key,
                                 CertProfile.SERVER, LIFETIME)
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
    fake_ca = pki.issue_certificate(h.permanent, b"fake-ca",
                                    fake_ca_key.public_key,
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
    rogue, second_rogue = (
        pki._signed_cert(b"rogue-ca", rogue_key, serial, b"rogue-dev",
                         rogue_key.public_key, LIFETIME, CertProfile.FACTORY)
        for serial in (777, 778))
    with pytest.raises(UnverifiableFactoryCert) as err:
        pki.register_factory_certs(h.ca2, [good, rogue, second_rogue], NOW)
    assert err.value.serial == 777  # the first bad one in the list
    assert not h.ca2.registered_factory  # nothing registered on failure


def test_register_rejects_revoked_factory_cert():
    """A factory certificate the hierarchy has revoked is not registered."""
    h = build("b")
    cert, _ = factory_cert_for(h)
    pki.revoke(h.permanent, cert.serial)
    with pytest.raises(UnverifiableFactoryCert) as err:
        pki.register_factory_certs(h.ca2, [cert], NOW)
    assert (err.value.serial, err.value.reason) \
        == (cert.serial, f"serial {cert.serial} revoked")
    assert not h.ca2.registered_factory


def server_cert_for(h):
    return pki.issue_certificate(h.permanent, b"srv",
                                 device_key(b"srv").public_key,
                                 CertProfile.SERVER, LIFETIME)


def test_register_rejects_a_non_factory_cert():
    h = build("b")
    cert = server_cert_for(h)
    with pytest.raises(UnverifiableFactoryCert) as err:
        pki.register_factory_certs(h.ca2, [cert], NOW)
    assert (err.value.serial, err.value.reason) \
        == (cert.serial, "not a factory certificate")
    assert not h.ca2.registered_factory


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


def test_enroll_needs_the_registered_factory_cert():
    """Enrollment refuses a session identity that is not a factory
    certificate, and one whose serial is registered for another
    certificate."""
    h = build("b")
    fcert, _ = factory_cert_for(h)
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    csr = pki.make_csr(b"dev-1", device_key(b"op"), CertProfile.OPERATIONAL)
    with pytest.raises(NotRegistered, match="not a factory certificate"):
        pki.enroll(h.ca1, server_cert_for(h), csr, LIFETIME)
    with pytest.raises(NotRegistered, match="does not match registration"):
        pki.enroll(h.ca1, replace(fcert, not_after=fcert.not_after - 1), csr,
                   LIFETIME)


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


def test_enroll_rejects_corrupt_pop():
    """A registered device's CSR whose proof of possession fails is refused
    before anything is issued: no certificate recorded, no serial taken."""
    h = build("b")
    fcert, _ = factory_cert_for(h)
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    csr = pki.make_csr(b"dev-1", device_key(b"dev-1-op"),
                       CertProfile.OPERATIONAL)
    pop = csr.proof_of_possession
    bad = replace(csr, proof_of_possession=pop[:-1] + bytes([pop[-1] ^ 1]))
    issued = dict(h.ca1.issued)
    with pytest.raises(BadProofOfPossession):
        pki.enroll(h.ca1, fcert, bad, LIFETIME)
    assert h.ca1.issued == issued
    # the serial the refused CSR would have taken goes to the next issue
    assert pki.enroll(h.ca1, fcert, csr, LIFETIME).serial == fcert.serial + 1


def test_enroll_server_keygen():
    h = build("b")
    fcert, _ = factory_cert_for(h)
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    cert, seed = pki.enroll_server_keygen(h.ca1, fcert, LIFETIME)
    key = crypto.generate_key_pair(seed)
    assert cert.subject_public_key == key.public_key


def test_enroll_server_keygen_signs_only_the_certificate(monkeypatch):
    """The CA makes no CSR over the key it generated: one signature, the
    certificate's, per enrollment. An unregistered or a revoked factory
    certificate is refused as by `enroll`, before anything is signed."""
    h = build("b")
    fcert, _ = factory_cert_for(h, b"dev-1")
    unregistered, _ = factory_cert_for(h, b"dev-2")
    pki.register_factory_certs(h.ca1, [fcert], NOW)
    signers = []
    sign = crypto.KeyPair.sign
    monkeypatch.setattr(crypto.KeyPair, "sign",
                        lambda key, data: signers.append(key) or sign(key, data))
    cert, _ = pki.enroll_server_keygen(h.ca1, fcert, LIFETIME)
    assert signers == [h.ca1.key_pair]
    store = h.store_for({pki.PERMANENT_CA_NAME})
    assert pki.verify_chain(cert, [h.ca1.certificate], store, NOW, set())
    with pytest.raises(NotRegistered):
        pki.enroll_server_keygen(h.ca1, unregistered, LIFETIME)
    pki.revoke(h.permanent, fcert.serial)
    with pytest.raises(RevokedFactoryCert):
        pki.enroll_server_keygen(h.ca1, fcert, LIFETIME)
    assert len(signers) == 1


# ---------------------------------------------------------------------------
# revocation
# ---------------------------------------------------------------------------

def test_revoke_and_is_revoked():
    h = build("b")
    fcert, _ = factory_cert_for(h)
    assert fcert.serial not in h.permanent.revoked
    pki.revoke(h.permanent, fcert.serial)
    assert fcert.serial in h.permanent.revoked


def test_unknown_serial():
    h = build("b")
    with pytest.raises(UnknownSerial):
        pki.revoke(h.permanent, 424242)


def test_factory_profile_never_passes_operational_checks():
    """Factory certificates are capability-restricted: an authorization point
    that requires an operational/server profile must reject them."""
    h = build("b")
    fcert, _ = factory_cert_for(h)
    assert fcert.profile is CertProfile.FACTORY
    assert fcert.profile not in (CertProfile.OPERATIONAL, CertProfile.SERVER)
