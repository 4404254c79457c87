"""Certificate authorities, chain verification and hierarchy construction.

Serial numbers are unique across one hierarchy (a shared allocator), so a
flat set of revoked serials works as the revocation view for every server
side actor. Devices never consult revocation state; that cost sits with
the Internet-side servers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from . import crypto
from .errors import (
    BadProofOfPossession,
    InvalidValidityWindow,
    InvariantViolation,
    NameMismatch,
    NotRegistered,
    RevokedFactoryCert,
    UnknownSerial,
    UnverifiableFactoryCert,
)
from .messages import (
    CertificateSigningRequest,
    CertProfile,
    CompactCertificate,
    TimeStamp,
    Uri,
)

MAX_CHAIN_LEN = 8

PERMANENT_CA_NAME = b"permanent-ca"
CA1_NAME = b"ca1"
CA2_NAME = b"ca2"

VARIANTS = ("a", "b", "c", "d")


class TrustPhase(Enum):
    PRE_ENROLL = "preEnroll"
    PRE_TRANSFER = "preTransfer"


class ChainReason(Enum):
    UNTRUSTED = "untrusted"
    EXPIRED = "expired"
    NOT_YET_VALID = "not_yet_valid"
    REVOKED = "revoked"
    BAD_SIGNATURE = "bad_signature"
    BAD_ISSUER_PROFILE = "bad_issuer_profile"
    TOO_LONG = "too_long"


@dataclass(frozen=True)
class ChainResult:
    ok: bool
    reason: ChainReason | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


_OK = ChainResult(True)


class TrustStore:
    """Trusted self-signed roots, keyed by subject name.

    Each root carries a persist flag: a device reset keeps exactly the
    persistent entries.
    """

    def __init__(self):
        self._roots: dict[bytes, CompactCertificate] = {}
        self._persist: dict[bytes, bool] = {}

    def add_root(self, cert: CompactCertificate, persist: bool = True) -> None:
        if cert.profile is not CertProfile.ROOT_CA:
            raise InvariantViolation("truststore roots must have the rootCa profile")
        if not cert.is_self_signed or not crypto.verify_raw(
                cert.subject_public_key, cert.signature, cert.tbs_bytes()):
            raise InvariantViolation("root certificate does not verify under itself")
        self._roots[cert.subject_name] = cert
        self._persist[cert.subject_name] = persist

    def root(self, name: bytes) -> CompactCertificate | None:
        return self._roots.get(name)

    def root_names(self) -> set[bytes]:
        return set(self._roots)

    def copy(self) -> "TrustStore":
        out = TrustStore()
        out._roots = dict(self._roots)
        out._persist = dict(self._persist)
        return out

    def persistent_only(self) -> "TrustStore":
        """The store that survives a device reset."""
        out = TrustStore()
        for name, cert in self._roots.items():
            if self._persist[name]:
                out.add_root(cert, persist=True)
        return out


def _validity_at(cert: CompactCertificate, now: TimeStamp) -> ChainResult:
    if now < cert.not_before:
        return ChainResult(False, ChainReason.NOT_YET_VALID,
                           f"serial {cert.serial} not valid before {cert.not_before}")
    if now > cert.not_after:
        return ChainResult(False, ChainReason.EXPIRED,
                           f"serial {cert.serial} expired at {cert.not_after}")
    return _OK


def verify_chain(
    cert: CompactCertificate,
    intermediates: list[CompactCertificate] | tuple[CompactCertificate, ...],
    store: TrustStore,
    now: TimeStamp,
    revocation_view: set[int],
) -> ChainResult:
    """True iff a signature path runs from cert to a trusted root, with every
    link inside its validity window at `now` and no link revoked."""
    current = cert
    for _depth in range(MAX_CHAIN_LEN):
        check = _validity_at(current, now)
        if not check:
            return check
        if current.serial in revocation_view:
            return ChainResult(False, ChainReason.REVOKED,
                               f"serial {current.serial} revoked")

        root = store.root(current.issuer_name)
        if root is not None:
            if not crypto.verify_raw(root.subject_public_key, current.signature,
                                     current.tbs_bytes()):
                return ChainResult(False, ChainReason.BAD_SIGNATURE,
                                   f"serial {current.serial} signature invalid")
            if current.subject_name != root.subject_name:
                # root is a distinct link on the path; check it too
                check = _validity_at(root, now)
                if not check:
                    return check
                if root.serial in revocation_view:
                    return ChainResult(False, ChainReason.REVOKED,
                                       f"root serial {root.serial} revoked")
            return _OK

        issuer = next((c for c in intermediates
                       if c.subject_name == current.issuer_name), None)
        if issuer is None:
            return ChainResult(False, ChainReason.UNTRUSTED,
                               f"no trusted path for issuer {current.issuer_name!r}")
        if issuer.profile not in (CertProfile.ROOT_CA, CertProfile.SUB_CA):
            return ChainResult(False, ChainReason.BAD_ISSUER_PROFILE,
                               f"issuer serial {issuer.serial} cannot issue")
        if not crypto.verify_raw(issuer.subject_public_key, current.signature,
                                 current.tbs_bytes()):
            return ChainResult(False, ChainReason.BAD_SIGNATURE,
                               f"serial {current.serial} signature invalid")
        current = issuer

    return ChainResult(False, ChainReason.TOO_LONG, "chain exceeds maximum length")


@dataclass(frozen=True)
class Credential:
    """What a peer presents during session establishment."""

    certificate: CompactCertificate
    intermediates: tuple[CompactCertificate, ...]
    key_pair: crypto.KeyPair


class SerialAllocator:
    """Hierarchy-wide monotonically increasing serial numbers, plus the one
    set of revoked serials every CA of the hierarchy shares."""

    def __init__(self):
        self._next = 1
        self.revoked: set[int] = set()

    def take(self) -> int:
        serial = self._next
        self._next += 1
        return serial


@dataclass
class CaState:
    name: bytes
    key_pair: crypto.KeyPair
    certificate: CompactCertificate
    enroll_uri: Uri
    truststore: TrustStore
    allocator: SerialAllocator
    issuer_chain: tuple[CompactCertificate, ...] = ()
    registered_factory: dict[int, CompactCertificate] = field(default_factory=dict)
    issued: dict[int, CompactCertificate] = field(default_factory=dict)
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @property
    def revoked(self) -> set[int]:
        return self.allocator.revoked

    def credential(self) -> Credential:
        # issuer_chain starts with this CA's own certificate for non-roots;
        # presenting itself, only the certificates above it are intermediates.
        chain = self.issuer_chain
        if chain and chain[0] == self.certificate:
            chain = chain[1:]
        return Credential(self.certificate, chain, self.key_pair)

    def issued_serials_for(self, subject_name: bytes) -> list[int]:
        return [s for s, c in self.issued.items() if c.subject_name == subject_name]


def _signed_cert(issuer_name: bytes, issuer_key: crypto.KeyPair, serial: int,
                 subject_name: bytes, subject_public_key: bytes,
                 validity: tuple[TimeStamp, TimeStamp],
                 profile: CertProfile) -> CompactCertificate:
    not_before, not_after = validity
    if not_before > not_after:
        raise InvalidValidityWindow(f"window [{not_before}, {not_after}] inverted")
    unsigned = CompactCertificate(serial, subject_name, subject_public_key,
                                  issuer_name, not_before, not_after, profile, b"")
    return CompactCertificate(serial, subject_name, subject_public_key,
                              issuer_name, not_before, not_after, profile,
                              issuer_key.sign(unsigned.tbs_bytes()))


def make_root_ca(name: bytes, key_pair: crypto.KeyPair, enroll_uri: Uri,
                 allocator: SerialAllocator,
                 validity: tuple[TimeStamp, TimeStamp]) -> CaState:
    cert = _signed_cert(name, key_pair, allocator.take(), name,
                        key_pair.public_key, validity, CertProfile.ROOT_CA)
    ca = CaState(name=name, key_pair=key_pair, certificate=cert,
                 enroll_uri=enroll_uri, truststore=TrustStore(),
                 allocator=allocator)
    ca.truststore.add_root(cert)
    ca.issued[cert.serial] = cert
    return ca


def make_sub_ca(name: bytes, key_pair: crypto.KeyPair, parent: CaState,
                enroll_uri: Uri,
                validity: tuple[TimeStamp, TimeStamp]) -> CaState:
    cert = _signed_cert(parent.name, parent.key_pair, parent.allocator.take(),
                        name, key_pair.public_key, validity, CertProfile.SUB_CA)
    parent.issued[cert.serial] = cert
    ca = CaState(name=name, key_pair=key_pair, certificate=cert,
                 enroll_uri=enroll_uri, truststore=parent.truststore.copy(),
                 allocator=parent.allocator,
                 issuer_chain=(cert,) + parent.issuer_chain)
    return ca


def make_csr(subject_name: bytes, key_pair: crypto.KeyPair,
             profile: CertProfile) -> CertificateSigningRequest:
    unsigned = CertificateSigningRequest(subject_name, key_pair.public_key,
                                         profile, b"")
    return CertificateSigningRequest(subject_name, key_pair.public_key, profile,
                                     key_pair.sign(unsigned.tbs_bytes()))


def verify_csr(csr: CertificateSigningRequest) -> bool:
    return crypto.verify_raw(csr.subject_public_key, csr.proof_of_possession,
                             csr.tbs_bytes())


def issue_certificate(ca: CaState, csr: CertificateSigningRequest,
                      profile: CertProfile,
                      validity: tuple[TimeStamp, TimeStamp]) -> CompactCertificate:
    """Issue a certificate over the CSR key after checking proof of possession."""
    if not verify_csr(csr):
        raise BadProofOfPossession("CSR proof-of-possession does not verify")
    cert = _signed_cert(ca.name, ca.key_pair, ca.allocator.take(),
                        csr.subject_name, csr.subject_public_key,
                        validity, profile)
    ca.issued[cert.serial] = cert
    return cert


def register_factory_certs(ca: CaState, certs: list[CompactCertificate],
                           now: TimeStamp) -> Uri:
    """Register factory certificates for later enrollment authorization.

    Returns the CA's enrollment URI. Nothing is registered if any
    certificate fails to verify against the CA's trusted roots.
    """
    for cert in certs:
        result = verify_chain(cert, [], ca.truststore, now, set())
        if not result:
            raise UnverifiableFactoryCert(cert.serial, result.detail)
        if cert.profile is not CertProfile.FACTORY:
            raise UnverifiableFactoryCert(cert.serial, "not a factory certificate")
    for cert in certs:
        ca.registered_factory[cert.serial] = cert
    return ca.enroll_uri


def enroll(ca: CaState, peer_factory_cert: CompactCertificate,
           csr: CertificateSigningRequest,
           validity: tuple[TimeStamp, TimeStamp]) -> CompactCertificate:
    """Issue an operational certificate over an authenticated session.

    `peer_factory_cert` is the identity the session authenticated: it must be
    a registered, unrevoked factory certificate whose subject matches the CSR.
    """
    if peer_factory_cert.profile is not CertProfile.FACTORY:
        raise NotRegistered("session identity is not a factory certificate")
    if peer_factory_cert.serial not in ca.registered_factory:
        raise NotRegistered(f"factory serial {peer_factory_cert.serial} unknown")
    if ca.registered_factory[peer_factory_cert.serial] != peer_factory_cert:
        raise NotRegistered("factory certificate does not match registration")
    if peer_factory_cert.serial in ca.revoked:
        raise RevokedFactoryCert(f"factory serial {peer_factory_cert.serial}")
    if csr.subject_name != peer_factory_cert.subject_name:
        raise NameMismatch(
            f"CSR name {csr.subject_name!r} != session identity "
            f"{peer_factory_cert.subject_name!r}")
    return issue_certificate(ca, csr, CertProfile.OPERATIONAL, validity)


def enroll_server_keygen(ca: CaState, peer_factory_cert: CompactCertificate,
                         validity: tuple[TimeStamp, TimeStamp],
                         ) -> tuple[CompactCertificate, bytes]:
    """Server-side keypair variant: the CA generates the key and returns its
    seed along with the certificate."""
    seed = bytes(ca.rng.getrandbits(8) for _ in range(32))
    key_pair = crypto.generate_key_pair(seed)
    csr = make_csr(peer_factory_cert.subject_name, key_pair,
                   CertProfile.OPERATIONAL)
    cert = enroll(ca, peer_factory_cert, csr, validity)
    return cert, seed


def revoke(ca: CaState, serial: int) -> None:
    if serial not in ca.issued:
        raise UnknownSerial(f"serial {serial} was not issued by {ca.name!r}")
    ca.revoked.add(serial)


def is_revoked(ca: CaState, serial: int) -> bool:
    if serial not in ca.issued:
        raise UnknownSerial(f"serial {serial} was not issued by {ca.name!r}")
    return serial in ca.revoked


# ---------------------------------------------------------------------------
# hierarchies
# ---------------------------------------------------------------------------

@dataclass
class HierarchyConfig:
    """The permanent CA plus both operational CAs, wired per variant.

    Variants: (a) three separate roots; (b) CA1 under the permanent root,
    CA2 separate; (c) CA1 and CA2 both under the permanent root; (d) the
    permanent CA itself acts as CA1, CA2 under the permanent root.
    """

    variant: str
    permanent: CaState
    ca1: CaState
    ca2: CaState
    allocator: SerialAllocator

    def cas(self) -> list[CaState]:
        out = [self.permanent]
        for ca in (self.ca1, self.ca2):
            if ca is not self.permanent:
                out.append(ca)
        return out

    def root_cert(self, root_name: bytes) -> CompactCertificate:
        for ca in self.cas():
            if ca.certificate.is_self_signed and ca.name == root_name:
                return ca.certificate
        raise InvariantViolation(f"no root named {root_name!r} in hierarchy")

    def revocation_view(self) -> set[int]:
        """The hierarchy's one revoked-serial set; later revocations show."""
        return self.allocator.revoked

    def store_for(self, root_names: set[bytes]) -> TrustStore:
        store = TrustStore()
        for name in sorted(root_names):
            store.add_root(self.root_cert(name))
        return store


def build_hierarchy(variant: str, rng: random.Random,
                    ca_validity: tuple[TimeStamp, TimeStamp] = (0, 2**40),
                    ) -> HierarchyConfig:
    if variant not in VARIANTS:
        raise InvariantViolation(f"unknown hierarchy variant {variant!r}")

    allocator = SerialAllocator()

    def key():
        return crypto.generate_key_pair(rng.randbytes(32))

    permanent = make_root_ca(PERMANENT_CA_NAME, key(),
                             Uri("coaps://ca0.example/est"), allocator,
                             ca_validity)
    if variant == "a":
        ca1 = make_root_ca(CA1_NAME, key(), Uri("coaps://ca1.example/est"),
                           allocator, ca_validity)
        ca2 = make_root_ca(CA2_NAME, key(), Uri("coaps://ca2.example/est"),
                           allocator, ca_validity)
    elif variant == "b":
        ca1 = make_sub_ca(CA1_NAME, key(), permanent,
                          Uri("coaps://ca1.example/est"), ca_validity)
        ca2 = make_root_ca(CA2_NAME, key(), Uri("coaps://ca2.example/est"),
                           allocator, ca_validity)
    elif variant == "c":
        ca1 = make_sub_ca(CA1_NAME, key(), permanent,
                          Uri("coaps://ca1.example/est"), ca_validity)
        ca2 = make_sub_ca(CA2_NAME, key(), permanent,
                          Uri("coaps://ca2.example/est"), ca_validity)
    else:  # d: the permanent CA doubles as CA1
        ca1 = permanent
        ca2 = make_sub_ca(CA2_NAME, key(), permanent,
                          Uri("coaps://ca2.example/est"), ca_validity)

    # Every operational CA must be able to verify factory certificates,
    # which chain to the permanent root.
    for ca in (ca1, ca2):
        if ca.truststore.root(PERMANENT_CA_NAME) is None:
            ca.truststore.add_root(permanent.certificate)
    return HierarchyConfig(variant, permanent, ca1, ca2, allocator)


def minimal_truststore(variant: str, phase: TrustPhase) -> set[bytes]:
    """Exactly the root names a device needs in the given phase."""
    if variant not in VARIANTS:
        raise InvariantViolation(f"unknown hierarchy variant {variant!r}")
    phase = TrustPhase(phase)
    if variant == "a":
        if phase is TrustPhase.PRE_ENROLL:
            return {CA1_NAME}
        return {CA1_NAME, CA2_NAME}
    if variant == "b":
        if phase is TrustPhase.PRE_ENROLL:
            return {PERMANENT_CA_NAME}
        return {PERMANENT_CA_NAME, CA2_NAME}
    return {PERMANENT_CA_NAME}
