"""Certificate authorities, chain verification and hierarchy construction.

`VARIANTS` declares the four hierarchy variants once: `build_hierarchy`
makes each CA (`make_ca`) and `minimal_truststore` derives a device's roots
from it. Each CA's enrollment URI is spelled once, in `ENROLL_URIS`.

Serial numbers are unique across one hierarchy (a shared allocator), so a
flat set of revoked serials works as the revocation view for every server
side actor. Devices never consult revocation state; that cost sits with
the Internet-side servers.
"""

from __future__ import annotations

import functools
import itertools
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
    decode,
)

MAX_CHAIN_LEN = 8
# Validity of the CA, factory and server certificates.
CERT_VALIDITY = (0, 10**9)

PERMANENT_CA_NAME = b"permanent-ca"
CA1_NAME = b"ca1"
CA2_NAME = b"ca2"

ENROLL_URIS = {PERMANENT_CA_NAME: Uri("coaps://ca0.example/est"),
               CA1_NAME: Uri("coaps://ca1.example/est"),
               CA2_NAME: Uri("coaps://ca2.example/est")}

# For CA1 and CA2 in each variant: True when the CA is a root of its own,
# False when the permanent root certifies it, None when the permanent CA
# itself acts as it.
VARIANTS = {"a": {CA1_NAME: True, CA2_NAME: True},
            "b": {CA1_NAME: False, CA2_NAME: True},
            "c": {CA1_NAME: False, CA2_NAME: False},
            "d": {CA1_NAME: None, CA2_NAME: False}}


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

    def root_digests(self) -> tuple[tuple[bytes, bytes], ...]:
        """(name, digest of the encoding) of each root, by name."""
        return tuple((name, crypto.digest(cert.encoding()))
                     for name, cert in sorted(self._roots.items()))

    def copy(self) -> "TrustStore":
        out = TrustStore()
        out._roots = dict(self._roots)
        out._persist = dict(self._persist)
        return out

    def persistent_only(self) -> "TrustStore":
        """The store that survives a device reset."""
        out = TrustStore()
        out._roots = {n: c for n, c in self._roots.items() if self._persist[n]}
        out._persist = dict.fromkeys(out._roots, True)
        return out


# The certificate some bytes encode; every certificate off the wire is
# decoded here. Bytes of a certificate made in this run are answered by that
# certificate, from the record `decode` reads.
decode_certificate = functools.partial(decode, CompactCertificate)


def _link_check(cert: CompactCertificate, now: TimeStamp,
                revocation_view: set[int], what: str = "serial") -> ChainResult:
    """One link's own checks: inside its validity window at `now` and not
    revoked; a revocation names the link as `what`."""
    if now < cert.not_before:
        return ChainResult(False, ChainReason.NOT_YET_VALID,
                           f"serial {cert.serial} not valid before {cert.not_before}")
    if now > cert.not_after:
        return ChainResult(False, ChainReason.EXPIRED,
                           f"serial {cert.serial} expired at {cert.not_after}")
    if cert.serial in revocation_view:
        return ChainResult(False, ChainReason.REVOKED,
                           f"{what} {cert.serial} revoked")
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
        check = _link_check(current, now, revocation_view)
        if not check:
            return check

        root = store.root(current.issuer_name)
        issuer = root if root is not None else next(
            (c for c in intermediates if c.subject_name == current.issuer_name),
            None)
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
        if root is not None:
            # the root is a distinct link on the path unless it is the cert
            if current.subject_name == root.subject_name:
                return _OK
            return _link_check(root, now, revocation_view, "root serial")
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
    # subject name -> serials of `issued`, in issue order; kept by add_issued
    _serials_by_subject: dict[bytes, list[int]] = field(
        default_factory=dict, init=False, repr=False)

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

    def add_issued(self, cert: CompactCertificate) -> None:
        """Record a certificate this CA signed; the only writer of `issued`."""
        self.issued[cert.serial] = cert
        self._serials_by_subject.setdefault(cert.subject_name, []).append(
            cert.serial)

    def issued_serials_for(self, subject_name: bytes) -> list[int]:
        return list(self._serials_by_subject.get(subject_name, ()))


def _serial_for(allocator: SerialAllocator,
                validity: tuple[TimeStamp, TimeStamp]) -> int:
    """The next serial, for a certificate valid over `validity`: an inverted
    window is refused before a serial is taken."""
    not_before, not_after = validity
    if not_before > not_after:
        raise InvalidValidityWindow(f"window [{not_before}, {not_after}] inverted")
    return allocator.take()


def _signed(cls, values: tuple, key_pair: crypto.KeyPair):
    """A `cls` of `values` and, last, `key_pair`'s signature over its TBS,
    which it keeps: what this run signed over is never encoded again."""
    tbs = cls(*values, b"").tbs_bytes()
    signed = cls(*values, key_pair.sign(tbs))
    object.__setattr__(signed, "_tbs", tbs)
    return signed


def _signed_cert(issuer_name: bytes, issuer_key: crypto.KeyPair, serial: int,
                 subject_name: bytes, subject_public_key: bytes,
                 validity: tuple[TimeStamp, TimeStamp],
                 profile: CertProfile) -> CompactCertificate:
    not_before, not_after = validity
    return _signed(CompactCertificate, (serial, subject_name, subject_public_key,
                                        issuer_name, not_before, not_after,
                                        profile), issuer_key)


def make_ca(name: bytes, key_pair: crypto.KeyPair, allocator: SerialAllocator,
            validity: tuple[TimeStamp, TimeStamp],
            parent: CaState | None = None) -> CaState:
    """A self-signed root CA, or with `parent` a sub-CA that `parent`
    certifies and records as issued; it enrolls at `ENROLL_URIS[name]`."""
    issuer_name, issuer_key = (parent.name, parent.key_pair) if parent \
        else (name, key_pair)
    cert = _signed_cert(issuer_name, issuer_key,
                        _serial_for(allocator, validity), name,
                        key_pair.public_key, validity,
                        CertProfile.SUB_CA if parent else CertProfile.ROOT_CA)
    ca = CaState(name=name, key_pair=key_pair, certificate=cert,
                 enroll_uri=ENROLL_URIS[name], truststore=TrustStore(),
                 allocator=allocator,
                 issuer_chain=(cert,) + parent.issuer_chain if parent else ())
    (parent or ca).add_issued(cert)
    return ca


def make_csr(subject_name: bytes, key_pair: crypto.KeyPair,
             profile: CertProfile) -> CertificateSigningRequest:
    return _signed(CertificateSigningRequest,
                   (subject_name, key_pair.public_key, profile), key_pair)


def verify_csr(csr: CertificateSigningRequest) -> bool:
    return crypto.verify_raw(csr.subject_public_key, csr.proof_of_possession,
                             csr.tbs_bytes())


def issue_certificate(ca: CaState, subject_name: bytes, public_key: bytes,
                      profile: CertProfile,
                      validity: tuple[TimeStamp, TimeStamp]) -> CompactCertificate:
    """Sign and record a certificate binding `subject_name` to `public_key`:
    the one issuance of a subject certificate. Callers decide first why the
    key is the subject's: set-up drew it, `enroll` checked the CSR's proof
    of possession, `enroll_server_keygen` generated it."""
    cert = _signed_cert(ca.name, ca.key_pair, _serial_for(ca.allocator, validity),
                        subject_name, public_key, validity, profile)
    ca.add_issued(cert)
    return cert


def register_factory_certs(ca: CaState, certs: list[CompactCertificate],
                           now: TimeStamp) -> Uri:
    """Register factory certificates for later enrollment authorization.

    Returns the CA's enrollment URI. Nothing is registered if any
    certificate fails to verify against the CA's trusted roots, revoked
    serials included; the first such certificate in `certs` is named.
    """
    for cert in certs:
        result = verify_chain(cert, [], ca.truststore, now, ca.revoked)
        if not result:
            raise UnverifiableFactoryCert(cert.serial, result.detail)
        if cert.profile is not CertProfile.FACTORY:
            raise UnverifiableFactoryCert(cert.serial, "not a factory certificate")
    for cert in certs:
        ca.registered_factory[cert.serial] = cert
    return ca.enroll_uri


def _authorize(ca: CaState, peer_factory_cert: CompactCertificate) -> None:
    """Raise unless the session identity is a registered, matching and
    unrevoked factory certificate of `ca`."""
    if peer_factory_cert.profile is not CertProfile.FACTORY:
        raise NotRegistered("session identity is not a factory certificate")
    if peer_factory_cert.serial not in ca.registered_factory:
        raise NotRegistered(f"factory serial {peer_factory_cert.serial} unknown")
    if ca.registered_factory[peer_factory_cert.serial] != peer_factory_cert:
        raise NotRegistered("factory certificate does not match registration")
    if peer_factory_cert.serial in ca.revoked:
        raise RevokedFactoryCert(f"factory serial {peer_factory_cert.serial}")


def enroll(ca: CaState, peer_factory_cert: CompactCertificate,
           csr: CertificateSigningRequest,
           validity: tuple[TimeStamp, TimeStamp]) -> CompactCertificate:
    """Issue an operational certificate over an authenticated session.

    `peer_factory_cert` is the identity the session authenticated: it must be
    a registered, unrevoked factory certificate whose subject matches the CSR,
    and the CSR's proof of possession must verify under the key it names.
    """
    _authorize(ca, peer_factory_cert)
    if csr.subject_name != peer_factory_cert.subject_name:
        raise NameMismatch(
            f"CSR name {csr.subject_name!r} != session identity "
            f"{peer_factory_cert.subject_name!r}")
    if not verify_csr(csr):
        raise BadProofOfPossession("CSR proof-of-possession does not verify")
    return issue_certificate(ca, csr.subject_name, csr.subject_public_key,
                             CertProfile.OPERATIONAL, validity)


def enroll_server_keygen(ca: CaState, peer_factory_cert: CompactCertificate,
                         validity: tuple[TimeStamp, TimeStamp],
                         ) -> tuple[CompactCertificate, bytes]:
    """Server-side keypair variant: the CA generates the key and returns its
    seed along with the certificate. The CA holds the key itself, so no
    proof of possession is asked for; the session identity is authorized
    as in `enroll`."""
    seed = bytes(map(ca.rng.getrandbits, itertools.repeat(8, 32)))
    key_pair = crypto.generate_key_pair(seed)
    _authorize(ca, peer_factory_cert)
    return issue_certificate(ca, peer_factory_cert.subject_name,
                             key_pair.public_key, CertProfile.OPERATIONAL,
                             validity), seed


def revoke(ca: CaState, serial: int) -> None:
    if serial not in ca.issued:
        raise UnknownSerial(f"serial {serial} was not issued by {ca.name!r}")
    ca.revoked.add(serial)


# ---------------------------------------------------------------------------
# hierarchies
# ---------------------------------------------------------------------------

@dataclass
class HierarchyConfig:
    """The permanent CA plus both operational CAs, wired as `VARIANTS` says."""

    variant: str
    permanent: CaState
    ca1: CaState
    ca2: CaState
    allocator: SerialAllocator

    def cas(self) -> list[CaState]:
        return [self.permanent] + [ca for ca in (self.ca1, self.ca2)
                                   if ca is not self.permanent]

    def root_names(self) -> set[bytes]:
        """The permanent root and each CA that is a root of its own."""
        return {PERMANENT_CA_NAME} | {
            name for name, own_root in VARIANTS[self.variant].items() if own_root}

    def root_cert(self, root_name: bytes) -> CompactCertificate:
        if root_name not in self.root_names():
            raise InvariantViolation(f"no root named {root_name!r} in hierarchy")
        return next(ca.certificate for ca in self.cas() if ca.name == root_name)

    def trust_roots(self) -> None:
        """Trust, self-signature checked, each root CA in itself and the
        permanent root, to which factory certificates chain, in every CA;
        a sub-CA gets a copy of its parent's (the permanent CA's) store."""
        self.permanent.truststore.add_root(self.permanent.certificate)
        for ca in self.cas()[1:]:
            if ca.certificate.is_self_signed:
                ca.truststore.add_root(ca.certificate)
                ca.truststore.add_root(self.permanent.certificate)
            else:
                ca.truststore = self.permanent.truststore.copy()

    def revocation_view(self) -> set[int]:
        """The hierarchy's one revoked-serial set; later revocations show."""
        return self.allocator.revoked

    def store_for(self, root_names: set[bytes]) -> TrustStore:
        store = TrustStore()
        for name in sorted(root_names):
            store.add_root(self.root_cert(name))
        return store


def build_hierarchy(variant: str, rng: random.Random) -> HierarchyConfig:
    """The CAs of a variant, their truststores empty until `trust_roots`,
    so that a caller can sign more before the roots are checked. Keys and
    serials are drawn in CA order: the permanent CA, CA1 (unless the
    permanent CA acts as it), CA2."""
    if variant not in VARIANTS:
        raise InvariantViolation(f"unknown hierarchy variant {variant!r}")
    allocator = SerialAllocator()

    def new_ca(name: bytes, parent: CaState | None = None) -> CaState:
        key_pair = crypto.generate_key_pair(rng.randbytes(32))
        return make_ca(name, key_pair, allocator, CERT_VALIDITY, parent)

    permanent = new_ca(PERMANENT_CA_NAME)
    ca1, ca2 = (permanent if own_root is None
                else new_ca(name, None if own_root else permanent)
                for name, own_root in VARIANTS[variant].items())
    return HierarchyConfig(variant, permanent, ca1, ca2, allocator)


def minimal_truststore(variant: str, phase: TrustPhase) -> set[bytes]:
    """Exactly the root names a device needs in the given phase: the root
    CA1 chains to, and from PRE_TRANSFER on also the root CA2 chains to."""
    if variant not in VARIANTS:
        raise InvariantViolation(f"unknown hierarchy variant {variant!r}")
    needed = [CA1_NAME]
    if TrustPhase(phase) is TrustPhase.PRE_TRANSFER:
        needed.append(CA2_NAME)
    return {name if VARIANTS[variant][name] else PERMANENT_CA_NAME
            for name in needed}
