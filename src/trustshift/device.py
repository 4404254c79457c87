"""IoT device lifecycle: provisioning, enrollment, transfer, fallback.

The device is a single-owner state machine driven by simulator events.
Network operations are generators over the peers helpers; pure state
transitions (provisioning, transfer validation, reset) are plain functions
so they can be exercised directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import crypto, operators, peers, pki, wire
from .errors import (
    BadSignature,
    EnrollRejected,
    InvariantViolation,
    KeyCertMismatch,
    MalformedEncoding,
    OutsideResetWindow,
    WrongPhase,
)
from .messages import (
    CertProfile,
    CompactCertificate,
    EnvelopeProfile,
    MessageKind,
    SignedEnvelope,
    TimeStamp,
    TransferMessage,
    Uri,
    VersionInfo,
    decode,
    encode,
)
from .simnet import Sleep


class DevicePhase(Enum):
    BLANK = "blank"
    PROVISIONED = "provisioned"
    ENROLLED = "enrolled"
    TRANSFER_PENDING = "transferPending"
    RESET_DONE = "resetDone"
    ATTESTED = "attested"
    UPDATED = "updated"
    REENROLLED = "reenrolled"
    FALLBACK = "fallback"


# Legal lifecycle edges; anything else is a WrongPhase.
_EDGES = {
    DevicePhase.BLANK: {DevicePhase.PROVISIONED},
    DevicePhase.PROVISIONED: {DevicePhase.ENROLLED},
    DevicePhase.ENROLLED: {DevicePhase.ENROLLED, DevicePhase.TRANSFER_PENDING},
    DevicePhase.TRANSFER_PENDING: {DevicePhase.RESET_DONE},
    DevicePhase.RESET_DONE: {DevicePhase.ATTESTED, DevicePhase.UPDATED,
                             DevicePhase.REENROLLED, DevicePhase.FALLBACK},
    DevicePhase.ATTESTED: {DevicePhase.UPDATED, DevicePhase.REENROLLED,
                           DevicePhase.FALLBACK},
    DevicePhase.UPDATED: {DevicePhase.REENROLLED, DevicePhase.FALLBACK},
    DevicePhase.REENROLLED: set(),
    DevicePhase.FALLBACK: set(),
}


@dataclass
class DeviceEndpoints:
    ca_uri: Uri | None = None
    update_uri: Uri | None = None
    ra_uri: Uri | None = None
    fallback_uri: Uri | None = None
    contact_update_before_enroll: bool = False


# Initial enrollment and the SP1 session are tried ENROLL_ATTEMPTS times,
# RETRY_BACKOFF time units apart.
ENROLL_ATTEMPTS = 3
RETRY_BACKOFF = 6
# Expiry-driven re-enrollments with the current CA while parked; bounded so a
# run without an operator change still reaches quiescence.
RENEW_LIMIT = 2


@dataclass
class DeviceState:
    device_id: bytes
    phase: DevicePhase = DevicePhase.BLANK
    factory_key: crypto.KeyPair | None = None
    factory_cert: CompactCertificate | None = None
    operational_key: crypto.KeyPair | None = None
    operational_cert: CompactCertificate | None = None
    operational_chain: tuple[CompactCertificate, ...] = ()
    truststore: pki.TrustStore = field(default_factory=pki.TrustStore)
    endpoints: DeviceEndpoints = field(default_factory=DeviceEndpoints)
    firmware: VersionInfo = VersionInfo(0, Uri("coaps://unset/fw/0"))
    pending_transfer: TransferMessage | None = None
    sp1_signer_key: bytes | None = None

    def set_phase(self, new: DevicePhase, trace=None) -> None:
        if new not in _EDGES[self.phase]:
            raise WrongPhase(f"{self.phase.value} -> {new.value} not allowed")
        old = self.phase
        self.phase = new
        if trace is not None:
            trace("phase", frm=old.value, to=new.value)

    def factory_credential(self) -> pki.Credential:
        return pki.Credential(self.factory_cert, (), self.factory_key)

    def operational_credential(self) -> pki.Credential:
        return pki.Credential(self.operational_cert, self.operational_chain,
                              self.operational_key)

    def report(self) -> str:
        lines = [
            f"device {self.device_id.decode(errors='replace')}",
            f"  phase: {self.phase.value}",
            f"  firmware: seq={self.firmware.manifest_sequence} "
            f"uri={self.firmware.manifest_uri}",
            f"  operational_cert: "
            + (f"serial={self.operational_cert.serial} "
               f"issuer={self.operational_cert.issuer_name.decode(errors='replace')}"
               if self.operational_cert else "none"),
            f"  truststore_roots: "
            + ",".join(sorted(n.decode(errors="replace")
                              for n in self.truststore.root_names())),
            f"  endpoints: ca={self.endpoints.ca_uri} "
            f"update={self.endpoints.update_uri} ra={self.endpoints.ra_uri} "
            f"fallback={self.endpoints.fallback_uri}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# pure lifecycle transitions
# ---------------------------------------------------------------------------

def provision_factory(state: DeviceState, factory_key: crypto.KeyPair,
                      factory_cert: CompactCertificate,
                      initial_store: pki.TrustStore, ca_uri: Uri,
                      update_uri: Uri | None = None,
                      sp1_signer_key: bytes | None = None,
                      firmware: VersionInfo | None = None,
                      trace=None) -> None:
    """Factory pre-programming: key, certificate, truststore, endpoints."""
    if state.phase is not DevicePhase.BLANK:
        raise WrongPhase(f"cannot provision in phase {state.phase.value}")
    if factory_cert.subject_public_key != factory_key.public_key:
        raise KeyCertMismatch("factory certificate is for a different key")
    if factory_cert.subject_name != state.device_id:
        raise KeyCertMismatch("factory certificate names a different device")
    state.factory_key = factory_key
    state.factory_cert = factory_cert
    state.truststore = initial_store.copy()
    state.endpoints.ca_uri = ca_uri
    state.endpoints.update_uri = update_uri
    state.sp1_signer_key = sp1_signer_key
    if firmware is not None:
        state.firmware = firmware
    state.set_phase(DevicePhase.PROVISIONED, trace)


def handle_transfer_message(state: DeviceState, envelope: SignedEnvelope,
                            now: TimeStamp, trace=None) -> TransferMessage:
    """Validate a relayed transfer CWT; accepts only inside the reset window
    and only under the SP1 signer key."""
    if state.phase is not DevicePhase.ENROLLED:
        raise WrongPhase(f"transfer message in phase {state.phase.value}")
    if envelope.protected_header.profile is not EnvelopeProfile.CWT:
        raise BadSignature("envelope is not a transfer CWT")
    if state.sp1_signer_key is None or not crypto.verify_envelope(
            state.sp1_signer_key, envelope):
        raise BadSignature("transfer CWT not signed by the SP1 signer key")
    message = decode(MessageKind.TRANSFER_MESSAGE, envelope.payload)
    if not (message.reset_time_not_before <= now <= message.reset_time_not_after):
        raise OutsideResetWindow(
            f"now={now} outside [{message.reset_time_not_before}, "
            f"{message.reset_time_not_after}]")
    state.pending_transfer = message
    state.set_phase(DevicePhase.TRANSFER_PENDING, trace)
    return message


def reset_to_agreed_state(state: DeviceState, trace=None) -> None:
    """Apply the pending transfer: new endpoints, erased operational material
    and SP1 service configuration; factory identity and firmware remain."""
    if state.phase is not DevicePhase.TRANSFER_PENDING:
        raise WrongPhase(f"reset in phase {state.phase.value}")
    message = state.pending_transfer
    state.endpoints = DeviceEndpoints(
        ca_uri=message.enroll_uri,
        update_uri=message.update_uri,
        ra_uri=message.ra_uri,
        fallback_uri=message.fallback_uri,
        contact_update_before_enroll=message.contact_before_enroll,
    )
    state.operational_key = None
    state.operational_cert = None
    state.operational_chain = ()
    state.sp1_signer_key = None
    state.truststore = state.truststore.persistent_only()
    state.pending_transfer = None
    state.set_phase(DevicePhase.RESET_DONE, trace)


def _install_offered_version(state: DeviceState, version_bytes: bytes,
                            trace) -> bool:
    """Install an offered firmware version if it is newer than the running
    one; False if the offer does not decode."""
    try:
        offered = decode(MessageKind.VERSION_INFO, version_bytes)
    except (MalformedEncoding, InvariantViolation):
        return False
    if offered.manifest_sequence > state.firmware.manifest_sequence:
        state.firmware = offered
        if trace is not None:
            trace("firmware_updated", seq=offered.manifest_sequence)
    return True


# ---------------------------------------------------------------------------
# network operations (simulator processes)
# ---------------------------------------------------------------------------

def _enroll_once(state: DeviceState, net: peers.NetHandle,
                 server_keygen: bool):
    """One enrollment exchange at endpoints.ca_uri; raises EnrollRejected."""
    ca_actor = net.resolve(state.endpoints.ca_uri)
    if ca_actor is None:
        raise EnrollRejected("no_route_to_ca")
    sess, status = yield from peers.open_session(
        net, ca_actor, state.factory_credential(), state.truststore,
        purpose="enroll")
    if sess is None:
        raise EnrollRejected(status)

    if server_keygen:
        request = wire.EnrollReq(b"", True)
        new_key = None
    else:
        new_key = crypto.generate_key_pair(net.rng.randbytes(32))
        csr = pki.make_csr(state.device_id, new_key, CertProfile.OPERATIONAL)
        request = wire.EnrollReq(encode(csr), False)

    reply, status = yield from peers.session_call(
        net, sess, ca_actor, request, (wire.EnrollRsp,))
    if reply is None:
        raise EnrollRejected(status)
    if not reply.ok:
        raise EnrollRejected(reply.reason)

    try:
        cert = decode(MessageKind.CERTIFICATE, reply.cert_bytes)
        chain = tuple(decode(MessageKind.CERTIFICATE, b)
                      for b in reply.chain_certs)
        roots = tuple(decode(MessageKind.CERTIFICATE, b)
                      for b in reply.root_certs)
    except (MalformedEncoding, InvariantViolation):
        raise EnrollRejected("bad_enroll_response")
    if server_keygen:
        if len(reply.key_seed) != 32:
            raise EnrollRejected("bad_server_key")
        new_key = crypto.generate_key_pair(reply.key_seed)
    if cert.subject_public_key != new_key.public_key:
        raise EnrollRejected("certificate_key_mismatch")

    for root in roots:
        state.truststore.add_root(root, persist=True)
    check = pki.verify_chain(cert, list(chain), state.truststore, net.now(),
                             set())
    if not check:
        raise EnrollRejected(f"issued_cert_untrusted:{check.reason.value}")

    state.operational_key = new_key
    state.operational_cert = cert
    state.operational_chain = chain
    return sess


def initial_enroll(state: DeviceState, net: peers.NetHandle,
                   server_keygen: bool):
    """Initial enrollment for an operational certificate; device stays
    provisioned and may retry on EnrollRejected."""
    if state.phase is not DevicePhase.PROVISIONED:
        raise WrongPhase(f"initial enroll in phase {state.phase.value}")
    yield from _enroll_once(state, net, server_keygen)
    state.set_phase(DevicePhase.ENROLLED, net.note)


def reenroll(state: DeviceState, net: peers.NetHandle, server_keygen: bool):
    """Re-enrollment with the post-transfer CA using a fresh keypair."""
    if state.phase not in (DevicePhase.RESET_DONE, DevicePhase.ATTESTED,
                           DevicePhase.UPDATED):
        raise WrongPhase(f"reenroll in phase {state.phase.value}")
    previous_key = state.operational_key
    yield from _enroll_once(state, net, server_keygen)
    if previous_key is not None \
            and state.operational_key.public_key == previous_key.public_key:
        raise EnrollRejected("key_not_fresh")
    state.set_phase(DevicePhase.REENROLLED, net.note)


def _ra_exchange(state: DeviceState, net: peers.NetHandle, dst: str,
                 sess) -> object:
    """Challenge-response attestation on an open session; returns verdict."""
    reply, status = yield from peers.session_call(
        net, sess, dst, wire.RaHello(state.device_id), (wire.RaChallenge,))
    if reply is None:
        return None
    measurement = operators.ra_respond(state.firmware, reply.nonce)
    verdict, status = yield from peers.session_call(
        net, sess, dst, wire.RaReport(state.device_id, reply.nonce, measurement),
        (wire.RaVerdict,))
    if verdict is None:
        return None
    return verdict.ok


def contact_fallback(state: DeviceState, net: peers.NetHandle, reason: str):
    """Contact the fallback endpoint (the SP1 update server) after a
    permanent failure; ends in phase fallback either way, with the contact
    outcome in the trace."""
    net.note("fallback_start", reason=reason)
    contacted = False
    dst = net.resolve(state.endpoints.fallback_uri) \
        if state.endpoints.fallback_uri else None
    if dst is not None:
        for _ in range(3):  # session-level attempts on top of call retries
            sess, status = yield from peers.open_session(
                net, dst, state.factory_credential(), state.truststore,
                purpose="fallback")
            if sess is None:
                continue
            reply, status = yield from peers.session_call(
                net, sess, dst, wire.FallbackReq(state.device_id, reason),
                (wire.FallbackRsp,))
            if reply is None:
                continue
            if reply.require_ra:
                verdict = yield from _ra_exchange(state, net, dst, sess)
                net.note("fallback_ra", verdict=str(verdict))
            contacted = True
            break
    net.note("fallback_contacted", ok=str(contacted), reason=reason)
    state.set_phase(DevicePhase.FALLBACK, net.note)


def run_post_reset_sequence(state: DeviceState, net: peers.NetHandle,
                            server_keygen: bool):
    """RA (if configured), update-server contact (if flagged), re-enrollment;
    any permanent failure routes to the fallback endpoint."""
    if state.phase is not DevicePhase.RESET_DONE:
        raise WrongPhase(f"post-reset sequence in phase {state.phase.value}")

    if state.endpoints.ra_uri is not None:
        dst = net.resolve(state.endpoints.ra_uri)
        verdict = None
        if dst is not None:
            sess, status = yield from peers.open_session(
                net, dst, state.factory_credential(), state.truststore,
                purpose="ra")
            if sess is not None:
                verdict = yield from _ra_exchange(state, net, dst, sess)
        if verdict is not True:
            yield from contact_fallback(state, net, "ra_failed")
            return
        state.set_phase(DevicePhase.ATTESTED, net.note)

    if state.endpoints.contact_update_before_enroll:
        dst = net.resolve(state.endpoints.update_uri)
        done = False
        if dst is not None:
            sess, status = yield from peers.open_session(
                net, dst, state.factory_credential(), state.truststore,
                purpose="update")
            if sess is not None:
                reply, status = yield from peers.session_call(
                    net, sess, dst, wire.UpdateCheck(encode(state.firmware)),
                    (wire.UpdateRsp,))
                if reply is not None:
                    done = not reply.has_update or _install_offered_version(
                        state, reply.version_bytes, net.note)
        if not done:
            yield from contact_fallback(state, net, "update_failed")
            return
        state.set_phase(DevicePhase.UPDATED, net.note)

    try:
        yield from reenroll(state, net, server_keygen)
    except EnrollRejected as err:
        yield from contact_fallback(state, net, f"enroll_failed:{err.reason}")
        return


# ---------------------------------------------------------------------------
# full lifecycle process
# ---------------------------------------------------------------------------

def lifecycle(state: DeviceState, net: peers.NetHandle, server_keygen: bool):
    """Complete device process: enroll, operate under SP1, transfer, re-enroll
    under SP2 (or fall back)."""
    enrolled = False
    for _attempt in range(ENROLL_ATTEMPTS):
        try:
            yield from initial_enroll(state, net, server_keygen)
            enrolled = True
            break
        except EnrollRejected as err:
            net.note("enroll_retry", reason=str(err.reason))
            yield Sleep(RETRY_BACKOFF)
    if not enrolled:
        net.note("enroll_gave_up")
        return

    # Standing session with the SP1 update server: normal operations and the
    # channel over which the operator change arrives.
    sp1_dst = net.resolve(state.endpoints.update_uri) \
        if state.endpoints.update_uri else None
    if sp1_dst is None:
        net.note("sp1_unreachable")
        return
    sp1_sess = None
    for _attempt in range(ENROLL_ATTEMPTS):
        sp1_sess, status = yield from peers.open_session(
            net, sp1_dst, state.operational_credential(), state.truststore,
            purpose="sp1")
        if sp1_sess is not None:
            break
        yield Sleep(RETRY_BACKOFF)
    if sp1_sess is None:
        net.note("sp1_unreachable")
        return
    reply, status = yield from peers.session_call(
        net, sp1_sess, sp1_dst, wire.UpdateCheck(encode(state.firmware)),
        (wire.UpdateRsp,))
    if reply is not None and reply.has_update:
        # The routine check installs silently and ignores a garbled offer.
        _install_offered_version(state, reply.version_bytes, None)

    # Park on the SP1 session; handle operator pushes until a transfer lands.
    # While parked, re-enroll with the current CA before the operational
    # certificate expires (bounded by the renewal budget).
    renewals_left = RENEW_LIMIT
    while state.phase is DevicePhase.ENROLLED:
        timeout = None
        if renewals_left > 0 and state.operational_cert is not None:
            cert = state.operational_cert
            margin = max(10, (cert.not_after - cert.not_before) // 5)
            timeout = max(1, cert.not_after - margin - net.now())
        msg, src = yield from peers.session_wait(net, sp1_sess, timeout=timeout)
        if msg is None:
            if timeout is None:
                continue
            renewals_left -= 1
            try:
                yield from _enroll_once(state, net, server_keygen)
                state.set_phase(DevicePhase.ENROLLED, net.note)
                net.note("operational_cert_renewed",
                         serial=state.operational_cert.serial)
            except EnrollRejected as err:
                net.note("renewal_failed", reason=str(err.reason))
            continue
        # Every push is answered with one ack; content that does not decode
        # gets a negative one and changes nothing.
        if isinstance(msg, wire.TrustPush):
            store = state.truststore.copy()
            try:
                for cert_bytes in msg.root_certs:
                    root = decode(MessageKind.CERTIFICATE, cert_bytes)
                    store.add_root(root, persist=msg.persist)
            except (MalformedEncoding, InvariantViolation):
                ack = wire.TrustAck(False)
            else:
                state.truststore = store
                ack = wire.TrustAck(True)
                net.note("trust_push_applied", count=len(msg.root_certs),
                         persist=str(msg.persist))
        elif isinstance(msg, wire.FinalUpdate):
            ack = wire.FinalAck(_install_offered_version(
                state, msg.version_bytes, net.note))
        elif isinstance(msg, wire.TransferDeliver):
            try:
                envelope = decode(MessageKind.SIGNED_ENVELOPE,
                                  msg.envelope_bytes)
                handle_transfer_message(state, envelope, net.now(), net.note)
                net.note("transfer_accepted",
                         size=len(msg.envelope_bytes))
                ack = wire.TransferAck(True, "")
            except (BadSignature, OutsideResetWindow, MalformedEncoding,
                    InvariantViolation, WrongPhase) as err:
                net.note("transfer_rejected",
                         reason=type(err).__name__)
                ack = wire.TransferAck(False, type(err).__name__)
        else:
            net.note("note", what="unexpected_push",
                     got=type(msg).__name__)
            continue
        yield peers.send_record(sp1_sess, sp1_dst, ack)

    if state.phase is not DevicePhase.TRANSFER_PENDING:
        return

    # Second window check at reset execution time.
    message = state.pending_transfer
    if net.now() < message.reset_time_not_before:
        yield Sleep(message.reset_time_not_before - net.now())
    if net.now() > message.reset_time_not_after:
        net.note("reset_window_expired")
        return  # inert: transfer already acknowledged but window passed

    reset_to_agreed_state(state, net.note)
    net.note("reset_snapshot",
             op_cert="none" if state.operational_cert is None else "present",
             sp1_key="none" if state.sp1_signer_key is None else "present",
             roots=",".join(sorted(n.decode(errors="replace")
                                   for n in state.truststore.root_names())),
             ca_uri=str(state.endpoints.ca_uri),
             update_uri=str(state.endpoints.update_uri),
             ra_uri=str(state.endpoints.ra_uri),
             fallback_uri=str(state.endpoints.fallback_uri))

    yield from run_post_reset_sequence(state, net, server_keygen)

    if state.phase is DevicePhase.REENROLLED:
        # Normal operations under SP2 with the new operational identity.
        dst = net.resolve(state.endpoints.update_uri)
        sess, status = yield from peers.open_session(
            net, dst, state.operational_credential(), state.truststore,
            purpose="sp2")
        if sess is not None:
            reply, status = yield from peers.session_call(
                net, sess, dst, wire.UpdateCheck(encode(state.firmware)),
                (wire.UpdateRsp,))
            net.note("sp2_checkin", ok=str(reply is not None))
