"""IoT device lifecycle: provisioning, enrollment, transfer, fallback.

The device is a single-owner state machine driven by simulator events.
Network operations are generators over the peers helpers; pure state
transitions (provisioning, transfer validation, reset, `on_push`) are
plain functions so they can be exercised directly.
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


# Legal lifecycle edges: `set_phase` raises WrongPhase on any other, and the
# run-level lifecycle check (`scenario.run_checks`) reports any other
# traced phase change.
EDGES = {
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
        if new not in EDGES[self.phase]:
            raise WrongPhase(f"{self.phase.value} -> {new.value} not allowed")
        old = self.phase
        self.phase = new
        if trace is not None:
            trace("phase", old.value, new.value)

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
    state.set_phase(DevicePhase.PROVISIONED, trace)


def handle_transfer_message(state: DeviceState, envelope: SignedEnvelope,
                            now: TimeStamp, trace=None) -> TransferMessage:
    """Validate a relayed transfer CWT; accepts only inside the reset window
    and only under the SP1 signer key."""
    if state.phase is not DevicePhase.ENROLLED:
        raise WrongPhase(f"transfer message in phase {state.phase.value}")
    if not crypto.verify_envelope(state.sp1_signer_key, envelope,
                                  EnvelopeProfile.CWT):
        raise BadSignature("transfer CWT not signed by the SP1 signer key")
    message = decode(TransferMessage, envelope.payload)
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
        offered = decode(VersionInfo, version_bytes)
    except (MalformedEncoding, InvariantViolation):
        return False
    if offered.manifest_sequence > state.firmware.manifest_sequence:
        state.firmware = offered
        if trace is not None:
            trace("firmware_updated", offered.manifest_sequence)
    return True


def on_push(state: DeviceState, msg, now: TimeStamp, note):
    """The ack of an SP1 TrustPush, FinalUpdate or TransferDeliver, else None
    (noted as unexpected). Content that does not decode, and a transfer the
    device refuses, get a negative ack and change nothing."""
    if isinstance(msg, wire.TrustPush):
        store = state.truststore.copy()
        try:
            for cert_bytes in msg.root_certs:
                store.add_root(pki.decode_certificate(cert_bytes),
                               persist=msg.persist)
        except (MalformedEncoding, InvariantViolation):
            return wire.TrustAck(False)
        state.truststore = store
        note("trust_push_applied", len(msg.root_certs), msg.persist)
        return wire.TrustAck(True)
    if isinstance(msg, wire.FinalUpdate):
        return wire.FinalAck(_install_offered_version(
            state, msg.version_bytes, note))
    if isinstance(msg, wire.TransferDeliver):
        try:
            envelope = decode(SignedEnvelope, msg.envelope_bytes)
            handle_transfer_message(state, envelope, now, note)
        except (BadSignature, OutsideResetWindow, MalformedEncoding,
                InvariantViolation, WrongPhase) as err:
            note("transfer_rejected", type(err).__name__)
            return wire.TransferAck(False, type(err).__name__)
        note("transfer_accepted", len(msg.envelope_bytes))
        return wire.TransferAck(True, "")
    note("note", "unexpected_push", None, type(msg).__name__)
    return None


# ---------------------------------------------------------------------------
# network operations (simulator processes)
# ---------------------------------------------------------------------------

def _open(state: DeviceState, net: peers.NetHandle, uri: Uri | None,
          purpose: str, cred: pki.Credential | None = None):
    """The `open_session` generator to the actor at `uri`, under `cred` or
    else the factory credential, checked against the device's truststore."""
    return peers.open_session(net, net.resolve(uri),
                              cred or state.factory_credential(),
                              state.truststore, purpose=purpose)


def _check_update(state: DeviceState, net: peers.NetHandle, sess):
    """The `session_call` generator offering the running firmware version to
    an update server on `sess`; it returns the UpdateRsp or None."""
    return peers.session_call(
        net, sess, wire.UpdateCheck(encode(state.firmware)), (wire.UpdateRsp,))


def _enroll(state: DeviceState, net: peers.NetHandle, server_keygen: bool):
    """One enrollment exchange at endpoints.ca_uri, installing a new key and
    its certificate; raises EnrollRejected. Callers set the phase."""
    sess, status = yield from _open(state, net, state.endpoints.ca_uri,
                                    "enroll")
    if sess is None:
        # A garbled enroll URI (records carry no integrity yet) names no actor.
        raise EnrollRejected("no_route_to_ca" if status == "no_route"
                             else status)

    if server_keygen:
        request = wire.EnrollReq(b"", True)
        new_key = None
    else:
        new_key = crypto.generate_key_pair(net.rng.randbytes(32))
        csr = pki.make_csr(state.device_id, new_key, CertProfile.OPERATIONAL)
        request = wire.EnrollReq(encode(csr), False)

    reply = yield from peers.session_call(net, sess, request,
                                          (wire.EnrollRsp,))
    if reply is None:
        raise EnrollRejected("timeout")
    if not reply.ok:
        raise EnrollRejected(reply.reason)

    try:
        cert = pki.decode_certificate(reply.cert_bytes)
        chain = tuple(pki.decode_certificate(b) for b in reply.chain_certs)
    except (MalformedEncoding, InvariantViolation):
        raise EnrollRejected("bad_enroll_response")
    if server_keygen:
        if len(reply.key_seed) != 32:
            raise EnrollRejected("bad_server_key")
        new_key = crypto.generate_key_pair(reply.key_seed)
    if cert.subject_public_key != new_key.public_key:
        raise EnrollRejected("certificate_key_mismatch")

    # Roots reach the device only at the factory or by an SP1 push; an
    # enrollment response cannot add one.
    check = pki.verify_chain(cert, list(chain), state.truststore, net.now(),
                             set())
    if not check:
        raise EnrollRejected(f"issued_cert_untrusted:{check.reason.value}")

    state.operational_key = new_key
    state.operational_cert = cert
    state.operational_chain = chain


def _ra_exchange(state: DeviceState, net: peers.NetHandle, sess) -> object:
    """Challenge-response attestation on an open session; returns verdict."""
    reply = yield from peers.session_call(
        net, sess, wire.RaHello(state.device_id), (wire.RaChallenge,))
    if reply is None:
        return None
    measurement = operators.ra_respond(state.firmware, reply.nonce)
    verdict = yield from peers.session_call(
        net, sess, wire.RaReport(state.device_id, reply.nonce, measurement),
        (wire.RaVerdict,))
    return None if verdict is None else verdict.ok


def contact_fallback(state: DeviceState, net: peers.NetHandle, reason: str):
    """Contact the fallback endpoint (the SP1 update server) after a
    permanent failure; ends in phase fallback either way, with the contact
    outcome in the trace."""
    net.note("fallback_start", reason)
    contacted = False
    for _ in range(3):  # session-level attempts on top of call retries
        sess, _ = yield from _open(state, net, state.endpoints.fallback_uri,
                                   "fallback")
        if sess is None:
            continue
        reply = yield from peers.session_call(
            net, sess, wire.FallbackReq(state.device_id, reason),
            (wire.FallbackRsp,))
        if reply is None:
            continue
        if reply.require_ra:
            verdict = yield from _ra_exchange(state, net, sess)
            net.note("fallback_ra", verdict)
        contacted = True
        break
    net.note("fallback_contacted", contacted, reason)
    state.set_phase(DevicePhase.FALLBACK, net.note)


def run_post_reset_sequence(state: DeviceState, net: peers.NetHandle,
                            server_keygen: bool):
    """From phase resetDone: RA (if configured), update-server contact (if
    flagged), re-enrollment; any permanent failure routes to the fallback
    endpoint. `set_phase` refuses the first edge in any other phase."""
    if state.endpoints.ra_uri is not None:
        verdict = None
        sess, _ = yield from _open(state, net, state.endpoints.ra_uri, "ra")
        if sess is not None:
            verdict = yield from _ra_exchange(state, net, sess)
        if verdict is not True:
            yield from contact_fallback(state, net, "ra_failed")
            return
        state.set_phase(DevicePhase.ATTESTED, net.note)

    if state.endpoints.contact_update_before_enroll:
        done = False
        sess, _ = yield from _open(state, net, state.endpoints.update_uri,
                                   "update")
        if sess is not None:
            reply = yield from _check_update(state, net, sess)
            if reply is not None:
                done = not reply.has_update or _install_offered_version(
                    state, reply.version_bytes, net.note)
        if not done:
            yield from contact_fallback(state, net, "update_failed")
            return
        state.set_phase(DevicePhase.UPDATED, net.note)

    try:  # re-enrollment with the post-transfer CA; the reset erased the key
        yield from _enroll(state, net, server_keygen)
    except EnrollRejected as err:
        yield from contact_fallback(state, net, f"enroll_failed:{err.reason}")
        return
    state.set_phase(DevicePhase.REENROLLED, net.note)


# ---------------------------------------------------------------------------
# full lifecycle process
# ---------------------------------------------------------------------------

def lifecycle(state: DeviceState, net: peers.NetHandle, server_keygen: bool):
    """Complete device process: enroll, operate under SP1, transfer, re-enroll
    under SP2 (or fall back). The reset runs in the tick the transfer is
    accepted, so inside the window that acceptance checked."""
    for _attempt in range(ENROLL_ATTEMPTS):
        try:
            yield from _enroll(state, net, server_keygen)
            break
        except EnrollRejected as err:
            net.note("enroll_retry", err.reason)
            yield Sleep(RETRY_BACKOFF)
    else:
        net.note("enroll_gave_up")
        return
    state.set_phase(DevicePhase.ENROLLED, net.note)

    # Standing session with the SP1 update server: normal operations and the
    # channel over which the operator change arrives.
    for _attempt in range(ENROLL_ATTEMPTS):
        sp1_sess, _ = yield from _open(state, net, state.endpoints.update_uri,
                                       "sp1", state.operational_credential())
        if sp1_sess is not None:
            break
        yield Sleep(RETRY_BACKOFF)
    else:
        net.note("sp1_unreachable")
        return
    reply = yield from _check_update(state, net, sp1_sess)
    if reply is not None and reply.has_update:
        # The routine check installs silently and ignores a garbled offer.
        _install_offered_version(state, reply.version_bytes, None)

    # Park on the SP1 session; answer operator pushes until a transfer lands.
    # While parked, re-enroll with the current CA before the operational
    # certificate expires (bounded by the renewal budget). A wait without a
    # timeout returns only with a message.
    renewals_left = RENEW_LIMIT
    while state.phase is DevicePhase.ENROLLED:
        timeout = None
        if renewals_left > 0:
            cert = state.operational_cert
            margin = max(10, (cert.not_after - cert.not_before) // 5)
            timeout = max(1, cert.not_after - margin - net.now())
        msg = yield from peers.session_wait(net, sp1_sess, timeout=timeout)
        if msg is None:
            renewals_left -= 1
            try:
                yield from _enroll(state, net, server_keygen)
                state.set_phase(DevicePhase.ENROLLED, net.note)
                net.note("operational_cert_renewed",
                         state.operational_cert.serial)
            except EnrollRejected as err:
                net.note("renewal_failed", err.reason)
            continue
        ack = on_push(state, msg, net.now(), net.note)
        if ack is not None:
            yield peers.send_record(sp1_sess, ack)

    # The loop ends only on an accepted transfer (transferPending is the one
    # edge out of enrolled but enrolled), whose window held at this tick; the
    # ack takes no simulated time, so the reset runs inside that window.
    reset_to_agreed_state(state, net.note)
    endpoints = state.endpoints
    net.note("reset_snapshot",
             "none" if state.operational_cert is None else "present",
             "none" if state.sp1_signer_key is None else "present",
             state.truststore.root_digests(), endpoints.ca_uri,
             endpoints.update_uri, endpoints.ra_uri, endpoints.fallback_uri)

    yield from run_post_reset_sequence(state, net, server_keygen)

    if state.phase is DevicePhase.REENROLLED:
        # Normal operations under SP2 with the new operational identity.
        sess, _ = yield from _open(state, net, state.endpoints.update_uri,
                                   "sp2", state.operational_credential())
        if sess is not None:
            reply = yield from _check_update(state, net, sess)
            net.note("sp2_checkin", reply is not None)
