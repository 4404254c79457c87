"""Service-provider actors: list building, transfer preparation and relay,
update servers, the attestation verifier stub, and CA frontends.

Pure operator operations are plain functions over OperatorState; the actor
classes wrap them for the simulated network, each declaring the one
acceptance table its `peers.ResponderPeer` dispatches from (the
stand-alone attestation verifier is just `ra_rows`), and the two orchestrator
generators drive the operator-change flow end to end from plain values
(device ids, start time, roots to push, RA and enroll endpoints). Each
operator checks the other's signed envelope once, on arrival, and keeps the
verified payload; SP1 re-signs SP2's claims into one CWT for every device.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import crypto, peers, pki, session, wire
from .errors import (
    Error,
    InvariantViolation,
    MalformedEncoding,
    NoExpectedMeasurement,
    UnknownDevice,
    UnverifiableFactoryCert,
)
from .messages import (
    CertificateSigningRequest,
    CertProfile,
    DeviceUpdateInfo,
    EnvelopeProfile,
    SignedEnvelope,
    TransferMessage,
    UpdateInfoList,
    Uri,
    VersionInfo,
    decode,
    encode,
)
from .simnet import Sleep


@dataclass
class OperatorState:
    name: str
    signing_key: crypto.KeyPair
    update_server_uri: Uri
    current_version: VersionInfo
    peer_signer_keys: dict[str, bytes] = field(default_factory=dict)
    managed_devices: dict[bytes, DeviceUpdateInfo] = field(
        default_factory=dict)
    # runtime bookkeeping filled by the network actors
    received_list: UpdateInfoList | None = None
    received_tm: TransferMessage | None = None
    device_sessions: dict[bytes, session.AuthenticatedSession] = field(
        default_factory=dict)
    acks: dict[bytes, dict[str, bool]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pure operator operations
# ---------------------------------------------------------------------------

def _update_info(sp1: OperatorState, device_id: bytes) -> DeviceUpdateInfo:
    """The transfer data of one managed device."""
    info = sp1.managed_devices.get(device_id)
    if info is None:
        raise UnknownDevice(f"device {device_id!r} not managed by {sp1.name}")
    return info


def sp1_build_update_info_list(sp1: OperatorState,
                               device_ids) -> SignedEnvelope:
    """Signed list of per-device transfer data shared with the new operator."""
    entries = tuple(_update_info(sp1, device_id) for device_id in device_ids)
    payload = encode(UpdateInfoList(entries))
    return crypto.sign_envelope(sp1.signing_key, EnvelopeProfile.UPDATE_LIST,
                                payload)


def sp2_prepare_transfer(sp2: OperatorState, verified_list: UpdateInfoList,
                         enroll_uri: Uri, ra_uri: Uri | None,
                         contact_before_enroll: bool) -> SignedEnvelope:
    """The six-claim transfer CWT, signed by SP2, once CA2 has registered
    the factory certificates under `enroll_uri`: the reset window is the
    hull of the per-device windows, the endpoints are SP2's."""
    entries = verified_list.entries
    if not entries:
        raise InvariantViolation("cannot prepare a transfer for zero devices")
    message = TransferMessage(
        reset_time_not_before=min(e.update_time_not_before for e in entries),
        reset_time_not_after=max(e.update_time_not_after for e in entries),
        ra_uri=ra_uri,
        update_uri=sp2.update_server_uri,
        contact_before_enroll=contact_before_enroll,
        enroll_uri=enroll_uri,
        # SP1 rewrites this on relay; until then it points at SP2's server.
        fallback_uri=sp2.update_server_uri,
    )
    return crypto.sign_envelope(sp2.signing_key, EnvelopeProfile.CWT,
                                encode(message))


def sp1_relay_transfer(sp1: OperatorState,
                       message: TransferMessage) -> SignedEnvelope:
    """The CWT SP1 relays to every device: SP2's verified claims with the
    fallback URI pointed at the SP1 update server, signed by SP1."""
    return crypto.sign_envelope(
        sp1.signing_key, EnvelopeProfile.CWT,
        encode(replace(message, fallback_uri=sp1.update_server_uri)))


def update_server_serve(operator: OperatorState,
                        device_version: VersionInfo) -> VersionInfo | None:
    """Firmware manifest bookkeeping: newer server version or no-op."""
    if operator.current_version.manifest_sequence \
            > device_version.manifest_sequence:
        return operator.current_version
    return None


# ---------------------------------------------------------------------------
# remote attestation stub
# ---------------------------------------------------------------------------

@dataclass
class RaVerifierState:
    expected: dict[bytes, bytes] = field(default_factory=dict)
    outstanding: dict[bytes, bytes] = field(default_factory=dict)


def ra_challenge(verifier: RaVerifierState, device_id: bytes, rng) -> bytes:
    if device_id not in verifier.expected:
        raise NoExpectedMeasurement(f"no expected measurement for {device_id!r}")
    nonce = rng.randbytes(16)
    verifier.outstanding[device_id] = nonce
    return nonce


def ra_respond(firmware: VersionInfo, nonce: bytes) -> bytes:
    """What an untampered device reports for its firmware state."""
    return crypto.digest(crypto.digest(encode(firmware)) + nonce)


def ra_verify(verifier: RaVerifierState, report: wire.RaReport) -> bool:
    """True iff the nonce matches the issued challenge and the measurement
    matches the expectation; challenges are single use."""
    if report.device_id not in verifier.expected:
        raise NoExpectedMeasurement(
            f"no expected measurement for {report.device_id!r}")
    issued = verifier.outstanding.pop(report.device_id, None)
    if issued is None or issued != report.nonce:
        return False
    expected = verifier.expected[report.device_id]
    return report.measurement == crypto.digest(expected + report.nonce)


def ra_serve(verifier: RaVerifierState, rng, subject: bytes,
             msg: wire.RaHello | wire.RaReport
             ) -> wire.RaChallenge | wire.RaVerdict:
    """The verifier's answer to one attestation message on a session whose
    peer is authenticated as `subject`: a fresh challenge for a RaHello, a
    verdict for a RaReport. A message in another device's name, or for a
    device the verifier holds no measurement for, gets a negative verdict
    and leaves the outstanding challenges as they were."""
    if msg.device_id != subject:
        return wire.RaVerdict(False)
    try:
        if isinstance(msg, wire.RaHello):
            return wire.RaChallenge(ra_challenge(verifier, msg.device_id, rng))
        return wire.RaVerdict(ra_verify(verifier, msg))
    except NoExpectedMeasurement:
        return wire.RaVerdict(False)


# ---------------------------------------------------------------------------
# network actors
# ---------------------------------------------------------------------------

def ra_rows(verifier: RaVerifierState, rng, note=None) -> dict:
    """Acceptance-table rows that serve attestation from `verifier` to any
    peer (`ra_serve`). With `note`, each verdict on a report in the peer's
    own name is traced as `ra_verdict`."""
    def serve(now, sess, msg):
        reply = ra_serve(verifier, rng, sess.peer_cert.subject_name, msg)
        if note is not None and isinstance(msg, wire.RaReport) \
                and msg.device_id == sess.peer_cert.subject_name:
            note("ra_verdict", msg.device_id, reply.ok)
        return reply
    return {wire.RaHello: (peers.ANY_PEER, serve, None),
            wire.RaReport: (peers.ANY_PEER, serve, None)}


# Validity of an operational certificate from its enrollment.
OPERATIONAL_LIFETIME = 10**6


class CaActor:
    """Enrollment, registration and revocation frontend over one CaState."""

    def __init__(self, net: peers.NetHandle, ca: pki.CaState):
        self.net = net
        self.ca = ca
        factory, server = {CertProfile.FACTORY}, {CertProfile.SERVER}
        self.peer = peers.ResponderPeer(net, ca.credential(), ca.truststore, {
            wire.EnrollReq: (factory, self._enroll, wire.EnrollRsp(
                False, b"", b"", (), "profile_not_allowed")),
            wire.RegisterReq: (server, self._register, wire.RegisterRsp(
                False, "", "profile_not_allowed")),
            wire.RevokeReq: (server, self._revoke, wire.RevokeRsp(False)),
        })

    def _enroll(self, now, sess, msg):
        validity = (now, now + OPERATIONAL_LIFETIME)
        try:
            if msg.server_keygen:
                cert, seed = pki.enroll_server_keygen(self.ca, sess.peer_cert,
                                                      validity)
            else:
                csr = decode(CertificateSigningRequest, msg.csr_bytes)
                cert = pki.enroll(self.ca, sess.peer_cert, csr, validity)
                seed = b""
        except Error as err:  # typed protocol errors become reasons
            return wire.EnrollRsp(False, b"", b"", (),
                                  wire.snake_case(type(err).__name__))
        chain = tuple(encode(c) for c in self.ca.issuer_chain)
        return wire.EnrollRsp(True, encode(cert), seed, chain, "")

    def _register(self, now, sess, msg):
        try:
            certs = [pki.decode_certificate(b) for b in msg.cert_list]
            uri = pki.register_factory_certs(self.ca, certs, now)
        except UnverifiableFactoryCert as err:
            return wire.RegisterRsp(False, "", err.reason)
        except (MalformedEncoding, InvariantViolation) as err:
            return wire.RegisterRsp(False, "",
                                    wire.snake_case(type(err).__name__))
        return wire.RegisterRsp(True, str(uri), "")

    def _revoke(self, now, sess, msg):
        serials = [s for s in self.ca.issued_serials_for(msg.subject_name)
                   if self.ca.issued[s].profile is CertProfile.OPERATIONAL]
        for serial in serials:
            pki.revoke(self.ca, serial)
        self.net.note("revoked", msg.subject_name, len(serials))
        return wire.RevokeRsp(True)


# Per delivery from the peer operator: whose agreed key signs it, envelope
# profile, payload kind, OperatorState field that holds the verified
# payload, trace kind on a bad signature, ack.
_DELIVERIES = {
    wire.ListDeliver: ("sp1", EnvelopeProfile.UPDATE_LIST, UpdateInfoList,
                       "received_list", "list_rejected", wire.ListAck),
    wire.TmDeliver: ("sp2", EnvelopeProfile.CWT, TransferMessage,
                     "received_tm", "tm_rejected", wire.TmAck),
}
# The acks a device answers SP1's pushes with, by the kind they ack.
_ACK_KINDS = {wire.TransferAck: "transfer", wire.TrustAck: "trust",
              wire.FinalAck: "final"}


class OperatorActor:
    """Update server plus operator-to-operator endpoint for SP1 or SP2."""

    def __init__(self, net: peers.NetHandle, state: OperatorState,
                 credential: pki.Credential, truststore: pki.TrustStore, *,
                 fallback_ra_state: RaVerifierState | None = None):
        self.net = net
        self.state = state
        table = {wire.UpdateCheck: (peers.ANY_PEER, self._update_check, None),
                 wire.FallbackReq: (peers.ANY_PEER, self._fallback, None)}
        table.update((cls, (peers.ANY_PEER, self._ack, None))
                     for cls in _ACK_KINDS)
        table.update((cls, ({CertProfile.SERVER}, self._accept_envelope,
                            delivery[-1](False)))
                     for cls, delivery in _DELIVERIES.items())
        if fallback_ra_state is not None:
            table.update(ra_rows(fallback_ra_state,
                                 net.sim.actor_rng(net.actor_id + "/ra")))
        self.peer = peers.ResponderPeer(net, credential, truststore, table)

    def _update_check(self, now, sess, msg):
        self.state.device_sessions[sess.peer_cert.subject_name] = sess
        try:
            version = decode(VersionInfo, msg.version_bytes)
        except (MalformedEncoding, InvariantViolation):
            return None
        delta = update_server_serve(self.state, version)
        if delta is None:
            return wire.UpdateRsp(False, msg.version_bytes)
        return wire.UpdateRsp(True, encode(delta))

    def _ack(self, now, sess, msg):
        subject = sess.peer_cert.subject_name
        acks = self.state.acks.setdefault(subject, {})
        kind = _ACK_KINDS[type(msg)]
        acks[kind] = acks.get(kind, False) or msg.ok
        if kind == "transfer":
            self.net.note("transfer_ack", subject, msg.ok, msg.reason)

    def _fallback(self, now, sess, msg):
        if msg.device_id != sess.peer_cert.subject_name:
            return wire.FallbackRsp(False, False)
        self.net.note("fallback_served", msg.device_id, msg.reason)
        return wire.FallbackRsp(True, wire.RaHello in self.peer.table)

    def _accept_envelope(self, now, sess, msg):
        """Ack a signed update list (from SP1) or transfer CWT (from SP2),
        storing its payload once the envelope and payload check out; the
        stored payload is verified and is not checked again."""
        signer, profile, kind, slot, rejected, ack = _DELIVERIES[type(msg)]
        try:
            envelope = decode(SignedEnvelope, msg.envelope_bytes)
        except (MalformedEncoding, InvariantViolation):
            return ack(False)
        if not crypto.verify_envelope(self.state.peer_signer_keys.get(signer),
                                      envelope, profile):
            self.net.note(rejected, f"bad_{signer}_signature")
            return ack(False)
        try:
            payload = decode(kind, envelope.payload)
        except (MalformedEncoding, InvariantViolation):
            return ack(False)
        setattr(self.state, slot, payload)
        return ack(True)


# ---------------------------------------------------------------------------
# transfer orchestration processes
# ---------------------------------------------------------------------------

# SP1 pushes each kind of message for at most PUSH_ROUNDS rounds, waiting
# ACK_WAIT time units for acks after each; the orchestrators poll every
# 2 time units for the other operator's delivery, at most POLL_LIMIT times.
PUSH_ROUNDS = 5
ACK_WAIT = 10
POLL_LIMIT = 300

# Actor ids of the servers the orchestrators open sessions with.
SP1_ACTOR = "sp1"
SP2_ACTOR = "sp2"
CA1_ACTOR = "ca1"
CA2_ACTOR = "ca2"


def _push_rounds(net: peers.NetHandle, actor: OperatorActor, device_ids,
                 pushes: dict):
    """SP1's push rounds over the devices' standing update-server sessions.

    `pushes` maps each ack kind to the one message that asks every device
    for it. Each round sends every pending device the messages of the kinds
    it has not acked, then waits; returns the devices still pending."""
    state = actor.state
    pending = set(device_ids)
    for _round in range(PUSH_ROUNDS):
        for device_id in sorted(pending):
            sess = state.device_sessions.get(device_id)
            if sess is None:
                net.note("push_skipped", device_id, "no_session")
                continue
            acked = state.acks.get(device_id, {})
            for kind, msg in pushes.items():
                if not acked.get(kind, False):
                    yield peers.send_record(sess, msg)
        yield Sleep(ACK_WAIT)
        pending = {d for d in pending
                   if not all(state.acks.get(d, {}).get(k, False)
                              for k in pushes)}
        if not pending:
            break
    return pending


def _exchange(net: peers.NetHandle, actor: OperatorActor, dst: str,
              purpose: str, request, expect: type, step: str):
    """Open a session to `dst` under the actor's server credential and make
    one call; the reply, or None with a `transfer_aborted` entry naming the
    session or `step` when either fails or the reply is not ok."""
    sess, status = yield from peers.open_session(
        net, dst, actor.peer.credential, actor.peer.truststore, purpose=purpose)
    if sess is None:
        net.note("transfer_aborted", f"{dst}_session", status)
        return None
    reply = yield from peers.session_call(net, sess, request, (expect,))
    if reply is None or not reply.ok:
        net.note("transfer_aborted", step, "timeout" if reply is None
                 else getattr(reply, "reason", "refused"))
        return None
    return reply


def _await_delivery(net: peers.NetHandle, state: OperatorState, slot: str,
                    step: str):
    """Poll every 2 time units, at most POLL_LIMIT times, for the other
    operator's verified delivery in `state.<slot>`; the delivery, or None
    with a `transfer_aborted` entry naming `step` on timeout."""
    for _poll in range(POLL_LIMIT):
        if getattr(state, slot) is not None:
            break
        yield Sleep(2)
    delivered = getattr(state, slot)
    if delivered is None:
        net.note("transfer_aborted", step, "timeout")
    return delivered


def sp1_transfer_process(net: peers.NetHandle, actor: OperatorActor,
                         device_ids, start_time: int, push_roots,
                         last_update: bool):
    """SP1 side of the operator change: at `start_time`, share the device
    list, await the transfer CWT and re-sign it once, push the roots (and
    with `last_update` the firmware) and then that CWT to every device, and
    revoke the old certificates, all under the update server's credential."""
    state = actor.state
    yield Sleep(start_time)

    envelope = sp1_build_update_info_list(state, device_ids)
    payload_size = len(envelope.payload)
    env_bytes = encode(envelope)
    net.note("size", "update_info_list_payload", payload_size)
    net.note("size", "update_info_list_envelope", len(env_bytes))
    net.note("size", "device_update_info",
             len(encode(_update_info(state, device_ids[0]))))

    if (yield from _exchange(net, actor, SP2_ACTOR, "sp1sp2",
                             wire.ListDeliver(env_bytes), wire.ListAck,
                             "list_deliver")) is None:
        return

    message = yield from _await_delivery(net, state, "received_tm", "await_tm")
    if message is None:
        return
    relayed = sp1_relay_transfer(state, message)
    transfer = wire.TransferDeliver(encode(relayed))

    # Preparation pushes first: the truststore update (and any final
    # firmware update) must land before the transfer CWT, since the reset
    # must leave the device able to authenticate the CA2 side.
    prep = {}
    if last_update:
        prep["final"] = wire.FinalUpdate(encode(state.current_version))
    if push_roots:
        prep["trust"] = wire.TrustPush(tuple(map(encode, push_roots)))
    if prep:
        pending = yield from _push_rounds(net, actor, device_ids, prep)
        if pending:
            net.note("prep_pushes_incomplete", len(pending))

    net.note("size", "relayed_transfer_envelope",
             len(transfer.envelope_bytes))
    net.note("size", "transfer_message_payload", len(relayed.payload))
    pending = yield from _push_rounds(net, actor, device_ids,
                                      {"transfer": transfer})
    net.note("transfer_pushes_done", len(pending))

    sess, status = yield from peers.open_session(
        net, CA1_ACTOR, actor.peer.credential, actor.peer.truststore,
        purpose="revoke")
    if sess is None:
        net.note("revocation_failed", None, status)
        return
    for device_id in sorted(set(device_ids)):
        reply = yield from peers.session_call(
            net, sess, wire.RevokeReq(device_id), (wire.RevokeRsp,))
        if reply is None or not reply.ok:
            net.note("revocation_failed", device_id,
                     "timeout" if reply is None else "refused")
    net.note("sp1_orchestration_done")


def sp2_transfer_process(net: peers.NetHandle, actor: OperatorActor,
                         ra_uri: Uri | None, contact_before_enroll: bool):
    """SP2 side: receive the signed list, register its factory certificates
    with CA2, and send the CWT naming CA2's enrollment URI."""
    state = actor.state
    info_list = yield from _await_delivery(net, state, "received_list",
                                           "await_list")
    if info_list is None:
        return

    cert_list = tuple(encode(e.factory_certificate) for e in info_list.entries)
    reply = yield from _exchange(net, actor, CA2_ACTOR, "register",
                                 wire.RegisterReq(cert_list),
                                 wire.RegisterRsp, "register")
    if reply is None:
        return

    envelope = sp2_prepare_transfer(state, info_list, Uri(reply.enroll_uri),
                                    ra_uri, contact_before_enroll)
    env_bytes = encode(envelope)
    net.note("size", "transfer_message_payload", len(envelope.payload))
    net.note("size", "transfer_message_envelope", len(env_bytes))

    if (yield from _exchange(net, actor, SP1_ACTOR, "sp2sp1",
                             wire.TmDeliver(env_bytes), wire.TmAck,
                             "tm_deliver")) is None:
        return
    net.note("sp2_orchestration_done")
