"""Service-provider actors: list building, transfer preparation and relay,
update servers, the attestation verifier stub, and CA frontends.

Pure operator operations are plain functions over OperatorState; the actor
classes wrap them for the simulated network, and the two orchestrator
generators drive the operator-change flow end to end from plain values
(device ids, start time, roots to push, RA and enroll endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import crypto, peers, pki, wire
from .errors import (
    BadSp2Signature,
    InvariantViolation,
    MalformedEncoding,
    NoExpectedMeasurement,
    UnknownDevice,
    UnverifiableFactoryCert,
)
from .messages import (
    CertificateSigningRequest,
    CertProfile,
    CompactCertificate,
    DeviceUpdateInfo,
    EnvelopeProfile,
    SignedEnvelope,
    TimeStamp,
    TransferMessage,
    UpdateInfoList,
    Uri,
    VersionInfo,
    decode,
    encode,
)
from .simnet import Sleep


@dataclass
class ManagedDevice:
    factory_cert: object
    version: VersionInfo
    window: tuple[TimeStamp, TimeStamp]


@dataclass
class OperatorState:
    name: str
    signing_key: crypto.KeyPair
    update_server_uri: Uri
    current_version: VersionInfo
    peer_signer_keys: dict[str, bytes] = field(default_factory=dict)
    managed_devices: dict[bytes, ManagedDevice] = field(default_factory=dict)
    # runtime bookkeeping filled by the network actors
    received_list: UpdateInfoList | None = None
    received_tm: SignedEnvelope | None = None
    device_sessions: dict[bytes, bytes] = field(default_factory=dict)
    acks: dict[bytes, dict[str, bool]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pure operator operations
# ---------------------------------------------------------------------------

def sp1_build_update_info_list(sp1: OperatorState,
                               device_ids) -> SignedEnvelope:
    """Signed list of per-device transfer data shared with the new operator."""
    entries = []
    for device_id in device_ids:
        managed = sp1.managed_devices.get(device_id)
        if managed is None:
            raise UnknownDevice(f"device {device_id!r} not managed by {sp1.name}")
        entries.append(DeviceUpdateInfo(managed.factory_cert, *managed.window,
                                        managed.version))
    payload = encode(UpdateInfoList(tuple(entries)))
    return crypto.sign_envelope(sp1.signing_key, EnvelopeProfile.UPDATE_LIST,
                                payload)


def build_transfer_message(sp2: OperatorState, info_list: UpdateInfoList,
                           enroll_uri: Uri, ra_uri: Uri | None,
                           contact_before_enroll: bool) -> TransferMessage:
    """The six-claim transfer payload: window hull over the per-device
    windows, endpoints per the SP2 configuration."""
    if not info_list.entries:
        raise InvariantViolation("cannot prepare a transfer for zero devices")
    not_before = min(e.update_time_not_before for e in info_list.entries)
    not_after = max(e.update_time_not_after for e in info_list.entries)
    return TransferMessage(
        reset_time_not_before=not_before,
        reset_time_not_after=not_after,
        ra_uri=ra_uri,
        update_uri=sp2.update_server_uri,
        contact_before_enroll=contact_before_enroll,
        enroll_uri=enroll_uri,
        # SP1 rewrites this on relay; until then it points at SP2's server.
        fallback_uri=sp2.update_server_uri,
    )


def sp2_prepare_transfer(sp2: OperatorState, verified_list: UpdateInfoList,
                         enroll_uri: Uri, ra_uri: Uri | None,
                         contact_before_enroll: bool) -> SignedEnvelope:
    """The transfer CWT, signed by SP2, once CA2 has registered the factory
    certificates under `enroll_uri`."""
    message = build_transfer_message(sp2, verified_list, enroll_uri, ra_uri,
                                     contact_before_enroll)
    return crypto.sign_envelope(sp2.signing_key, EnvelopeProfile.CWT,
                                encode(message))


def sp1_relay_transfer(sp1: OperatorState, sp2_envelope: SignedEnvelope,
                       device_id: bytes) -> SignedEnvelope:
    """Per-device CWT: claims copied verbatim except the fallback URI, which
    becomes the SP1 update server."""
    sp2_key = sp1.peer_signer_keys.get("sp2")
    if sp2_key is None or not crypto.verify_envelope(sp2_key, sp2_envelope) \
            or sp2_envelope.protected_header.profile is not EnvelopeProfile.CWT:
        raise BadSp2Signature("transfer CWT failed verification under the "
                              "agreed SP2 key")
    if device_id not in sp1.managed_devices:
        raise UnknownDevice(f"device {device_id!r} not managed by {sp1.name}")
    rewritten = replace(decode(TransferMessage, sp2_envelope.payload),
                        fallback_uri=sp1.update_server_uri)
    return crypto.sign_envelope(sp1.signing_key, EnvelopeProfile.CWT,
                                encode(rewritten))


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

@dataclass(frozen=True)
class RaExchange:
    nonce: bytes
    device_id: bytes
    reported_measurement: bytes


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


def ra_verify(verifier: RaVerifierState, exchange: RaExchange) -> bool:
    """True iff the nonce matches the issued challenge and the measurement
    matches the expectation; challenges are single use."""
    if exchange.device_id not in verifier.expected:
        raise NoExpectedMeasurement(
            f"no expected measurement for {exchange.device_id!r}")
    issued = verifier.outstanding.pop(exchange.device_id, None)
    if issued is None or issued != exchange.nonce:
        return False
    expected = verifier.expected[exchange.device_id]
    return exchange.reported_measurement == crypto.digest(expected
                                                          + exchange.nonce)


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
        return wire.RaVerdict(ra_verify(verifier, RaExchange(
            msg.nonce, msg.device_id, msg.measurement)))
    except NoExpectedMeasurement:
        return wire.RaVerdict(False)


# ---------------------------------------------------------------------------
# network actors
# ---------------------------------------------------------------------------

class CaActor:
    """Enrollment, registration and revocation frontend over one CaState."""

    def __init__(self, sim, actor_id: str, ca: pki.CaState, *,
                 operational_lifetime: int = 1_000_000):
        self.sim = sim
        self.actor_id = actor_id
        self.ca = ca
        self.operational_lifetime = operational_lifetime
        self.peer = peers.ResponderPeer(
            sim, actor_id, ca.credential(), ca.truststore, self._handle_app,
            revocation_view=ca.revoked,
            allowed_profiles=(CertProfile.FACTORY, CertProfile.SERVER))
        sim.register_responder(actor_id, self.peer.handle)

    def _enroll(self, now, entry, msg):
        if entry.peer_cert.profile is not CertProfile.FACTORY:
            return wire.EnrollRsp(False, b"", b"", (), (), "profile_not_allowed")
        validity = (now, now + self.operational_lifetime)
        try:
            if msg.server_keygen:
                cert, seed = pki.enroll_server_keygen(self.ca, entry.peer_cert,
                                                      validity)
            else:
                csr = decode(CertificateSigningRequest, msg.csr_bytes)
                cert = pki.enroll(self.ca, entry.peer_cert, csr, validity)
                seed = b""
        except Exception as err:  # typed protocol errors become reasons
            return wire.EnrollRsp(False, b"", b"", (), (),
                                  wire.snake_case(type(err).__name__))
        chain = tuple(encode(c) for c in self.ca.issuer_chain)
        return wire.EnrollRsp(True, encode(cert), seed, chain, (), "")

    def _handle_app(self, now, entry, msg):
        if isinstance(msg, wire.EnrollReq):
            return [self._enroll(now, entry, msg)]
        if isinstance(msg, wire.RegisterReq):
            if entry.peer_cert.profile is not CertProfile.SERVER:
                return [wire.RegisterRsp(False, "", 0, "profile_not_allowed")]
            try:
                certs = [decode(CompactCertificate, b) for b in msg.cert_list]
                uri = pki.register_factory_certs(self.ca, certs, now)
            except UnverifiableFactoryCert as err:
                return [wire.RegisterRsp(False, "", err.serial, err.reason)]
            except (MalformedEncoding, InvariantViolation) as err:
                return [wire.RegisterRsp(False, "", 0,
                                         wire.snake_case(type(err).__name__))]
            return [wire.RegisterRsp(True, str(uri), 0, "")]
        if isinstance(msg, wire.RevokeReq):
            if entry.peer_cert.profile is not CertProfile.SERVER:
                return [wire.RevokeRsp(False, 0)]
            serials = [s for s in self.ca.issued_serials_for(msg.subject_name)
                       if self.ca.issued[s].profile is CertProfile.OPERATIONAL]
            for serial in serials:
                pki.revoke(self.ca, serial)
            self.sim.trace.add("revoked", now, actor=self.actor_id,
                               subject=msg.subject_name.decode(errors="replace"),
                               count=len(serials))
            return [wire.RevokeRsp(True, len(serials))]
        return []


# Per delivery from the peer operator: whose agreed key signs it, envelope
# profile, payload kind, trace kind on a bad signature, size class, ack.
_DELIVERIES = {
    wire.ListDeliver: ("sp1", EnvelopeProfile.UPDATE_LIST,
                       UpdateInfoList, "list_rejected",
                       "update_info_list_envelope", wire.ListAck),
    wire.TmDeliver: ("sp2", EnvelopeProfile.CWT, TransferMessage,
                     "tm_rejected", "transfer_message_envelope", wire.TmAck),
}


class OperatorActor:
    """Update server plus operator-to-operator endpoint for SP1 or SP2."""

    def __init__(self, sim, actor_id: str, state: OperatorState,
                 credential: pki.Credential, truststore: pki.TrustStore, *,
                 revocation_view: set[int] = frozenset(),
                 fallback_ra_state: RaVerifierState | None = None):
        self.sim = sim
        self.actor_id = actor_id
        self.state = state
        self.fallback_ra_state = fallback_ra_state
        self.peer = peers.ResponderPeer(
            sim, actor_id, credential, truststore, self._handle_app,
            revocation_view=revocation_view)
        self.rng = sim.actor_rng(actor_id + "/ra")
        sim.register_responder(actor_id, self.peer.handle)

    def _ack(self, entry, kind: str, ok: bool) -> None:
        subject = entry.peer_cert.subject_name
        self.state.acks.setdefault(subject, {})[kind] = \
            self.state.acks.get(subject, {}).get(kind, False) or ok

    def _handle_app(self, now, entry, msg):
        state = self.state
        if isinstance(msg, wire.UpdateCheck):
            state.device_sessions[entry.peer_cert.subject_name] = \
                entry.endpoint.session_id
            try:
                version = decode(VersionInfo, msg.version_bytes)
            except (MalformedEncoding, InvariantViolation):
                return []
            delta = update_server_serve(state, version)
            if delta is None:
                return [wire.UpdateRsp(False, msg.version_bytes)]
            return [wire.UpdateRsp(True, encode(delta))]

        if isinstance(msg, wire.TransferAck):
            self._ack(entry, "transfer", msg.accepted)
            self.sim.trace.add("transfer_ack", now, actor=self.actor_id,
                               device=entry.peer_cert.subject_name.decode(
                                   errors="replace"),
                               accepted=str(msg.accepted), reason=msg.reason)
            return []
        if isinstance(msg, wire.TrustAck):
            self._ack(entry, "trust", msg.ok)
            return []
        if isinstance(msg, wire.FinalAck):
            self._ack(entry, "final", msg.ok)
            return []

        if isinstance(msg, wire.FallbackReq):
            if msg.device_id != entry.peer_cert.subject_name:
                return [wire.FallbackRsp(False, False)]
            self.sim.trace.add("fallback_served", now, actor=self.actor_id,
                               device=msg.device_id.decode(errors="replace"),
                               reason=msg.reason)
            return [wire.FallbackRsp(True, self.fallback_ra_state is not None)]
        if isinstance(msg, (wire.RaHello, wire.RaReport)) \
                and self.fallback_ra_state is not None:
            return [ra_serve(self.fallback_ra_state, self.rng,
                             entry.peer_cert.subject_name, msg)]

        if isinstance(msg, (wire.ListDeliver, wire.TmDeliver)):
            return [self._accept_envelope(now, entry, msg)]
        return []

    def _accept_envelope(self, now, entry, msg):
        """Ack a signed update list (from SP1) or transfer CWT (from SP2),
        storing it once the sender, signature and payload all check out."""
        signer, profile, kind, rejected, size_cls, ack = _DELIVERIES[type(msg)]
        if entry.peer_cert.profile is not CertProfile.SERVER:
            return ack(False)
        try:
            envelope = decode(SignedEnvelope, msg.envelope_bytes)
        except (MalformedEncoding, InvariantViolation):
            return ack(False)
        key = self.state.peer_signer_keys.get(signer)
        if key is None or not crypto.verify_envelope(key, envelope) \
                or envelope.protected_header.profile is not profile:
            self.sim.trace.add(rejected, now, actor=self.actor_id,
                               reason=f"bad_{signer}_signature")
            return ack(False)
        try:
            payload = decode(kind, envelope.payload)
        except (MalformedEncoding, InvariantViolation):
            return ack(False)
        if isinstance(msg, wire.ListDeliver):
            self.state.received_list = payload
        else:
            self.state.received_tm = envelope
        self.sim.trace.add("size", now, cls=size_cls,
                           bytes=len(msg.envelope_bytes))
        return ack(True)


class RaVerifierActor:
    """Stand-alone attestation verifier under the new operator's domain."""

    def __init__(self, sim, actor_id: str, ra_state: RaVerifierState,
                 credential: pki.Credential, truststore: pki.TrustStore, *,
                 revocation_view: set[int]):
        self.sim = sim
        self.actor_id = actor_id
        self.ra_state = ra_state
        self.rng = sim.actor_rng(actor_id + "/nonce")
        self.peer = peers.ResponderPeer(
            sim, actor_id, credential, truststore, self._handle_app,
            revocation_view=revocation_view)
        sim.register_responder(actor_id, self.peer.handle)

    def _handle_app(self, now, entry, msg):
        if not isinstance(msg, (wire.RaHello, wire.RaReport)):
            return []
        subject = entry.peer_cert.subject_name
        reply = ra_serve(self.ra_state, self.rng, subject, msg)
        if isinstance(msg, wire.RaReport) and msg.device_id == subject:
            self.sim.trace.add("ra_verdict", now, actor=self.actor_id,
                               device=msg.device_id.decode(errors="replace"),
                               verdict=str(reply.ok))
        return [reply]


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

    `pushes` maps each ack kind to a builder of the message that asks for
    it. Each round sends every pending device the messages of the kinds it
    has not acked, then waits; returns the devices still pending."""
    state = actor.state
    pending = set(device_ids)
    for _round in range(PUSH_ROUNDS):
        for device_id in sorted(pending):
            sid = state.device_sessions.get(device_id)
            entry = actor.peer.sessions.get(sid) if sid else None
            if entry is None:
                net.note("push_skipped",
                         device=device_id.decode(errors="replace"),
                         reason="no_session")
                continue
            acked = state.acks.get(device_id, {})
            for kind, build in pushes.items():
                if not acked.get(kind, False):
                    yield peers.send_record(entry.endpoint, entry.initiator,
                                            build(device_id))
        yield Sleep(ACK_WAIT)
        pending = {d for d in pending
                   if not all(state.acks.get(d, {}).get(k, False)
                              for k in pushes)}
        if not pending:
            break
    return pending


def sp1_transfer_process(net: peers.NetHandle, actor: OperatorActor,
                         device_ids, start_time: int, push_roots,
                         last_update: bool):
    """SP1 side of the operator change: at `start_time`, share the device
    list, await the transfer CWT, push the roots (and with `last_update` the
    firmware), relay the CWT per device, then revoke the old certificates.
    Sessions are opened with the update server's credential and truststore."""
    state = actor.state
    credential, store = actor.peer.credential, actor.peer.truststore
    yield Sleep(start_time)

    envelope = sp1_build_update_info_list(state, device_ids)
    payload_size = len(envelope.payload)
    env_bytes = encode(envelope)
    net.note("size", cls="update_info_list_payload", bytes=payload_size)
    net.note("size", cls="update_info_list_envelope", bytes=len(env_bytes))
    info_list = decode(UpdateInfoList, envelope.payload)
    if info_list.entries:
        net.note("size", cls="device_update_info",
                 bytes=len(encode(info_list.entries[0])))

    sess, status = yield from peers.open_session(net, SP2_ACTOR,
                                                 credential, store,
                                                 purpose="sp1sp2")
    if sess is None:
        net.note("transfer_aborted", step="sp2_session", status=status)
        return
    reply, status = yield from peers.session_call(
        net, sess, SP2_ACTOR, wire.ListDeliver(env_bytes), (wire.ListAck,))
    if reply is None or not reply.ok:
        net.note("transfer_aborted", step="list_deliver", status=status)
        return

    polls = 0
    while state.received_tm is None:
        polls += 1
        if polls > POLL_LIMIT:
            net.note("transfer_aborted", step="await_tm", status="timeout")
            return
        yield Sleep(2)

    # Preparation pushes first: the truststore update (and any final
    # firmware update) must land before the transfer CWT, since the reset
    # must leave the device able to authenticate the CA2 side. Both are the
    # same for every device.
    prep = {}
    if last_update:
        final = wire.FinalUpdate(encode(state.current_version))
        prep["final"] = lambda _device_id: final
    if push_roots:
        trust = wire.TrustPush(tuple(encode(c) for c in push_roots), True)
        prep["trust"] = lambda _device_id: trust
    if prep:
        pending = yield from _push_rounds(net, actor, device_ids, prep)
        if pending:
            net.note("prep_pushes_incomplete", count=len(pending))

    relayed_size_noted = False

    def transfer_deliver(device_id):
        nonlocal relayed_size_noted
        relayed = sp1_relay_transfer(state, state.received_tm, device_id)
        relayed_bytes = encode(relayed)
        if not relayed_size_noted:
            net.note("size", cls="relayed_transfer_envelope",
                     bytes=len(relayed_bytes))
            net.note("size", cls="transfer_message_payload",
                     bytes=len(relayed.payload))
            relayed_size_noted = True
        return wire.TransferDeliver(relayed_bytes)

    pending = yield from _push_rounds(net, actor, device_ids,
                                      {"transfer": transfer_deliver})
    net.note("transfer_pushes_done", unacked=len(pending))

    sess, status = yield from peers.open_session(net, CA1_ACTOR,
                                                 credential, store,
                                                 purpose="revoke")
    if sess is None:
        net.note("revocation_failed", status=status)
        return
    for device_id in sorted(set(device_ids)):
        reply, status = yield from peers.session_call(
            net, sess, CA1_ACTOR, wire.RevokeReq(device_id),
            (wire.RevokeRsp,))
        if reply is None:
            net.note("revocation_failed",
                     device=device_id.decode(errors="replace"),
                     status=status)
    net.note("sp1_orchestration_done")


def sp2_transfer_process(net: peers.NetHandle, actor: OperatorActor,
                         ra_uri: Uri | None, contact_before_enroll: bool,
                         unregistered_enroll_uri: Uri | None = None):
    """SP2 side: receive the signed list, register with CA2 (or, given
    `unregistered_enroll_uri`, skip that and send it), send the CWT."""
    state = actor.state
    credential, store = actor.peer.credential, actor.peer.truststore
    polls = 0
    while state.received_list is None:
        polls += 1
        if polls > POLL_LIMIT:
            net.note("transfer_aborted", step="await_list", status="timeout")
            return
        yield Sleep(2)

    if unregistered_enroll_uri is not None:
        # Misconfiguration scenario: SP2 never registers the factory
        # certificates; enrollments at CA2 will be rejected.
        enroll_uri = unregistered_enroll_uri
        net.note("registration_skipped")
    else:
        sess, status = yield from peers.open_session(net, CA2_ACTOR,
                                                     credential, store,
                                                     purpose="register")
        if sess is None:
            net.note("transfer_aborted", step="ca2_session", status=status)
            return
        cert_list = tuple(encode(e.factory_certificate)
                          for e in state.received_list.entries)
        reply, status = yield from peers.session_call(
            net, sess, CA2_ACTOR, wire.RegisterReq(cert_list),
            (wire.RegisterRsp,))
        if reply is None or not reply.ok:
            net.note("transfer_aborted", step="register",
                     status=(reply.reason if reply else status))
            return
        enroll_uri = Uri(reply.enroll_uri)

    envelope = sp2_prepare_transfer(state, state.received_list, enroll_uri,
                                    ra_uri, contact_before_enroll)
    env_bytes = encode(envelope)
    net.note("size", cls="transfer_message_payload", bytes=len(envelope.payload))
    net.note("size", cls="transfer_message_envelope", bytes=len(env_bytes))

    sess, status = yield from peers.open_session(net, SP1_ACTOR,
                                                 credential, store,
                                                 purpose="sp2sp1")
    if sess is None:
        net.note("transfer_aborted", step="sp1_session", status=status)
        return
    reply, status = yield from peers.session_call(
        net, sess, SP1_ACTOR, wire.TmDeliver(env_bytes), (wire.TmAck,))
    if reply is None or not reply.ok:
        net.note("transfer_aborted", step="tm_deliver", status=status)
        return
    net.note("sp2_orchestration_done")
