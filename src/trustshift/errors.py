"""Exception taxonomy shared by all protocol layers."""


class Error(Exception):
    """Base class for all trustshift errors."""


# --- message layer ---

class InvariantViolation(Error):
    """A domain value violates one of its declared invariants."""


class MalformedEncoding(Error):
    """Input bytes are not a valid encoding of the requested message kind."""


# --- crypto layer ---

class BadSeedLength(Error):
    """Key seed is not exactly 32 bytes."""


# --- PKI layer ---

class BadProofOfPossession(Error):
    """CSR self-signature does not verify under the subject public key."""


class InvalidValidityWindow(Error):
    """notBefore is after notAfter."""


class UnverifiableFactoryCert(Error):
    """A submitted factory certificate does not chain to a trusted root."""

    def __init__(self, serial, reason=""):
        super().__init__(f"factory certificate serial={serial} unverifiable: {reason}")
        self.serial = serial
        self.reason = reason


class NotRegistered(Error):
    """Authenticating factory certificate is not registered with this CA."""


class RevokedFactoryCert(Error):
    """Authenticating factory certificate has been revoked."""


class NameMismatch(Error):
    """CSR subject name does not match the authenticated session identity."""


class UnknownSerial(Error):
    """Serial number was never issued by this CA."""


# --- session layer ---

class ReplayDetected(Error):
    """Record sequence number not strictly newer than the last accepted one."""


class WrongSession(Error):
    """Record belongs to a different session."""


# --- device layer ---

class KeyCertMismatch(Error):
    """Provisioned certificate does not match the provisioned key."""


class WrongPhase(Error):
    """Operation not allowed in the device's current lifecycle phase."""


class BadSignature(Error):
    """Envelope signature did not verify under the expected signer key."""


class OutsideResetWindow(Error):
    """Current time is outside [resetTimeNotBefore, resetTimeNotAfter]."""


class EnrollRejected(Error):
    """Enrollment attempt rejected; the device may retry or fall back."""

    def __init__(self, reason):
        super().__init__(f"enrollment rejected: {reason}")
        self.reason = reason


# --- operator layer ---

class UnknownDevice(Error):
    """Device id is not managed by this operator."""


class BadSp2Signature(Error):
    """TransferMessage envelope did not verify under the agreed SP2 key."""


class NoExpectedMeasurement(Error):
    """No expected attestation measurement registered for the device."""


# --- simulator / CLI layer ---

class ScenarioInvalid(Error):
    """Scenario is not well formed."""


class ConfigParseError(Error):
    """Scenario configuration file could not be parsed."""
