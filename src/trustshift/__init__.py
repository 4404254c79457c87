"""Automated PKI trust transfer for IoT: protocol library and simulator.

The package splits into the protocol layers (messages, crypto, pki,
session), the actors built on them (device, operators), and the
deterministic simulation harness (simnet, peers, scenario, cli).
"""

from .errors import Error
from .messages import (
    CertProfile,
    CompactCertificate,
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

__version__ = "0.1.0"

__all__ = [
    "CertProfile",
    "CompactCertificate",
    "DeviceUpdateInfo",
    "EnvelopeProfile",
    "Error",
    "SignedEnvelope",
    "TransferMessage",
    "UpdateInfoList",
    "Uri",
    "VersionInfo",
    "decode",
    "encode",
]
