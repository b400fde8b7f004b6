"""repro — reproduction of "Energy-Efficient ID-based Group Key Agreement
Protocols for Wireless Networks" (Tan & Teo, IPPS 2006).

The package implements, from scratch:

* the proposed two-round ID-based authenticated GKA protocol with batch GQ
  verification and its four dynamic protocols (Join, Leave, Merge, Partition),
  run through ``ProposedGKAProtocol.apply_event``,
* every baseline the paper compares against (plain BD, BD + SOK / ECDSA / DSA,
  the SSN ID-based GKA, and BD re-execution for membership events),
* the substrates those protocols need (number theory, Schnorr groups, elliptic
  curves, a simulated pairing, AES, SHA-256, HMAC, a PKG and a CA, a simulated
  broadcast wireless network),
* a mobility-aware MANET layer (:mod:`repro.mobility`): 2-D mobility models,
  distance-dependent radio links, multi-hop relaying with per-hop energy
  charging, and connectivity-driven emergent partition/merge churn,
* an adversary subsystem (:mod:`repro.adversary`): eavesdropper / injector /
  replayer / man-in-the-middle / key-compromise attacker models co-scheduled
  with the protocol machines, security-property oracles (key consistency,
  forward/backward secrecy, implicit key authentication, attack detection)
  evaluated per scenario step, and a protocol × attacker survival matrix,
* the paper's energy model (StrongARM SA-1110 + 100 kbps radio / Spectrum24
  WLAN) and the closed-form analysis that regenerates Tables 1-5 and Figure 1.

Quickstart::

    from repro import SystemSetup, GroupSession, Identity

    setup = SystemSetup.from_param_sets()          # paper-sized parameters
    members = [Identity(f"node-{i}") for i in range(8)]
    session = GroupSession.establish(setup, members, seed=1)
    assert session.all_agree()
    session.join(Identity("latecomer"))
    print(session.energy_report()["node-0"].total_j, "J")
"""

from .core import (
    GroupSession,
    GroupState,
    PartyState,
    ProposedGKAProtocol,
    Protocol,
    ProtocolResult,
    SystemSetup,
    available_protocols,
    create_protocol,
)
from .energy import (
    CostRecorder,
    DeviceProfile,
    EnergyBreakdown,
    OperationCostTable,
    RADIO_100KBPS,
    STRONGARM_SA1110,
    Transceiver,
    WLAN_SPECTRUM24,
)
from .engine import (
    EngineConfig,
    EngineStats,
    EventKernel,
    FixedLatency,
    LatencyModel,
    MachinePlan,
    Outbound,
    PartyMachine,
    TransceiverLatency,
)
from .exceptions import (
    BatchVerificationError,
    DecryptionError,
    EnergyModelError,
    KeyConfirmationError,
    MembershipError,
    NetworkError,
    ParameterError,
    ProtocolError,
    ReproError,
    SerializationError,
    SignatureError,
    VerificationError,
)
from .adversary import (
    AdversaryConfig,
    AdversarySuite,
    SecurityReport,
    run_attack_matrix,
)
from .campaign import CampaignResult, CampaignSpec, run_campaign
from .pki import Identity, IdentityRegistry, PrivateKeyGenerator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # adversary
    "AdversaryConfig",
    "AdversarySuite",
    "SecurityReport",
    "run_attack_matrix",
    # campaign
    "CampaignResult",
    "CampaignSpec",
    "run_campaign",
    # core
    "GroupSession",
    "GroupState",
    "PartyState",
    "Protocol",
    "ProposedGKAProtocol",
    "ProtocolResult",
    "SystemSetup",
    "available_protocols",
    "create_protocol",
    # energy
    "CostRecorder",
    "DeviceProfile",
    "EnergyBreakdown",
    "OperationCostTable",
    "RADIO_100KBPS",
    "STRONGARM_SA1110",
    "Transceiver",
    "WLAN_SPECTRUM24",
    # engine
    "EngineConfig",
    "EngineStats",
    "EventKernel",
    "FixedLatency",
    "LatencyModel",
    "MachinePlan",
    "Outbound",
    "PartyMachine",
    "TransceiverLatency",
    # pki
    "Identity",
    "IdentityRegistry",
    "PrivateKeyGenerator",
    # exceptions
    "BatchVerificationError",
    "DecryptionError",
    "EnergyModelError",
    "KeyConfirmationError",
    "MembershipError",
    "NetworkError",
    "ParameterError",
    "ProtocolError",
    "ReproError",
    "SerializationError",
    "SignatureError",
    "VerificationError",
]
