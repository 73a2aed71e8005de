"""Hierarchical security-management simulator.

Management nodes form an addressed tree over simulated devices; the package
provides the addressing scheme, the device tree with its textual embedding
form, the device state machine, the alert pipeline with session correlation,
tree-routed messaging, a cooperative emergency-response workflow, and a
deterministic scenario harness tying them together.
"""

from .addressing import NodeAddress, TreeShape
from .device_model import DeviceKind, DeviceState, TransferCondition
from .device_tree import AddressedDeviceTree, build_tree
from .event_pipeline import NormalizedEvent
from .session_correlation import CorrelationEngine, SessionAlert

__version__ = "0.1.0"

__all__ = [
    "NodeAddress",
    "TreeShape",
    "DeviceKind",
    "DeviceState",
    "TransferCondition",
    "AddressedDeviceTree",
    "build_tree",
    "NormalizedEvent",
    "CorrelationEngine",
    "SessionAlert",
    "__version__",
]
