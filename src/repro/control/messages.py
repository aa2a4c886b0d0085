"""Schema-versioned messages exchanged over the control bus.

Three message types cross the controller/node boundary (the NRM-style
daemon split of ROADMAP's "live control plane" item):

* :class:`SensorReading` — node → controller, one per DRL interval: the
  telemetry snapshot plus the RAPL window energy, age-stamped with the
  send time so the controller can detect stale telemetry.
* :class:`ActuatorCommand` — controller → node: the
  ``(BaseFreq, ScalingCoef)`` actuation, or (``safe=True``) an order to
  hand the cores to the node's fallback governor; retried idempotently
  under the same ``seq`` until acknowledged.
* :class:`CommandAck` — node → controller: confirmation that a command
  was received (``applied`` distinguishes a fresh application from a
  suppressed duplicate/stale delivery).

Every message carries ``schema`` (:data:`CONTROL_SCHEMA`) and a
direction-local monotonic ``seq``; receivers drop unknown schemas and
suppress ``seq`` values at or below their high-water mark, which makes
duplicate delivery and reordering harmless by construction.  Messages are
frozen pure-data values — the same objects would serialise onto a socket
transport behind the identical :class:`~repro.control.bus.ControlBus`
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..server.telemetry import TelemetrySnapshot

__all__ = [
    "CONTROL_SCHEMA",
    "SensorReading",
    "ActuatorCommand",
    "CommandAck",
]

#: Bump when the message layout changes incompatibly.
CONTROL_SCHEMA = 1


@dataclass(frozen=True)
class SensorReading:
    """One DRL window's telemetry, as sent by the node endpoint."""

    seq: int
    #: Virtual send time — the reading's age stamp.
    t_sent: float
    snapshot: TelemetrySnapshot
    #: RAPL energy of the window ending at ``t_sent`` (joules).
    energy: float
    schema: int = CONTROL_SCHEMA


@dataclass(frozen=True)
class ActuatorCommand:
    """A ``(BaseFreq, ScalingCoef)`` actuation from the controller."""

    seq: int
    t_sent: float
    base_freq: float
    scaling_coef: float
    #: Retry attempt (0 = first transmission); informational only — all
    #: attempts of a command share its ``seq``, which is what makes the
    #: retry idempotent at the node.
    attempt: int = 0
    #: True = hand the cores to the node's fallback governor; the
    #: controller's parameters are left untouched.
    safe: bool = False
    schema: int = CONTROL_SCHEMA


@dataclass(frozen=True)
class CommandAck:
    """Node-side confirmation of an :class:`ActuatorCommand`."""

    seq: int
    t_sent: float
    #: The acknowledged command's ``seq``.
    cmd_seq: int
    #: True when the command changed node state; False when it was a
    #: duplicate or stale (already superseded) delivery.
    applied: bool
    schema: int = CONTROL_SCHEMA
