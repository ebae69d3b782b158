"""Gate instructions: the vocabulary that sequences, configs and labels share.

A :class:`GateSpec` names what a gate should do (an idle or a rotation of
qubit A, with a duration multiplier); :mod:`ctxdep.noise` builds what it does
under a given model.  This module needs only the standard library, so
parsing and validating a run config loads no numerical code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GateSpec",
    "GATE_IDLE",
    "GATE_X_PI",
    "GATE_X_HALF",
    "GATE_X_MINUS_HALF",
    "GATE_Y_PI",
    "GATE_Y_MINUS_HALF",
    "IDEAL_GATE_SET",
]


def _angle_label(angle: float) -> str:
    # Render nice multiples of pi as fractions ("pi", "-pi/2"), else radians.
    # Fractions with denominators up to 16 lie at least 1/240 apart, so the
    # first denominator whose nearest numerator lands within 1e-12 of the
    # angle gives the closest such fraction, already in lowest terms.
    turns = angle / math.pi
    for den in range(1, 17):
        if not math.isfinite(turns * den):
            break
        num = round(turns * den)
        if num != 0 and abs(num / den * math.pi - angle) < 1e-12:
            head = "-" if num < 0 else ""
            s = "pi" if abs(num) == 1 else f"{abs(num)}pi"
            return head + (s if den == 1 else f"{s}/{den}")
    return f"{angle:.6g}rad"


@dataclass(frozen=True)
class GateSpec:
    """One gate instruction: an idle or a rotation of qubit A.

    ``duration`` is the duration multiplier in units of the elementary gate
    time (1 for elementary gates); longer gates accumulate proportionally
    more coupling and decoherence.
    """

    axis: str  # "I", "X" or "Y"
    angle: float = 0.0
    duration: int = 1

    def __post_init__(self):
        if self.axis not in ("I", "X", "Y"):
            raise ValueError(f"axis must be I, X or Y, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError("angle must be finite")
        if self.duration < 1:
            raise ValueError("duration must be a positive integer")

    @property
    def label(self) -> str:
        if self.axis == "I":
            base = "I"
        else:
            base = f"{self.axis}_{_angle_label(self.angle)}"
        if self.duration != 1:
            base += f"@{self.duration}"
        return base


GATE_IDLE = GateSpec("I")
GATE_X_PI = GateSpec("X", math.pi)
GATE_X_HALF = GateSpec("X", math.pi / 2)
GATE_X_MINUS_HALF = GateSpec("X", -math.pi / 2)
GATE_Y_PI = GateSpec("Y", math.pi)
GATE_Y_MINUS_HALF = GateSpec("Y", -math.pi / 2)

# In/out gate set used for preparation and measurement-axis rotation:
# applied to |0> they prepare {|0>, |1>, (|0>-|1>)/sqrt2, y+}; their
# adjoints rotate the measured |1><1| axis onto {z-, z+, x-, y+}.
IDEAL_GATE_SET = (GATE_IDLE, GATE_X_PI, GATE_Y_MINUS_HALF, GATE_X_MINUS_HALF)
