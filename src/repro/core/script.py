"""Script executor — Accordion's built-in experiment driver (§6.1).

"Accordion includes a built-in scripting language for controlling query
initiation and parallelism adjustments at specified times. We use the
script executor to track throughput variations, manage both parallelism
changes and result recording in experiments."

Actions use the paper's own notation:

* ``AC Sn,a,b @ t`` — add task DOP for all tasks of stage n from a to b
  (intra-task tuning, Fig. 24);
* ``AP Sn,a,b @ t`` — add stage parallelism from a to b (Fig. 25/26);
* ``RP Sn,a,b @ t`` — reduce stage parallelism from a to b (Fig. 30);
* ``CONSTRAINT Sn,d @ t`` — hand the auto-tuner a new deadline of d
  whole seconds (from t) for stage n's unit (§6.5.2's mid-query constraint).

Every action is routed through the auto-tuner's direct interface, so the
request filter applies — scripted requests can be rejected exactly like
the paper's last adjustments in §6.3/§6.4.1.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.filter import STAGE, TASK, TuningRequest
from repro.core.runtime_info import DataPlane
from repro.core.tuner import AutoTuner

AC = "AC"  # add (task) DOP — intra-task
AP = "AP"  # add (stage) parallelism — intra-stage
RP = "RP"  # reduce (stage) parallelism
CONSTRAINT = "CONSTRAINT"

_LINE = re.compile(
    r"^\s*(AC|AP|RP)\s+S(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*@\s*([0-9.]+)\s*$"
)
_CLINE = re.compile(r"^\s*CONSTRAINT\s+S(\d+)\s*,\s*(\d+)\s*@\s*([0-9.]+)\s*$")


@dataclass
class ScriptAction:
    t: float
    kind: str  # AC / AP / RP / CONSTRAINT
    stage_id: int
    a: int = 0          # DOP before (informational, paper notation)
    b: int = 0          # DOP after (the request target) / deadline seconds
    fired: bool = False
    applied: bool | None = None
    reason: str = ""

    def notation(self) -> str:
        if self.kind == CONSTRAINT:
            return f"CONSTRAINT S{self.stage_id},{self.b} @ {self.t}"
        return f"{self.kind} S{self.stage_id},{self.a},{self.b} @ {self.t}"


def parse_script(text: str) -> list[ScriptAction]:
    """Parse the textual form, one action per line; '#' starts a comment."""
    actions: list[ScriptAction] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE.match(line)
        if m:
            kind, sid, a, b, t = m.groups()
            actions.append(ScriptAction(float(t), kind, int(sid), int(a), int(b)))
            continue
        m = _CLINE.match(line)
        if m:
            sid, d, t = m.groups()
            actions.append(ScriptAction(float(t), CONSTRAINT, int(sid), 0, int(d)))
            continue
        raise ValueError(f"unparseable script line: {raw!r}")
    return sorted(actions, key=lambda a: a.t)


@dataclass
class ScriptExecutor:
    """Fires scripted actions at their simulated times through the tuner.

    Use as a controller: ``executor.run(controllers=[script.controller(tuner)])``.
    """

    actions: list[ScriptAction]

    @classmethod
    def from_text(cls, text: str) -> "ScriptExecutor":
        return cls(parse_script(text))

    def controller(self, tuner: AutoTuner):
        """The controller fires every due action and wakes next at the
        earliest unfired one."""

        def _ctrl(t: float, plane: DataPlane) -> float:
            for action in self.actions:
                if action.fired or action.t > t:
                    continue
                action.fired = True
                if action.kind == CONSTRAINT:
                    tuner.set_stage_deadline(action.stage_id, t + action.b)
                    action.applied = True
                    continue
                kind = TASK if action.kind == AC else STAGE
                out = tuner.direct(TuningRequest(kind, action.stage_id, action.b))
                action.applied = out.applied
                action.reason = out.reason
            return min((a.t for a in self.actions if not a.fired), default=float("inf"))

        return _ctrl

    def rejected(self) -> list[ScriptAction]:
        return [a for a in self.actions if a.fired and a.applied is False]

    def applied(self) -> list[ScriptAction]:
        return [a for a in self.actions if a.applied]
