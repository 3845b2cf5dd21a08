"""Outcome types shared by constraint evaluation and sketch validation."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # instances builds Unknown verdicts, so no import at run time
    from dcl.instances import TypedInstance


class Status(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Evidence:
    """Witness supporting a Valid verdict.

    restricted is the canonical form of the instance the constraint actually
    inspected; witness is the semantics-specific payload (link counts, key
    tuples, factorization tables, matched table entry, ...).
    """

    restricted: TypedInstance
    witness: Any

    def to_json(self) -> dict:
        return {"restricted": self.restricted.to_json(), "witness": self.witness}


@dataclass(frozen=True)
class Counterexample:
    restricted: TypedInstance
    offenders: tuple

    def to_json(self) -> dict:
        return {
            "restricted": self.restricted.to_json(),
            "offenders": list(self.offenders),
        }


@dataclass(frozen=True)
class Verdict:
    """Valid with evidence, Invalid with a counterexample, else Unknown: the
    status is read from the certificate held, so none is reported without one."""

    evidence: Optional[Evidence] = None
    counterexample: Optional[Counterexample] = None
    declaration: Optional[str] = None
    detail: Optional[str] = None

    @property
    def status(self) -> Status:
        if self.evidence is not None:
            return Status.VALID
        return Status.UNKNOWN if self.counterexample is None else Status.INVALID

    @property
    def is_valid(self) -> bool:
        return self.evidence is not None

    def with_declaration(self, declaration_id: str) -> "Verdict":
        return Verdict(self.evidence, self.counterexample, declaration_id, self.detail)

    def to_json(self) -> dict:
        evidence, counterexample = self.evidence, self.counterexample
        return {
            "id": self.declaration,
            "status": self.status.value,
            "evidence": evidence and {**evidence.to_json(), "declaration": self.declaration},
            "counterexample": counterexample and counterexample.to_json(),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ValidationReport:
    sketch: str
    instance: str
    verdicts: tuple[Verdict, ...]

    @property
    def overall(self) -> Status:
        # Unknown poisons the conjunction: never report Valid optimistically.
        statuses = {v.status for v in self.verdicts}
        if Status.INVALID in statuses:
            return Status.INVALID
        if Status.UNKNOWN in statuses:
            return Status.UNKNOWN
        return Status.VALID

    def verdict_for(self, declaration_id: str) -> Verdict:
        for v in self.verdicts:
            if v.declaration == declaration_id:
                return v
        raise KeyError(declaration_id)

    def to_json(self) -> dict:
        return {
            "sketch": self.sketch,
            "instance": self.instance,
            "declarations": [v.to_json() for v in self.verdicts],
            "overall": self.overall.value,
        }
