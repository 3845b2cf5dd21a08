"""Outcome types shared by constraint evaluation and sketch validation."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

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
    declaration: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "declaration": self.declaration,
            "restricted": self.restricted.to_json(),
            "witness": self.witness,
        }


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
    status: Status
    evidence: Optional[Evidence] = None
    counterexample: Optional[Counterexample] = None
    declaration: Optional[str] = None
    detail: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status is Status.VALID and self.evidence is None:
            raise ValueError("Valid verdict requires evidence")
        if self.status is Status.INVALID and self.counterexample is None:
            raise ValueError("Invalid verdict requires a counterexample")

    @property
    def is_valid(self) -> bool:
        return self.status is Status.VALID

    def with_declaration(self, declaration_id: str) -> "Verdict":
        evidence = self.evidence
        if evidence is not None:
            evidence = Evidence(evidence.restricted, evidence.witness, declaration_id)
        return Verdict(
            self.status, evidence, self.counterexample, declaration_id, self.detail
        )

    def to_json(self) -> dict:
        return {
            "id": self.declaration,
            "status": self.status.value,
            "evidence": self.evidence.to_json() if self.evidence else None,
            "counterexample": (
                self.counterexample.to_json() if self.counterexample else None
            ),
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
