"""Check-result container: one per check in a verify report, read by the CLI."""

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    witness: Optional[Any] = None
    millis: int = 0

    @property
    def passed(self):
        return self.status == "pass"

    def as_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "millis": self.millis,
        }
