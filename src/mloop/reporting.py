"""Check-result container: one per check in a verify report, read by the CLI."""

from dataclasses import asdict, dataclass
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
        return asdict(self)
