"""Check results: one per check in a verify report, read by the CLI, and the
verdict helper that the checks and bridges build them from."""

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


def verdict(witness, **parts):
    """(ok, witness) for a claim made of the named boolean parts: ok iff all hold.
    On failure the witness also gets every part's flag, in argument order."""
    ok = all(parts.values())
    if not ok:
        witness.update(parts)
    return ok, witness
