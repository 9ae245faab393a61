"""Checker outcome type shared by the history and broadcast validators."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
DIVERGENCE = "divergence"


@dataclass
class Verdict:
    """Result of one check: pass/fail plus a minimal witness for failures.

    ``witness`` entries are operation ids, record ids, or ``m<seq>``/``s<id>``
    message and server tags for broadcast-trace failures.
    """

    status: str
    violated: str | None = None
    witness: list[str] = field(default_factory=list)
    oracle_used: bool = False

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_json(self, checker: str) -> dict:
        out: dict = {"checker": checker, "status": self.status}
        if self.violated is not None:
            out["violated"] = self.violated
        out["witness"] = list(self.witness)
        out["oracle_used"] = self.oracle_used
        return out


def passed() -> Verdict:
    return Verdict(PASS)


def failed(violated: str, witness: list[str]) -> Verdict:
    assert witness, "fail verdicts must carry a witness"
    return Verdict(FAIL, violated, witness)
