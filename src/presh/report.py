"""Law-check reports: a pass flag plus a witness for every violation."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    law: str
    detail: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.law}: {self.detail}"


@dataclass(frozen=True)
class LawReport:
    violations: tuple[Violation, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed
