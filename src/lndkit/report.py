"""Classification reports shared by the toric, trinomial, and dossier paths."""

from __future__ import annotations

from .record import Frozen

VERDICTS = ("A", "B", "C", "Inconclusive")


class Evidence(Frozen):
    _fields = ("criterion", "data")

    def __init__(self, criterion: str, data: dict):
        self.__dict__.update(criterion=criterion, data=data)

    def to_dict(self) -> dict:
        return {"criterion": self.criterion, "data": self.data}


class ClassificationReport(Frozen):
    _fields = ("verdict", "evidence")

    def __init__(self, verdict: str, evidence: tuple[Evidence, ...] = ()):
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        self.__dict__.update(verdict=verdict, evidence=evidence)

    def with_evidence(self, *more: Evidence) -> "ClassificationReport":
        return ClassificationReport(self.verdict, self.evidence + more)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "evidence": [e.to_dict() for e in self.evidence],
        }
