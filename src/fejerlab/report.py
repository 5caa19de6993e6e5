"""Structured checker results.

Every checker and verifier in the package returns a :class:`DiagnosticsReport`
instead of raising on a negative outcome: failure is data, not an error.

One rule decides PASS or FAIL: a check fails exactly when it has a witness.
Checkers compute their witness, a dict or None, and hand it to
:meth:`DiagnosticsReport.from_witness`, the only place in the package that
turns a witness into a verdict.  INCONCLUSIVE reports, whose witness holds the
reason, are built directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

VERDICTS = (PASS, FAIL, INCONCLUSIVE)


@dataclass
class DiagnosticsReport:
    """Outcome of one checker run.

    ``witness`` carries concrete failure data (step index, offending point,
    violated quantity, magnitude) for FAIL verdicts and the reason for
    INCONCLUSIVE ones.  ``per_step`` optionally stores one scalar per
    transition of the checked trajectory.
    """

    checker: str
    verdict: str
    witness: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int | None = None
    per_step: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and not self.witness:
            raise ValueError("a FAIL report must carry a witness")

    @classmethod
    def from_witness(cls, checker: str, witness: dict | None, **fields) -> DiagnosticsReport:
        """FAIL carrying ``witness`` when it is non-empty, else PASS with ``{}``."""
        return cls(checker, FAIL if witness else PASS, witness or {}, **fields)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL
