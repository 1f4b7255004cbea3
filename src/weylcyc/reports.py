"""The reports of the pairwise criteria, `is_cyclic` and `is_irreducible`.

They are the package's only dataclasses, and this is the only module that
imports `dataclasses` (which loads `inspect`, `ast`, `dis` and `tokenize`).
`criteria` binds it on the first report it builds, so a caller that reads
the violations through `criteria.pair_violations`, as every `weylcyc`
command does, never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import IrreducibilityStatus, PairViolation


@dataclass(frozen=True)
class CyclicityReport:
    violations: tuple[PairViolation, ...]

    @property
    def cyclic_guaranteed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: IrreducibilityStatus
    evidence: tuple[PairViolation, ...]
