"""The benchmark's spelling of the direct procedures.

procedures.py holds all four procedures and run_procedure. This module keeps
only what perfbench/ still names: AdjustmentKind and DirectProcedureSpec, and
run_procedure, direct_adjust and bh_stepup re-exported, because
perfbench/spans.py traces adafilter.baselines.direct_adjust and .bh_stepup by
module path. ROADMAP item 1 moves the benchmark onto Procedure and procedures'
names, and item 3 then deletes this file.
"""
from __future__ import annotations

from enum import Enum

from .pc_core import PCCombinerKind
from .procedures import Procedure, ProcedureKind, bh_stepup, direct_adjust, run_procedure

__all__ = [
    "AdjustmentKind",
    "DirectProcedureSpec",
    "run_procedure",
    "direct_adjust",
    "bh_stepup",
]


class AdjustmentKind(Enum):
    BONFERRONI = "bonferroni"
    BH = "bh"


def DirectProcedureSpec(
    combiner: PCCombinerKind, adjustment: AdjustmentKind, alpha: float
) -> Procedure:
    """The direct Procedure with this combiner, correction and level: the
    benchmark's spelling, kept until it builds a Procedure (ROADMAP item 3)."""
    return Procedure(ProcedureKind("direct-" + adjustment.value), alpha, combiner)
