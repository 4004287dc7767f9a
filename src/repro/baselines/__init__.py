"""Baselines and ablation substrates the paper's structures are evaluated against.

Each baseline implements the :class:`~repro.core.base.RangeSampler`
interface (EM baselines mirror :class:`~repro.core.em_irs.ExternalIRS`'s
surface) so the harness can swap structures freely.  Their complexities are
the ones the paper improves on; see DESIGN.md §2.3.
"""

from .report_sample import ReportThenSample
from .tree_walk import TreeWalkSampler
from .rejection_global import RejectionGlobalSampler
from .cheating_cache import CachedSampleBaseline
from .em_report import EMReportSample
from .em_per_sample import EMPerSample

__all__ = [
    "ReportThenSample",
    "TreeWalkSampler",
    "RejectionGlobalSampler",
    "CachedSampleBaseline",
    "EMReportSample",
    "EMPerSample",
]
