"""The paper's structures: static, dynamic, weighted and external-memory
independent range sampling."""

from .base import RangeSampler, DynamicRangeSampler
from .static_irs import StaticIRS
from .dynamic_irs import DynamicIRS
from .weighted_irs import WeightedStaticIRS
from .weighted_dynamic import WeightedDynamicIRS
from .without_replacement import (
    sample_ranks_without_replacement,
    sample_ranks_without_replacement_bulk,
    sample_without_replacement,
    sample_without_replacement_bulk,
)
from .em_irs import ExternalIRS

__all__ = [
    "RangeSampler",
    "DynamicRangeSampler",
    "StaticIRS",
    "DynamicIRS",
    "WeightedStaticIRS",
    "WeightedDynamicIRS",
    "ExternalIRS",
    "sample_ranks_without_replacement",
    "sample_ranks_without_replacement_bulk",
    "sample_without_replacement",
    "sample_without_replacement_bulk",
]
