"""Weighted-sampling substrate: static Walker/Vose alias tables."""

from .walker import AliasTable

__all__ = ["AliasTable"]
