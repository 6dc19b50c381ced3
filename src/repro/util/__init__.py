"""Small shared utilities: the engines' statistics container."""

from repro.util.stats import StatsBag

__all__ = ["StatsBag"]
