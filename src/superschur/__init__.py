"""Exact-arithmetic multiplier computations for nilpotent Lie superalgebras."""

__version__ = "0.1.0"
