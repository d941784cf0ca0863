"""qpzk: desk-scale simulator and verification harness for zero-knowledge
protocols over quantum promise problems."""

__version__ = "0.4.0"
