"""Shared test settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile("qpzk", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("qpzk")
