"""Hypothesis replays the same examples on every run: the oracle properties
compare fast paths with slow references, and a failure must reproduce."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
