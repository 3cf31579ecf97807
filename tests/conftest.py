"""Shared test settings: every Hypothesis test is derandomized, so tier-1
runs the same examples each time, and has no deadline, so a slow host does
not fail a test that is only slow."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
