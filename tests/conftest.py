"""Test-suite configuration shared by every test module."""

from hypothesis import settings

# One profile for every property test, loaded by default.  The suite runs
# on hosts whose speed drifts, so a per-example deadline only adds
# flakiness; derandomized runs draw the same examples every time.
settings.register_profile("ltdirac", deadline=None, derandomize=True)
settings.load_profile("ltdirac")
