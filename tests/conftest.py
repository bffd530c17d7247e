"""Test-wide settings.

The ``ci`` Hypothesis profile draws every example from a seed derived from
the test itself, so a failing run fails again on the same commit, locally
too: ``python -m pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
