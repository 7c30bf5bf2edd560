"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests reproducible.

The ``ci`` profile derandomizes example generation and drops the deadline, so
every CI run draws the same examples; local runs keep the default profile and
explore new ones.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
