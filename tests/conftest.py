"""Hypothesis profiles, and the ``force_jitter`` fixture.

``HYPOTHESIS_PROFILE=ci`` makes property tests reproducible: the ``ci`` profile
derandomizes example generation and drops the deadline, so every CI run draws
the same examples; local runs keep the default profile and explore new ones.
"""

import os

import pytest
from hypothesis import settings

import cmekit.estimators
import cmekit.spectral

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def force_jitter(monkeypatch):
    """``force_jitter(j)`` makes ``_factor_pd`` add ``j`` to the diagonal of every system it
    factors and report ``j`` as its jitter, in ``estimators`` and in ``spectral``, which
    imports it by name."""

    def force(jitter):
        factor_pd = cmekit.estimators._factor_pd

        def factor(A, shift):
            L, g, _, cond = factor_pd(A, shift + jitter)
            return L, g, jitter, cond

        for module in (cmekit.estimators, cmekit.spectral):
            monkeypatch.setattr(module, "_factor_pd", factor)

    return force
