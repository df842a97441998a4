"""Fixtures shared by every test module."""

import pytest

from netbounds import assemble


@pytest.fixture(autouse=True)
def cold_assembly_caches():
    """Start every test with an empty MAC-rate cache and an empty store of
    per-component state, so counts of `mac_upper` calls and of what the
    structures build do not depend on which tests ran before."""
    assemble._mac_sweep.cache_clear()
    assemble._FIXED.clear()
