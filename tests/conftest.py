"""Fixtures shared by every test module."""

import pytest

from netbounds import assemble


@pytest.fixture(autouse=True)
def cold_assembly_caches():
    """Start every test with every assembly cache empty (the frames and the
    MAC-rate sweeps), so counts of `mac_upper` calls and of what the
    structures build do not depend on which tests ran before."""
    assemble._clear_caches()
