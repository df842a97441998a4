"""Fixtures shared by every test module."""

import pytest

from netbounds import assemble


@pytest.fixture(autouse=True)
def cold_mac_rate_cache():
    """Start every test with an empty MAC-rate cache, so counts of
    `mac_upper` calls do not depend on which tests ran before."""
    assemble._mac_rates.cache_clear()
