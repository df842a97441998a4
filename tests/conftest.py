"""Fixtures shared by every test module."""

import pytest

from netbounds import assemble, flows


@pytest.fixture(autouse=True)
def cold_module_caches():
    """Start every test with every module cache of results empty (the
    assembly frames and MAC-rate sweeps, and the routing LP templates with
    the LPs restricted from them), so counts of `mac_upper` calls, of what
    the structures build and of the LPs compiled or restricted do not depend
    on which tests ran before."""
    assemble._clear_caches()
    flows._compiled_routing_lp.cache_clear()
