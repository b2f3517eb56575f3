"""Shared fixtures for the tier-1 suite."""

import gc

import pytest

from chartlm import autodiff


@pytest.fixture(autouse=True)
def process_flags_restored():
    """Fail the test that leaves the cyclic collector disabled or gradient
    recording off, and restore both, so the leak cannot break later tests."""
    yield
    leaked = []
    if not gc.isenabled():
        gc.enable()
        leaked.append("the cyclic garbage collector disabled")
    if not autodiff._grad_enabled:
        autodiff._grad_enabled = True
        leaked.append("gradient recording off (autodiff._grad_enabled)")
    if leaked:
        pytest.fail("test left " + " and ".join(leaked))
