import pytest
from hypothesis import settings

from crlhkit import resolve_config

# CI selects this profile with --hypothesis-profile=ci: five times the
# default 100 examples for every property that does not fix its own count,
# the array factor's monotone fall from a lobe centre among them.
settings.register_profile("ci", max_examples=500)


@pytest.fixture(scope="session")
def config():
    return resolve_config(env={})


@pytest.fixture(scope="session")
def cells(config):
    """Calibrated unit cells for the three switch states."""
    return {n: config.cell(n) for n in sorted(config.targets)}
