import pytest

from crlhkit import resolve_config


@pytest.fixture(scope="session")
def config():
    return resolve_config(env={})


@pytest.fixture(scope="session")
def cells(config):
    """Calibrated unit cells for the three switch states."""
    return {n: config.cell(n) for n in sorted(config.targets)}
