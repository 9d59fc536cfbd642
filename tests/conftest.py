import pytest

from crlhkit import load_profile


@pytest.fixture(scope="session")
def config():
    return load_profile("paper-default")


@pytest.fixture(scope="session")
def cells(config):
    """Calibrated unit cells for the three switch states."""
    return {n: config.cell(n) for n in sorted(config.targets)}
