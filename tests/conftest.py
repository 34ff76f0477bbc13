import pytest

from servoneuro.plant import MotorParams


@pytest.fixture
def quiet():
    """The default plant without tach noise."""
    return MotorParams(noise_sigma=0.0)
