import numpy as np
import pytest

from servoneuro.scaling import AffineScaling


@pytest.mark.parametrize(
    "offset,gain",
    [(np.zeros(2), np.ones(3)), (np.zeros((2, 2)), np.ones((2, 2)))],
    ids=["unequal-lengths", "two-dimensional"],
)
def test_scaling_shape_rejected(offset, gain):
    with pytest.raises(ValueError, match="offset and gain must be 1-D arrays of equal length"):
        AffineScaling(offset, gain)


def test_scaling_equality_with_another_type_is_not_implemented():
    scaling = AffineScaling(np.zeros(2), np.ones(2))
    assert scaling.__eq__(scaling.offset) is NotImplemented
    assert scaling != "scaling"
