import ctypes
import glob
import os

import numpy as np
import pytest

from servoneuro.plant import MotorParams


@pytest.fixture
def quiet():
    """The default plant without tach noise."""
    return MotorParams(noise_sigma=0.0)


def openblas():
    """The OpenBLAS bundled in numpy's wheel, or None for any other BLAS."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    if lib is None or not hasattr(lib, "scipy_openblas_get_corename64_"):
        return None
    lib.scipy_openblas_get_corename64_.argtypes = []
    lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def blas_core():
    """The name of the core whose kernels numpy's bundled OpenBLAS runs, or
    None for any other BLAS."""
    lib = openblas()
    return None if lib is None else lib.scipy_openblas_get_corename64_().decode()
