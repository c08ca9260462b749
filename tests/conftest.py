import numpy as np
import pytest
from hypothesis import settings

from drobox.model import (
    AmbiguitySpec,
    SimpleFunctionSpec,
    VariableBoxes,
    lattice_points,
)

# every property test draws the same examples on every run and writes no
# example database
settings.register_profile("drobox", derandomize=True, deadline=None, database=None)
settings.load_profile("drobox")


@pytest.fixture
def ref_spec():
    """The running 2-D instance used throughout the test suite."""
    return AmbiguitySpec.with_normalization(
        edge=1.0,
        mu=[0.0, 0.0],
        sigma=[[2.0, 0.5], [0.5, 1.0]],
        eps_mu=0.1,
        eps_sigma=1.0,
        b=0.1,
    )


@pytest.fixture
def ref_fn():
    """One variable box of height 1, width-sum objective."""
    return SimpleFunctionSpec(k=1, heights=[1.0], mode=VariableBoxes())


@pytest.fixture
def ref_lattice():
    return lattice_points(1.0, 2, 0.1)
