import numpy as np
import pytest

from modheat.modnorm import STFTPlan, UniformPartition
from modheat.spectral import SpectralGrid


@pytest.fixture(scope="session")
def grid1():
    return SpectralGrid(1, 256, 16.0)


@pytest.fixture(scope="session")
def part1(grid1):
    return UniformPartition(grid1)


@pytest.fixture(scope="session")
def plan1(grid1):
    return STFTPlan(grid1)


@pytest.fixture(scope="session")
def grid2():
    return SpectralGrid(2, 32, 8.0)


@pytest.fixture(scope="session")
def part2(grid2):
    return UniformPartition(grid2)


@pytest.fixture(scope="session")
def hgrid():
    # uniform grid used to measure modulation norms of Hermite-side data
    return SpectralGrid(1, 192, 12.0)


@pytest.fixture(scope="session")
def hpart(hgrid):
    return UniformPartition(hgrid)


@pytest.fixture()
def gauss1(grid1):
    return np.exp(-grid1.x_axis ** 2 / 2).astype(complex)
