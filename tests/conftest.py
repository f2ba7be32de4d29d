import numpy as np
import pytest

from mmi_lab import (DetectorConfig, Layout, SourceConfig, TransferMatrix,
                     balanced_splitter, measured_chip_matrix, sin2_envelope)


@pytest.fixture(scope="session")
def chip():
    return measured_chip_matrix()


@pytest.fixture(scope="session")
def splitter():
    return balanced_splitter()


@pytest.fixture(scope="session")
def identity4():
    return TransferMatrix(np.eye(4, dtype=complex))


@pytest.fixture(scope="session")
def envelope():
    return sin2_envelope(300.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def default_source():
    return SourceConfig()


@pytest.fixture(scope="session")
def default_detectors():
    return DetectorConfig()


@pytest.fixture(scope="session")
def mmi_layout():
    return Layout.mmi()
