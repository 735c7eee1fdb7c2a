import numpy as np
import pytest

import bnineq
from bnineq import NumericalError


@pytest.fixture
def fail_svd_on(monkeypatch):
    """Make every Schmidt SVD whose stack holds the amplitude vector passed
    to the returned function raise ``NumericalError``."""

    def install(bad):
        svd = bnineq.spectra.svd

        def failing_svd(m):
            if any(np.array_equal(row, bad) for row in np.reshape(m, (-1, bad.size))):
                raise NumericalError("SVD failed to converge: injected")
            return svd(m)

        monkeypatch.setattr(bnineq.spectra, "svd", failing_svd)

    return install
