import numpy as np
import pytest


@pytest.fixture
def fail_lapack(monkeypatch):
    """Make ``numpy.linalg.<name>`` raise ``LinAlgError("injected")``, so
    the failure takes the path of a real one, through ``tensor._lapack``.

    ``fail_lapack(name)`` fails every call; ``fail_lapack(name, on=amps)``
    fails only a call whose stack holds the amplitude vector ``amps``."""

    def install(name, on=None):
        routine = getattr(np.linalg, name)

        def failing(a, *args, **kwargs):
            if on is None or any(np.array_equal(row, on) for row in np.reshape(a, (-1, on.size))):
                raise np.linalg.LinAlgError("injected")
            return routine(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, failing)

    return install
