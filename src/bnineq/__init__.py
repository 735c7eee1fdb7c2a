"""Numerical study of the Benatti-Narnhofer entanglement entropy
inequality on four-factor pure states.

The library builds the family of states for which the inequality fails,
evaluates both sides for any Schmidt decomposition across the
{1,2} | {3,4} split, and searches the decomposition freedom of degenerate
Schmidt spectra for the largest right-hand side.

Each of the modules ``tensor``, ``spectra``, ``schmidt``, ``inequality``
and ``sampling`` names its public API in its own ``__all__``; the package
re-exports those names, and its ``__all__`` is their concatenation.
"""

from . import inequality, sampling, schmidt, spectra, tensor
from .inequality import *
from .sampling import *
from .schmidt import *
from .spectra import *
from .tensor import *

__all__: list[str] = []
__all__ += tensor.__all__
__all__ += spectra.__all__
__all__ += schmidt.__all__
__all__ += inequality.__all__
__all__ += sampling.__all__

__version__ = "0.1.0"
