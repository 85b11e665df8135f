"""Reference implementations the tests check the simulator against.

They are written for clarity, not speed, and no simulator code calls them.
"""

from __future__ import annotations

import numpy as np

from ofdmsim.errors import SizeError


def direct_transform(samples: np.ndarray, inverse: bool) -> np.ndarray:
    """Literal O(N^2) evaluation of the unitary transform sum (any N >= 1)."""
    samples = np.asarray(samples, dtype=np.complex128)
    n = samples.size
    if n < 1:
        raise SizeError("direct transform needs at least one sample")
    sign = 1.0 if inverse else -1.0
    idx = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    return kernel @ samples
