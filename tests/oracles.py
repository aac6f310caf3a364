"""Reference implementations that tests compare the package against."""

import numpy as np

from handopt.estimators import FilterCoeffs, window_start


def avg_coeffs(n: int, n_w: int) -> FilterCoeffs:
    """Rectangular window row at sample n: every sample in the window
    weighted 1/count, the row coefficient_table's avg mode must hold."""
    nb = window_start(n, n_w)
    cnt = n - nb + 1
    return FilterCoeffs(nb, n, np.full(cnt, 1.0 / cnt), "avg")
