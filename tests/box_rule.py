"""The reference box rules that the tests hold the box kernel to.

`form_table` is the box table built one cell at a time: `form_value` mod
m f at every (col, row) of the m f x m f grid, as `sieve._form_table` built
it before its one integer matrix product.  `descent_pairs` is the descent
scan as a plain double loop over the box, as `curvelab.descent_sample_pairs`
ran before it became the hits of `sieve.CubeSumRows`."""

import math

import numpy as np

from apforge import sieve
from apforge.exactmath import form_value, int_kth_root


def form_table(coeffs, m: int, k: int, f: int) -> np.ndarray:
    """Entry [row, col] is set iff m divides F(col, row) = form_value(coeffs,
    col, row) and the quotient mod f is a k-th power mod f."""
    admitted = np.zeros(m * f, dtype=bool)
    admitted[::m] = sieve._factor_table(k, f, (1,))
    grid = np.arange(m * f, dtype=np.int64)
    return admitted[form_value(coeffs, grid, grid[:, None], m * f)]


def descent_pairs(scan: int) -> list:
    """Coprime (x1, x3) in [-scan, scan]^2, x1 then x3 ascending, with
    x1^3 + x3^3 = 2 x2^2 and 2 x1^3 - x2^2 a cube."""
    out = []
    for x1 in range(-scan, scan + 1):
        for x3 in range(-scan, scan + 1):
            if math.gcd(abs(x1), abs(x3)) != 1:
                continue
            t = x1**3 + x3**3
            if t < 0 or t % 2:
                continue
            x2 = int_kth_root(t // 2, 2)
            if x2 is None:
                continue
            if int_kth_root(2 * x1**3 - x2 * x2, 3) is None:
                continue
            out.append((x1, x3))
    return out
