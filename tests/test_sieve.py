"""Residue tables: the CRT power table against its factor definition."""

import numpy as np
import pytest

from apforge.searcher import _eta_candidates
from apforge.sieve import CRT_FACTORS, CRT_MODULUS, power_table


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_power_table_is_and_of_factor_tables(l):
    r = np.arange(CRT_MODULUS)
    for etas in (_eta_candidates((73,), l, 10**6), (1,)):
        want = np.ones(CRT_MODULUS, dtype=bool)
        for f in CRT_FACTORS:
            factor = np.zeros(f, dtype=bool)
            for eta in etas:
                for x in range(f):
                    factor[(eta * pow(x, l, f)) % f] = True
            want &= factor[r % f]
        assert np.array_equal(power_table(l, etas), want)
