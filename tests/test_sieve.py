"""Residue tables: the CRT power table against its factor definition, and
the pair-scan mask against the exact predicate."""

import random

import numpy as np
import pytest

from apforge.exactmath import int_kth_root
from apforge.searcher import _eta_candidates
from apforge.sieve import CRT_FACTORS, CRT_MODULUS, combo_mask, power_table


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


def _is_twisted_power(q, l, etas):
    return any(q % eta == 0 and int_kth_root(q // eta, l) is not None for eta in etas)


def test_combo_mask_between_exact_and_divisibility():
    # exact <= sieved <= unsieved, and unsieved is the divisibility predicate:
    # the independent check of the scan that the search's sieved path and its
    # --no-sieve oracle share.
    rng = random.Random(8)
    vals = sorted({s * x**l for x in range(-6, 7) for l in (2, 3) for s in (1, -1, 2, 73)})
    h, w = np.array(vals, dtype=np.int64)[:, None], np.array(vals, dtype=np.int64)
    exact_cells = 0
    for _ in range(60):
        combos = []
        for _ in range(rng.randint(1, 3)):
            l = rng.randint(2, 5)
            cands = _eta_candidates((73,), l, 10**6)
            etas = tuple(rng.sample(cands, rng.randint(1, min(4, len(cands)))))
            delta = rng.choice((1, 2, 3, 4)) * rng.choice((1, -1))
            combos.append((rng.randint(-4, 4), rng.randint(-4, 4), delta, l, etas))
        sieved = combo_mask(h, w, combos, use_sieve=True)
        unsieved = combo_mask(h, w, combos, use_sieve=False)
        divisible = np.ones_like(unsieved)
        exact = np.ones_like(unsieved)
        for r, hv in enumerate(vals):
            for c, wv in enumerate(vals):
                for alpha, beta, delta, l, etas in combos:
                    v = alpha * hv + beta * wv
                    divisible[r, c] &= v % delta == 0
                    exact[r, c] &= v % delta == 0 and _is_twisted_power(v // delta, l, etas)
        assert not (exact & ~sieved).any()
        assert not (sieved & ~unsieved).any()
        assert np.array_equal(unsieved, divisible)
        exact_cells += int(exact.sum())
    assert exact_cells > 0


def test_combo_mask_cascade_is_and_of_single_combos():
    # Later combos run only on the cells alive after the earlier ones; the
    # mask must be the AND of each combo's own mask over the whole grid, for
    # a scalar, a column (a 2-D grid) and a same-shape row as h.
    rng = random.Random(11)
    vals = np.array(sorted({s * x**l for x in range(-40, 41) for l in (2, 3)
                            for s in (1, -1, 2)}), dtype=np.int64)
    for _ in range(40):
        combos = [(rng.randint(-4, 4), rng.randint(-4, 4), rng.choice((1, 2, 3, -2)),
                   rng.randint(2, 4), rng.choice(((1,), (1, -1), (1, 2, -2))))
                  for _ in range(rng.randint(2, 4))]
        for h in (int(rng.choice(vals)), vals[::7][:, None], vals[::-1]):
            for use_sieve in (True, False):
                want = np.ones(np.broadcast_shapes(np.shape(h), vals.shape), dtype=bool)
                for c in combos:
                    want &= combo_mask(h, vals, [c], use_sieve)
                assert np.array_equal(combo_mask(h, vals, combos, use_sieve), want)
