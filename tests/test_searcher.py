"""Search engine: sieve soundness, pinned hits, symmetry, determinism."""

import concurrent.futures
import math
import os
import subprocess
import sys
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from apforge import parametrize, searcher, sieve
from apforge.parametrize import remark_family_terms, verify_remark_families
from apforge.searcher import (Progression, ResourceLimitError,
                              _eta_candidates, search_cubic_twin,
                              search_general, search_theorem3)
from apforge.sieve import ROW_BLOCK
from power_rule import maybe_power
from apforge.exactmath import form_eval, int_kth_root


def test_is_power_value_examples():
    # A power test is the residue sieve followed by the exact root: the sieve
    # must pass every true power, and the root gives the canonical x.
    def is_power_value(h, l):
        return int_kth_root(h, l) if maybe_power(h, l) else None

    assert is_power_value(64, 2) == 8
    assert is_power_value(64, 3) == 4
    assert is_power_value(5329, 2) == 73
    assert is_power_value(-27, 3) == -3
    assert is_power_value(-4, 2) is None
    assert is_power_value(0, 4) == 0


# 2000 draws in all, POWER_DRAWS per example, as hypothesis spends more per
# example than one draw costs.
POWER_DRAWS = 100


@settings(max_examples=2000 // POWER_DRAWS, deadline=None)
@given(st.lists(st.tuples(st.integers(2, 7), st.integers(-50, 50)),
                min_size=POWER_DRAWS, max_size=POWER_DRAWS))
def test_sieve_never_rejects_powers(draws):
    for l, x in draws:
        if l % 2 == 0:
            x = abs(x)
        h = x**l
        assert maybe_power(h, l)
        etas = _eta_candidates((73,), l, 10**6)
        for eta in etas:
            assert maybe_power(eta * h, l, etas)


def test_sieve_soundness_search_comparison():
    with_sieve = search_theorem3(200, 60, use_sieve=True)
    without = search_theorem3(200, 60, use_sieve=False)
    assert [(p.exponents, p.values) for p in with_sieve] == \
        [(p.exponents, p.values) for p in without]


def test_theorem3_small_bounds():
    progs = search_theorem3(300, 80)
    vals = sorted(set(p.values for p in progs))
    assert vals == [(-1, -1, -1, -1), (1, 1, 1, 1)]
    for p in progs:
        p.validate()
        assert math.gcd(abs(p.values[0]), abs(p.values[1])) == 1


def test_theorem3_single_vector_squares():
    progs = search_theorem3(2000, 1, vectors=[(2, 2, 2, 2)])
    assert [p.values for p in progs] == [(1, 1, 1, 1)]


@pytest.mark.parametrize("vector", [(2, 2, 4, 5), (2, 2, 2), (2, 2, 2, 2, 3), (3, 3, 3, 1)])
def test_theorem3_rejects_vectors_outside_squares_and_cubes(vector):
    # A 4th or 5th power would run with the cube bound, and a 3-term vector
    # under the theorem-3 record: both must be refused, not reported.
    with pytest.raises(ValueError, match="bad exponent vector"):
        search_theorem3(10, 10, vectors=[(2, 2, 2, 2), vector])


def test_theorem3_unit_bounds():
    progs = search_theorem3(1, 1)
    assert sorted(set(p.values for p in progs)) == \
        [(-1, -1, -1, -1), (1, 1, 1, 1)]


def test_theorem3_symmetry_closed():
    progs = search_theorem3(120, 50)
    found = {(p.exponents, p.values) for p in progs}
    for expo, vals in found:
        # Progression reversal with the reversed exponent vector.
        assert (expo[::-1], vals[::-1]) in found
        # Global sign flip when every exponent is odd.
        if all(l % 2 == 1 for l in expo):
            assert (expo, tuple(-v for v in vals)) in found


@pytest.fixture
def serial_pool(monkeypatch):
    """A fake ProcessPoolExecutor that maps in this process, so no worker is
    ever started; its `sizes` and `chunks` record each pool's max_workers
    and the chunks it was given."""

    class SerialPool:
        sizes, chunks = [], []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.chunks.extend(items)
            return map(fn, items)

    # _run_tasks imports the pool class from concurrent.futures when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return SerialPool


def test_worker_pool_capped_at_cpu_count(monkeypatch, serial_pool):
    # No head start, so even this small search reaches the pool.
    monkeypatch.setattr(searcher, "POOL_AFTER_S", 0)
    monkeypatch.setattr(searcher.os, "cpu_count", lambda: 3)
    want = search_theorem3(60, 20, jobs=1)
    for jobs, pool in ((5000, [3]), (3, [3]), (2, [2])):
        serial_pool.sizes.clear()
        got = search_theorem3(60, 20, jobs=jobs)
        assert [(p.exponents, p.values) for p in got] == [(p.exponents, p.values) for p in want]
        assert serial_pool.sizes == pool
    monkeypatch.setattr(searcher.os, "cpu_count", lambda: None)
    serial_pool.sizes.clear()
    search_theorem3(60, 20, jobs=5000)
    assert serial_pool.sizes == []  # an unknown core count runs serially


@pytest.mark.parametrize("search, args, kwargs", [
    (search_theorem3, (150, 40), {}),
    (search_general, (4, 2, 60), dict(S=(73,))),
], ids=["theorem3", "eta73"])
@pytest.mark.parametrize("use_sieve", [True, False], ids=["sieve", "no-sieve"])
@pytest.mark.parametrize("early", [1, 2, 5])
def test_head_start_hands_the_rest_to_the_pool(search, args, kwargs, use_sieve, early,
                                               monkeypatch, serial_pool):
    # A fake clock reads 0 ns for `early` readings, then POOL_AFTER_S.  The
    # first reading sets the deadline; a scan reads it once before it starts
    # and once after each row block (each outer value without the sieve).
    # Blocks are held at the ROW_BLOCK floor of the block rule, which splits
    # the eta-73 scan.  So at early = 1 the pool gets every scan, and at 2
    # the head start ends after the first block of the first scan: inside
    # it, except for the sieved theorem3 scans, which are one block each.
    # At 5 the sieved theorem3 head start ends after two scans.
    monkeypatch.setattr(sieve, "CLASS_BLOCK_WORDS", 0)
    want = _terms(search(*args, **kwargs, jobs=1))
    assert want and _terms(search(*args, **kwargs, use_sieve=False, jobs=1)) == want
    readings = iter(range(10**9))
    clock = lambda: 0 if next(readings) < early else int(searcher.POOL_AFTER_S * 10**9)
    monkeypatch.setattr(searcher, "time", SimpleNamespace(perf_counter_ns=clock))
    monkeypatch.setattr(searcher.os, "cpu_count", lambda: 2)
    assert _terms(search(*args, **kwargs, use_sieve=use_sieve, jobs=2)) == want
    if early < 5:
        assert serial_pool.sizes == [2]
    if early == 2:
        left_at = 1 if not use_sieve else ROW_BLOCK if search is search_general else 0
        assert serial_pool.chunks[0].outer_slice[0] == left_at
    if early == 5 and search is search_theorem3 and use_sieve:
        assert serial_pool.chunks[0].lvec == (2, 2, 3, 2)  # after 2222 and 2223


@pytest.mark.parametrize("block_ns, left_at", [
    (130_000_000, ROW_BLOCK),  # the second block would end at 0.39 s: stop after one
    (100_000_000, ROW_BLOCK),  # the second block would end on the deadline itself
    (90_000_000, None),  # both blocks end by 0.27 s: no pool
], ids=["0.13s", "0.10s", "0.09s"])
def test_head_start_stops_before_a_block_past_the_deadline(block_ns, left_at, monkeypatch,
                                                          serial_pool):
    # A fake clock advances block_ns per reading, so each of the two row
    # blocks of the one eta-73 scan, at the ROW_BLOCK floor of the block
    # rule, seems to take block_ns: the head start ends before the block
    # that would run past POOL_AFTER_S, and no reading inside it is past the
    # deadline, set by the first reading.
    monkeypatch.setattr(sieve, "CLASS_BLOCK_WORDS", 0)
    want = _terms(search_general(4, 2, 60, S=(73,), jobs=1))
    readings = []

    def clock():
        readings.append(len(readings) * block_ns)
        return readings[-1]

    monkeypatch.setattr(searcher, "time", SimpleNamespace(perf_counter_ns=clock))
    monkeypatch.setattr(searcher.os, "cpu_count", lambda: 2)
    assert _terms(search_general(4, 2, 60, S=(73,), jobs=2)) == want
    assert max(readings) <= int(searcher.POOL_AFTER_S * 10**9)
    if left_at is None:
        assert serial_pool.sizes == []
    else:
        assert serial_pool.sizes == [2] and serial_pool.chunks[0].outer_slice[0] == left_at


def _vector_task(lvec, bound_of, etas_of, gcd_cap):
    return searcher._VectorTask(lvec=lvec, bounds=tuple(map(bound_of, lvec)),
                                etas=tuple(map(etas_of, lvec)), gcd_cap=gcd_cap, use_sieve=True)


def test_scan_without_a_deadline_finishes_every_task():
    # Without a deadline a scan takes every outer value, counting what each
    # block took: the grid's scans with two cubes or more run in blocks of
    # 1536 outer values, and the eta-73 scan at bound 200 in blocks of 712
    # of its 801 (more than ROW_BLOCK each).  Counting ROW_BLOCK per block would
    # leave rows that a --jobs 1 search hands to a pool.
    tasks = [_vector_task(v, lambda l: 10**4 if l == 2 else 10**3, lambda l: (1,), 1)
             for v in product((2, 3), repeat=4)]
    eta73 = _eta_candidates((73,), 2, searcher.ETA_CAP)
    tasks.append(_vector_task((2, 2, 2, 2), lambda l: 200, lambda l: eta73, 1))
    for task in tasks:
        hits, rest = searcher._scan_vector(task)
        assert rest is None, task.lvec
    assert searcher._scan_vector(tasks[-1])[0]  # (1, 25, 49, 73) and its kin


def test_cli_import_leaves_process_pool_out():
    # Only a search that outlasts its head start starts a pool, so neither
    # loading the CLI nor a short search at --jobs 2 imports multiprocessing.
    # The child imports apforge from wherever this process does.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = ("import contextlib, io, sys, apforge.cli\n"
            "loaded = 'concurrent.futures' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = apforge.cli.main(['--jobs', '2', 'search', '--theorem3',\n"
            "                             '--bound-sq', '200', '--bound-cu', '40'])\n"
            "print(code, loaded, 'concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False False"


def test_theorem3_deterministic_across_jobs(monkeypatch):
    # No head start, so the two real workers scan every chunk.
    monkeypatch.setattr(searcher, "POOL_AFTER_S", 0)
    a = search_theorem3(150, 40, jobs=1)
    b = search_theorem3(150, 40, jobs=2)
    assert [(p.exponents, p.values) for p in a] == [(p.exponents, p.values) for p in b]


def test_cubic_twin():
    assert search_cubic_twin(500) == [(-1, -1, -1), (1, 1, 1)]
    assert search_cubic_twin(1) == [(-1, -1, -1), (1, 1, 1)]


def test_odd_exponent_twists_are_positive(monkeypatch):
    # -eta * x^l = eta * (-x)^l for odd l, so a negative twist repeats a
    # positive one and would double the position's size and the estimate.
    for l in (3, 5):
        assert all(eta > 0 for eta in _eta_candidates((2, 73), l, 10**6))
    assert -73 in _eta_candidates((73,), 2, 10**6)
    # The twin scans (2 * 10 + 1)^2 pairs, so its estimate is that many.
    monkeypatch.setattr(searcher, "WORK_CEILING", 21**2)
    assert search_cubic_twin(10) == [(-1, -1, -1), (1, 1, 1)]


def test_general_search_three_term_squares():
    progs = search_general(3, 3, 500, D=1)
    vals = {p.values for p in progs}
    assert (1, 25, 49) in vals
    for p in progs:
        p.validate()
        g = math.gcd(abs(p.values[0]), abs(p.values[1]))
        assert 1 <= g <= 1


def test_general_search_eta_73_family():
    progs = search_general(4, 2, 1000, D=1, S=(73,))
    assert any(p.values == (1, 25, 49, 73)
               and tuple(t.eta for t in p.terms) == (1, 1, 1, 73)
               for p in progs)


def test_repeated_s_prime_keeps_the_search_box():
    # A repeated prime once multiplied in twice: S = (2, 2) admitted eta = +-4,
    # a square, and found (-4*13^2, -17^2, 2*7^2) outside the box.
    assert search_general(3, 2, 20, S=(2, 2)) == search_general(3, 2, 20, S=(2,))


def test_general_search_five_squares_trivial():
    progs = search_general(5, 2, 1000, D=1)
    assert {p.values for p in progs} <= {(1,) * 5, (-1,) * 5}
    assert (1,) * 5 in {p.values for p in progs}


def test_resource_ceiling():
    with pytest.raises(ResourceLimitError):
        search_general(4, 2, 10**6)  # about 4 (10^6 + 1)^2 pairs, over WORK_CEILING
    with pytest.raises(ResourceLimitError):
        search_general(4, 7, 10**3)  # values overflow the int64 kernel


def test_work_ceiling_refuses_before_enumerating(monkeypatch):
    # 2^30 vectors, each of at least 11^2 pairs (bound 10, squares the
    # smallest position): about 1.3e11 pairs, refused before a vector is built.
    # Enumerating them all would take minutes and gigabytes, so the wrapper
    # stops a request that takes more than the 16 vectors of theorem 3.
    taken = []

    def counted(*args, **kwargs):
        for vector in product(*args, **kwargs):
            taken.append(vector)
            assert len(taken) <= 16, "a refused request enumerated its vectors"
            yield vector

    monkeypatch.setattr(searcher, "product", counted)
    with pytest.raises(ResourceLimitError, match="exceeds ceiling"):
        search_general(30, 3, 10)
    assert taken == []
    search_theorem3(10, 10)  # an admitted request still enumerates through it
    assert len(taken) == 16
    assert searcher.ResourceLimitError is sieve.ResourceLimitError


@pytest.mark.parametrize("search, last_in_range", [
    (lambda bound: search_theorem3(1, bound, vectors=[(3, 3, 3, 3)]), 772597),
    (lambda bound: search_general(4, 2, bound, S=(73,)), 79481935),
], ids=["theorem3-cubes", "eta73-squares"])
def test_int64_guard_boundary(search, last_in_range):
    # (2k + 2) * eta_cap * bound^l stays below 2^62 up to last_in_range: the
    # work ceiling refuses that search, the int64 guard the next one.
    with pytest.raises(ResourceLimitError, match="exceeds ceiling"):
        search(last_in_range)
    with pytest.raises(ResourceLimitError, match="62-bit"):
        search(last_in_range + 1)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        search_theorem3(0, 10)
    with pytest.raises(ValueError):
        search_general(2, 3, 100)
    with pytest.raises(ValueError):
        search_general(4, 2, 100, vectors=[(2, 9, 2, 2)])


def test_progression_terms_recover_values():
    progs = search_general(4, 3, 60, D=4)
    for p in progs:
        for t in p.terms:
            assert t.value == t.eta * t.x**t.exponent
            if t.exponent % 2 == 0:
                assert t.x >= 0


def test_remark_families_symbolic():
    assert verify_remark_families()


def test_searcher_binds_the_family_identities_of_parametrize():
    # perfbench/traced.py wraps searcher.verify_remark_families; its patch
    # rebinds every module holding the same object, so `cases`, which calls
    # parametrize's, is still traced under that name.
    assert searcher.verify_remark_families is parametrize.verify_remark_families
    assert searcher.remark_family_terms is parametrize.remark_family_terms


def test_remark_family_pinned_terms():
    fams = remark_family_terms()
    terms, expo = fams["sq_sq_sq_cube"]
    assert expo == (2, 2, 2, 3)
    vals = [int(form_eval(t, 2, 1)) for t in terms]
    assert vals == [5329, 133225, 261121, 389017]
    diffs = {vals[i + 1] - vals[i] for i in range(3)}
    assert diffs == {127896}
    assert int_kth_root(vals[3], 3) == 73
    assert [form_eval(t, 1, 0) for t in terms] == [1, 1, 1, 1]


def test_general_scan_derives_terms_before_the_scanned_pair():
    # For (3, 3, 2) under 2-unit twists the last position has the fewest
    # candidates, so the scanned pair is (2, 0) or (2, 1) and the derived
    # term lies before it; the sieved and unsieved scans must agree.
    def hits(use_sieve):
        return [p.values for p in search_general(3, 3, 60, S=(2,), vectors=[(3, 3, 2)],
                                                 use_sieve=use_sieve)]
    assert (4, 27, 50) in hits(True)
    assert hits(True) == hits(False)


# The staged scan (compacting sieve, batched exact stage, one scan per
# reversal class) against the --no-sieve oracle, which scans every requested
# vector in full and confirms every divisible pair.

def _terms(progs):
    return [tuple((t.exponent, t.value, t.x, t.eta) for t in p.terms) for p in progs]


def _confirm_calls(monkeypatch):
    """Record whether each _confirm call found a progression."""
    calls = []
    confirm = searcher._confirm

    def spy(*args):
        hit = confirm(*args)
        calls.append(hit is not None)
        return hit

    monkeypatch.setattr(searcher, "_confirm", spy)
    return calls


@pytest.mark.parametrize("lvec", list(product((2, 3), repeat=4)),
                         ids=lambda v: "".join(map(str, v)))
def test_theorem3_single_vector_matches_oracle(lvec, monkeypatch):
    oracle = search_theorem3(200, 60, vectors=[lvec], use_sieve=False)
    calls = _confirm_calls(monkeypatch)
    staged = search_theorem3(200, 60, vectors=[lvec])
    assert _terms(staged) == _terms(oracle)
    assert oracle and all(p.exponents == lvec for p in staged)
    # The exact stage passes on only true hits.
    assert all(calls)


@pytest.mark.parametrize("args, kwargs, hit", [
    ((3, 2, 10), dict(vectors=[(2, 2, 2)]), (1, 25, 49)),
    ((4, 2, 60), dict(S=(73,), vectors=[(2, 2, 2, 2)]), (1, 25, 49, 73)),
], ids=["222", "2222-eta73"])
def test_palindromic_half_scan_matches_oracle(args, kwargs, hit, monkeypatch):
    # A palindromic vector scans only n >= 0 and adds the reverse of each hit
    # with n != 0; the oracle scans it in full.
    oracle = search_general(*args, **kwargs, use_sieve=False)
    calls = _confirm_calls(monkeypatch)
    staged = search_general(*args, **kwargs)
    assert _terms(staged) == _terms(oracle)
    assert len(set(_terms(staged))) == len(staged)
    values = [p.values for p in staged]
    assert hit in values and hit[::-1] in values
    assert all(calls)


@pytest.mark.parametrize("k, L, bound", [(3, 3, 25), (4, 3, 12), (5, 2, 12), (5, 3, 5)])
@pytest.mark.parametrize("S", [(), (2,), (73,)])
@pytest.mark.parametrize("D", [1, 4])
def test_general_search_matches_oracle(k, L, bound, S, D, monkeypatch):
    oracle = search_general(k, L, bound, D=D, S=S, use_sieve=False)
    calls = _confirm_calls(monkeypatch)
    staged = search_general(k, L, bound, D=D, S=S)
    assert _terms(staged) == _terms(oracle)
    assert all(calls)


@pytest.mark.parametrize("flush", [1, 7])
def test_exact_stage_batch_boundaries(flush, monkeypatch):
    oracle = search_general(3, 3, 20, S=(2,), use_sieve=False)
    monkeypatch.setattr(searcher, "BLOCK_CELLS", flush)
    assert _terms(search_general(3, 3, 20, S=(2,))) == _terms(oracle)
    assert len(oracle) > 100


@pytest.mark.parametrize("search, args, kwargs", [
    (search_theorem3, (200, 60), {}),
    (search_general, (4, 2, 60), dict(S=(73,))),
], ids=["theorem3", "eta73"])
def test_flush_inside_a_sieve_block_matches_oracle(search, args, kwargs, monkeypatch):
    # With searcher's own BLOCK_CELLS binding at 7 (sieve's keeps its blocks)
    # a block of the sieve holds more pairs than one slice, so the exact
    # stage checks that block in several slices.  It runs once per block
    # that ClassRows.cells yields.
    oracle = search(*args, **kwargs, use_sieve=False)
    monkeypatch.setattr(searcher, "BLOCK_CELLS", 7)
    exact_stage, cells = searcher._exact_stage, searcher.ClassRows.cells
    checked, yielded = [], []

    def spy(task, cands, i, j, hs, ws):
        checked.append(hs.size)
        return exact_stage(task, cands, i, j, hs, ws)

    def counted_cells(rows, outer, half=False):
        for hs, ws, used in cells(rows, outer, half=half):
            yielded.append(hs.size)
            yield hs, ws, used

    monkeypatch.setattr(searcher, "_exact_stage", spy)
    monkeypatch.setattr(searcher.ClassRows, "cells", counted_cells)
    assert _terms(search(*args, **kwargs)) == _terms(oracle)
    assert oracle and max(checked) > 7 and checked == yielded


def test_theorem3_grid_exact_stage_pairs(monkeypatch):
    # The residue tables pass few pairs of the acceptance grid to the exact
    # stage: 19 940 with the moduli 16, 9, 5, 7, 11, 13, 17 and 19 (92 381
    # with the first six alone).
    exact_stage, pairs = searcher._exact_stage, []

    def spy(task, cands, i, j, hs, ws):
        pairs.append(hs.size)
        return exact_stage(task, cands, i, j, hs, ws)

    monkeypatch.setattr(searcher, "_exact_stage", spy)
    search_theorem3(10**4, 10**3)
    assert sum(pairs) <= 20_000


@st.composite
def _search_args(draw):
    k, L = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    S = tuple(draw(st.lists(st.sampled_from((2, 3, 73)), unique=True)))
    vector = tuple(draw(st.lists(st.integers(2, L), min_size=k, max_size=k)))
    # Keep the oracle's pair count near 10^5: it confirms every divisible pair.
    etas = max(len(_eta_candidates(S, l, 10**6)) for l in vector)
    bound = draw(st.integers(1, max(1, min(40, 150 // etas))))
    return k, L, bound, S, draw(st.integers(1, 6)), vector


@settings(max_examples=60, deadline=None)
@given(_search_args())
def test_staged_scan_matches_oracle_random(args):
    k, L, bound, S, D, vector = args
    staged, oracle = (search_general(k, L, bound, D=D, S=S, vectors=[vector], use_sieve=u)
                      for u in (True, False))
    assert _terms(staged) == _terms(oracle)
