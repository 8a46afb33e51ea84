"""Sieved exhaustive search for arithmetic progressions of perfect powers.

For each exponent vector the scan enumerates value pairs (h_i, h_j) at the
two positions with the fewest candidates (powers are sparse, so this beats
looping over (h0, increment)) and derives the other terms linearly: the
term at position m is ((j-m)*h_i + (m-i)*h_j) / (j-i).  Values run on numpy
int64 arrays, inside a guard that keeps every derived term below 2^62.  The
sieved scan has three stages:

1. Sieve.  ``sieve.ClassRows`` sorts the inner array by class mod |j - i|
   and packs, once per scan, each derived term's residue patterns for the
   power moduli (the CRT factors of 720720 in the coprime pairs 16 * 9,
   5 * 7 and 11 * 13, then 17 and 19) into 64-bit words.  For a block of
   outer values h_i (``sieve.ROW_BLOCK``, or more while the block stays
   within ``sieve.CLASS_BLOCK_WORDS`` pattern words and ``sieve.BLOCK_CELLS``
   expected cells) it keeps only the pairs in the class
   h_j = h_i (mod |j - i|), whose common difference is an integer: per
   class, one AND of one pattern gather per derived term and modulus pair
   (or lone modulus) over the words that the sign rule of even powers and
   the half scan admit, then those bounds and the class cut per cell.  The
   patterns only reject.  Each block reports how many outer values it took,
   which the scan counts.
2. Exact stage.  Each block's survivors are checked as the sieve yields
   them, in slices of at most ``sieve.BLOCK_CELLS`` pairs: each derived
   term must be found, by ``np.searchsorted``, in the sorted array of every
   value eta*x^l that its position can take in the box, and gcd(h0, h1)
   must be within the cap.  Only passing rows reach `_confirm`, which
   rebuilds each term's (x, eta) with big integers and stays the authority.
3. Symmetry.  Reversing a progression gives one, with the reversed
   exponents, and gcd(h0, h1) = gcd(h_{k-1}, h_{k-2}) since both equal the
   gcd of all terms.  So one vector of each reversal pair is scanned and the
   other's hits are the reversed hits; a palindromic vector scans only
   common differences n >= 0 and adds the reverse of each hit with n != 0.

``use_sieve=False`` (``--no-sieve``) is the oracle for all three: it scans
every requested vector in full and sends every pair whose common difference
(h_j - h_i) / (j - i) is an integer to `_confirm`.  The work estimate and
its ceiling count the requested vectors either way.  The cubic twin
x^3 + y^3 = 2z^3 is the three-term progression (y^3, z^3, x^3) and runs
through the same scan.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .exactmath import int_kth_root
# The family identities live in parametrize, so `cases` never imports this
# module; perfbench/traced.py wraps verify_remark_families under this name.
from .parametrize import remark_family_terms, verify_remark_families  # noqa: F401
from .sieve import BLOCK_CELLS, INT64_SAFE, WORK_CEILING, ClassRows, ResourceLimitError

ETA_CAP = 10**6  # largest |eta| among the twists of search_general
POOL_AFTER_S = Fraction(3, 10)  # seconds a search with jobs > 1 scans alone before any worker


@dataclass(frozen=True)
class PowerTerm:
    x: int
    exponent: int
    eta: int = 1

    @property
    def value(self) -> int:
        return self.eta * self.x**self.exponent


@dataclass(frozen=True)
class Progression:
    terms: tuple

    @property
    def values(self) -> tuple:
        return tuple(t.value for t in self.terms)

    @property
    def exponents(self) -> tuple:
        return tuple(t.exponent for t in self.terms)

    def validate(self) -> None:
        v = self.values
        n = v[1] - v[0]
        for i in range(len(v) - 1):
            if v[i + 1] - v[i] != n:
                raise AssertionError(f"not an arithmetic progression: {v}")


def _eta_candidates(s_primes: Sequence[int], l: int, cap: int) -> tuple:
    """l-th-power-free S-units, |eta| <= cap, sorted; negative ones for even l only."""
    units = [1]
    for p in sorted(set(s_primes)):
        units = [u * p**e for u in units for e in range(l) if u * p**e <= cap]
    if l % 2 == 0:
        units += [-u for u in units]
    return tuple(sorted(units, key=lambda t: (abs(t), -t)))


def _position_values(l: int, bound: int, etas: tuple):
    """Sorted distinct attainable values eta*x^l at one position."""
    powers = np.arange(0 if l % 2 == 0 else -bound, bound + 1, dtype=np.int64) ** l
    if etas == (1,):
        return powers  # x^l is increasing on the range, so already sorted and distinct
    return np.unique(np.multiply.outer(np.array(etas, dtype=np.int64), powers))


def _decompose(h: int, l: int, etas: tuple, bound: int):
    """Find (x, eta) with eta*x^l == h inside the search box, else None."""
    for eta in etas:
        if eta == 0 or h % eta != 0:
            continue
        v = h // eta
        x = int_kth_root(v, l)
        if x is not None and abs(x) <= bound:
            return x, eta
    return None


@dataclass(frozen=True)
class _VectorTask:
    lvec: tuple
    bounds: tuple          # per-position x bound
    etas: tuple            # per-position eta tuple
    gcd_cap: int
    use_sieve: bool
    outer_slice: tuple = (0, None)  # slice bounds of the outer candidate array
    half: bool = False     # scan only common differences n >= 0


def _choose_base_pair(sizes: Sequence[int]):
    """The two positions with the fewest candidates, the smaller first: the
    scan loops over the first and looks up the second."""
    i, j = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))[:2]
    return i, j


def _scan_vector(task: _VectorTask, until: Optional[int] = None) -> tuple:
    """(hits, rest): the hits of the task's scan, which stops before the
    first block of outer values (one outer value without the sieve) that
    would start once the time.perf_counter_ns clock reads until, or that
    would end past until if it took as long as the block before it (the
    first block's time includes the scan's set-up); rest is the task of the
    outer values left, or None when the scan finished.  The clock is read
    once before the scan and once after each block, and never without
    until."""
    last = time.perf_counter_ns() if until is not None else None
    if last is not None and last >= until:
        return [], task
    lvec, bounds, etas = task.lvec, task.bounds, task.etas
    # Positions with the same exponent, bound and twists share one array.
    keys = list(zip(lvec, bounds, etas))
    values = {key: _position_values(*key) for key in set(keys)}
    cands = [values[key] for key in keys]
    i, j = _choose_base_pair([len(c) for c in cands])
    lo, hi = task.outer_slice
    outer, inner = cands[i][lo:hi], cands[j]
    # Steps of (_confirm results, outer values consumed).
    if task.use_sieve:
        sign = 1 if j > i else -1
        rows = ClassRows(inner, j - i, [((m - i) * sign, lvec[m], etas[m])
                                        for m in range(len(lvec)) if m not in (i, j)])
        steps = ((_exact_stage(task, cands, i, j, hs, ws), used)
                 for hs, ws, used in rows.cells(outer, half=task.half))
    else:
        steps = (([_confirm(lvec, bounds, etas, task.gcd_cap, i, j, h_i, int(inner[idx]))
                   for idx in np.flatnonzero((inner - h_i) % (j - i) == 0)], 1)
                 for h_i in outer.tolist())
    hits, done = [], 0
    for got, used in steps:
        hits += [hit for hit in got if hit is not None]
        done += used
        if last is not None:
            now = time.perf_counter_ns()
            if 2 * now - last >= until:
                break
            last = now
    return hits, (replace(task, outer_slice=(lo + done, hi)) if done < outer.size else None)


def _exact_stage(task, cands, i, j, hs, ws) -> list:
    """The `_confirm` results of the (h_i, h_j) pairs of one sieve block,
    checked BLOCK_CELLS at a time, whose derived terms are all attainable
    values (exact membership in each position's sorted value array) and
    whose gcd(h0, h1) is within the cap."""
    d = j - i
    hits = []
    for s in range(0, hs.size, BLOCK_CELLS):
        h, w = hs[s:s + BLOCK_CELLS], ws[s:s + BLOCK_CELLS]
        ok = (w - h) % d == 0
        n = (w - h) // d
        if task.half:  # the mirrored hits of a half scan need n >= 0
            ok &= n >= 0
        terms = [h + (m - i) * n for m in range(len(cands))]
        for m, values in enumerate(cands):
            if m not in (i, j):
                at = np.minimum(np.searchsorted(values, terms[m]), values.size - 1)
                ok &= values[at] == terms[m]
        g = np.gcd(terms[0], terms[1])
        ok &= (g != 0) & (g <= task.gcd_cap)
        hits += [_confirm(task.lvec, task.bounds, task.etas, task.gcd_cap, i, j, h_i, h_j)
                 for h_i, h_j in zip(h[ok].tolist(), w[ok].tolist())]
    return hits


def _confirm(lvec, bounds, etas, gcd_cap, i, j, h_i, h_j) -> Optional[Progression]:
    d = j - i
    if (h_j - h_i) % d != 0:
        return None
    n = (h_j - h_i) // d
    values = [h_i + (m - i) * n for m in range(len(lvec))]
    g = math.gcd(abs(values[0]), abs(values[1]))
    if g == 0 or g > gcd_cap:
        return None
    terms = []
    for m, h in enumerate(values):
        dec = _decompose(h, lvec[m], etas[m], bounds[m])
        if dec is None:
            return None
        x, eta = dec
        terms.append(PowerTerm(x=x, exponent=lvec[m], eta=eta))
    prog = Progression(terms=tuple(terms))
    prog.validate()
    return prog


def _position_size(l: int, bound: int, etas: tuple) -> int:
    """A position's candidate count before deduplication (an upper bound)."""
    return ((bound + 1) if l % 2 == 0 else (2 * bound + 1)) * len(etas)


def _position_sizes(task: _VectorTask) -> list:
    return [_position_size(*key) for key in zip(task.lvec, task.bounds, task.etas)]


def _pairs(task: _VectorTask) -> int:
    """The work estimate of a task: the outer values in its slice times the
    inner position's size, both counted before deduplication."""
    sizes = _position_sizes(task)
    i, j = _choose_base_pair(sizes)
    return len(range(sizes[i])[slice(*task.outer_slice)]) * sizes[j]


def _split_task(task: _VectorTask, parts: int) -> list:
    """The task's outer slice cut into at most `parts` consecutive slices."""
    # Safe for range slicing: the scan's outer set is the smallest
    # deduplicated value set, which this pointwise bound dominates.
    lo, hi, _ = slice(*task.outer_slice).indices(min(_position_sizes(task)))
    step = max(1, -(-(hi - lo) // parts))
    return [replace(task, outer_slice=(s, min(s + step, hi))) for s in range(lo, hi, step)]


def _run_tasks(tasks: list, jobs: int) -> list:
    """The hits of each task, as one list per task.

    With jobs > 1 (at most os.cpu_count()) this process first scans the
    tasks in order for POOL_AFTER_S seconds, stopping before the row block
    that `_scan_vector` expects to end past them: a search that ends within
    this head start starts no worker and never imports concurrent.futures.
    What is left is then range-partitioned into chunks of at most about
    1/(4 jobs) of its estimated pairs, which a pool of jobs worker processes
    scans; on Linux they fork with this process's warm residue tables.
    Against starting every worker at once, a long search loses the parallel
    share of the head start, about POOL_AFTER_S * (1 - 1/jobs), and one
    ClassRows build per extra chunk.  The hits are sorted canonically after
    the merge, so the result does not depend on where the head start
    stopped or on scheduling.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    until = time.perf_counter_ns() + int(POOL_AFTER_S * 10**9) if jobs > 1 else None
    hits, rest = [], []
    for n, task in enumerate(tasks):
        got, left = _scan_vector(task, until)
        hits.append(got)
        if left is not None:
            rest.append((n, left))
    if not rest:
        return hits
    left = sum(_pairs(t) for _, t in rest)  # each chunk: at most about left / (4 jobs) pairs
    chunks = [(n, c) for n, t in rest for c in _split_task(t, -(-4 * jobs * _pairs(t) // left))]
    # Imported here: the pool pulls in multiprocessing, which only this path needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for (n, _), (part, _) in zip(chunks, pool.map(_scan_vector, [c for _, c in chunks])):
            hits[n] += part
    return hits


def _reversed_task(task: _VectorTask) -> _VectorTask:
    return replace(task, lvec=task.lvec[::-1], bounds=task.bounds[::-1], etas=task.etas[::-1])


def _reversed_hit(prog: Progression) -> Progression:
    return Progression(terms=prog.terms[::-1])


def _scan_plan(task: _VectorTask):
    """(task to scan, whether its hits are reversed).

    Reversing a progression keeps it one, and gcd(h0, h1) = gcd(h_{k-1},
    h_{k-2}) because both are the gcd of all terms; so a task's hits are the
    reversed hits of its reversal, and one task of each reversal pair is
    scanned.  A palindromic task is its own reversal: it scans n >= 0 only,
    and its hits with n < 0 are the reverses of those with n > 0.
    """
    rev = _reversed_task(task)
    if rev == task:
        return replace(task, half=True), False
    key = lambda t: (t.lvec, t.bounds, t.etas)
    return (rev, True) if key(rev) < key(task) else (task, False)


def _search(k: int, vectors, exponents, rule: str, bound_of, etas_of, gcd_cap: int,
            use_sieve: bool, jobs: int) -> list:
    """The hits of the k-term vectors over exponents (all of them when
    vectors is None), sorted canonically; a position of exponent l has x
    bound bound_of(l) and twists etas_of(l).  Any other vector is a
    ValueError, its message ending in rule.  The sieved path scans one task
    per reversal class and mirrors its hits (see _scan_plan); --no-sieve
    scans every requested task in full."""
    if vectors is not None:
        vectors = [tuple(v) for v in vectors]
        for v in vectors:
            if len(v) != k or any(l not in exponents for l in v):
                raise ValueError(f"bad exponent vector {v}{rule}")
    # Extrapolated terms reach (2k+1) times the largest candidate value;
    # keep that inside int64 with margin.
    eta_cap = max(abs(e) for l in exponents for e in etas_of(l))
    used = exponents if vectors is None else {l for v in vectors for l in v}
    worst = max((eta_cap * bound_of(l) ** l for l in used), default=0)
    if worst * (2 * k + 2) >= INT64_SAFE:
        raise ResourceLimitError(
            "candidate values exceed the 62-bit kernel range; shrink bounds")
    if vectors is None:
        # Before enumerating: no vector's estimate is below s_min^2, s_min the
        # smallest position size, so this refuses only what the estimate would.
        least = len(exponents) ** k * min(
            _position_size(l, bound_of(l), etas_of(l)) for l in exponents) ** 2
        if least > WORK_CEILING:
            raise ResourceLimitError(
                f"estimated at least {least} pair evaluations exceeds ceiling")
        vectors = list(product(exponents, repeat=k))
    tasks = [_VectorTask(lvec=v, bounds=tuple(map(bound_of, v)), etas=tuple(map(etas_of, v)),
                         gcd_cap=gcd_cap, use_sieve=use_sieve) for v in vectors]
    est = sum(map(_pairs, tasks))
    if est > WORK_CEILING:
        raise ResourceLimitError(f"estimated {est} pair evaluations exceeds ceiling")
    plans = [_scan_plan(t) if use_sieve else (t, False) for t in tasks]
    scans = list(dict.fromkeys(scan for scan, _ in plans))
    found = dict(zip(scans, _run_tasks(scans, jobs)))
    hits = []
    for scan, flipped in plans:
        got = found[scan]
        if scan.half:
            got = got + [_reversed_hit(p) for p in got if p.values[0] != p.values[1]]
        hits += [_reversed_hit(p) for p in got] if flipped else got
    return sorted(hits, key=lambda p: (p.exponents, p.values))


def search_theorem3(bound_squares: int, bound_cubes: int,
                    vectors: Optional[Sequence] = None,
                    use_sieve: bool = True, jobs: int = 1) -> list:
    """All 4-term progressions of squares/cubes with gcd(h0, h1) = 1.

    Exponent vectors range over {2,3}^4 (or the given subset; any other
    vector is a ValueError); |x| is capped by bound_squares for exponent 2
    and bound_cubes for exponent 3.
    """
    if bound_squares < 1 or bound_cubes < 1:
        raise ValueError("bounds must be positive")
    return _search(4, vectors, (2, 3), ": theorem 3 takes four exponents, each 2 or 3",
                   lambda l: bound_squares if l == 2 else bound_cubes, lambda l: (1,), 1,
                   use_sieve, jobs)


def search_general(k: int, L: int, bound: int, D: int = 1,
                   S: Sequence[int] = (), vectors: Optional[Sequence] = None,
                   use_sieve: bool = True, jobs: int = 1) -> list:
    """k-term progressions h = eta * x^l, 2 <= l <= L, gcd(h0, h1) <= D.

    eta ranges over l-th-power-free S-units up to 10^6, negative ones only
    for even l (for odd l the sign goes into x); each term reports its own
    (x, l, eta).  Raises ResourceLimitError when the estimated scan size
    exceeds the ceiling (never truncates silently).
    """
    if k < 3:
        raise ValueError("k must be at least 3")
    if L < 2:
        raise ValueError("L must be at least 2")
    eta_by_l = {l: _eta_candidates(S, l, ETA_CAP) for l in range(2, L + 1)}
    return _search(k, vectors, range(2, L + 1), "", lambda l: bound, eta_by_l.__getitem__,
                   D, use_sieve, jobs)


def search_cubic_twin(bound: int, jobs: int = 1) -> list:
    """Coprime nonzero solutions of x^3 + y^3 = 2 z^3 up to the bound."""
    if bound < 1:
        raise ValueError("bound must be positive")
    # The progression (y^3, z^3, x^3); gcd(y^3, z^3) = 1 iff gcd(x, y, z) = 1.
    progs = search_general(3, 3, bound, vectors=[(3, 3, 3)], jobs=jobs)
    return sorted((p.terms[2].x, p.terms[0].x, p.terms[1].x) for p in progs
                  if all(t.x != 0 for t in p.terms))
