"""apforge benchmark: verdict wall time per CLI command, per-module spans.

    python3 perfbench/run.py --workload theorem3 --seed 0 --seconds 25 --trace 0

Paths resolve against the repository root that holds this directory, and the
program runs from that root's `src/`. A workload is a closed loop with one
client: one `apforge` command at a time, each in a fresh interpreter, the
next starting only after the previous one has exited.

--trace 0 times the end-to-end metrics with tracing off. --trace 1 runs the
workload's command twice at --jobs 1, once plain and once under
perfbench/traced.py, and prints the per-layer metrics derived from the spans.
Every command's --no-timings report is checked against perfbench/expected.json;
each mismatch counts into `failed` and makes the run exit 1. The last line of
stdout is the result; the line before it records where it was measured.
perfbench/README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from itertools import product
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))

WORKLOADS = ("theorem3", "cases", "lemma", "torsion")
CPUS = sorted(os.sched_getaffinity(0))
PAR_JOBS = len(CPUS)  # what `nproc` prints
JOBS = {"wall_s": 1, "wall_par_s": PAR_JOBS}
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170  # a run must exit within 180 s
SETUP_CODE = ("import sys, apforge.cli; from apforge.corpus import load_corpus; "
              "load_corpus(*sys.argv[1:])")
# Host contention slows one vCPU of a shared VM by up to ~1.5x for seconds
# to minutes, independently per vCPU, so raw wall times of identical work
# drift by more than any useful bound. While a command runs, a probe thread
# pinned to each CPU times a fixed unit of pure-Python work in thread CPU
# time every PROBE_PERIOD_S. End-to-end times are divided by the slowdown the
# probes saw: the median probe time over all CPUs and ticks, each weighted
# by the CPU's busy time since its previous tick, over PROBE_REF_S.
# PROBE_REF_S is the unit's time on an unloaded 2-vCPU x86-64 VM with
# Python 3.11, so normalized seconds read close to raw ones there.
PROBE_PERIOD_S = 0.04
PROBE_REF_S = 0.0006
THEOREM3_VALUES = "[(-1, -1, -1, -1), (1, 1, 1, 1)]"
COVER = re.compile(r"(\d+)/(\d+) matched")

VECTORS = ["".join(map(str, v)) for v in product((2, 3), repeat=4)]
CASE_IDS = [rid.split(":")[0] for rid in EXPECTED["cases"]["records"]
            if rid.endswith(":derivation")]

# (span name, statistics). busy_s is inclusive span time, self_s is span time
# minus child spans, pairs/elements is the work the calls were given (from
# their arguments) and *_per_s is that work per busy second.
LAYERS = [
    ("cli.main", ("self_s",)),
    ("corpus.load_corpus", ("calls", "busy_s")),
    ("searcher.search_theorem3", ("busy_s", "pairs", "pairs_per_s")),
    *[(f"searcher.vector.{v}", ("busy_s",)) for v in VECTORS],
    ("searcher.verify_remark_families", ("busy_s",)),
    *[(f"curvelab.run_case.{c}", ("busy_s",)) for c in CASE_IDS],
    ("curvelab.derive_case", ("busy_s",)),
    ("curvelab.rational_points_search", ("calls", "busy_s", "pairs", "pairs_per_s")),
    ("curvelab.count_points.fp", ("calls", "busy_s", "elements", "elements_per_s")),
    ("curvelab.count_points.fp2", ("calls", "busy_s", "elements", "elements_per_s")),
    ("curvelab.jacobian_order", ("calls", "self_s")),
    ("curvelab.locally_solvable", ("calls", "busy_s", "undecided")),
    ("parametrize.param_verify_identity", ("busy_s",)),
    ("parametrize.param_cover_check", ("busy_s", "pairs", "pairs_per_s", "radius_doubled")),
    ("numfield.nf_is_square", ("calls", "busy_s", "undecided")),
    ("numfield.nf_norm", ("calls", "busy_s")),
    ("exactmath.uni_resultant", ("calls", "busy_s")),
]
UNITS = {"calls": "count", "pairs": "count", "elements": "count", "undecided": "count",
         "radius_doubled": "count", "busy_s": "s", "self_s": "s",
         "pairs_per_s": "1/s", "elements_per_s": "1/s"}


@dataclass
class Workload:
    name: str
    args: list                                # apforge arguments after the global flags
    corpus: Optional[Path]                    # corpus file to load; None is the bundled one
    pinned: list                              # record ids every report must hold
    check: Callable[[dict], Optional[str]]    # record -> why it is wrong, or None


def in_hasse_weil(n: int, p: int) -> bool:
    """(sqrt(p) - 1)^4 <= n <= (sqrt(p) + 1)^4, exactly: the ends are A -+ B sqrt(p)."""
    a, b = p * p + 6 * p + 1, 4 * p + 4
    return all(d <= 0 or d * d <= b * b * p for d in (n - a, a - n))


def torsion_workload(rng: random.Random) -> Workload:
    """Each bundled genus-2 curve with a jacobian_order fact at every prime of
    good reduction 3 <= p <= 200, valued as pinned at the seed. The seed
    shuffles the order of cases and facts, never the set of orders."""
    bundled = json.loads((SRC / "apforge" / "data" / "corpus.json").read_text(encoding="utf-8"))
    cases, orders, own = [], {}, {}
    for case in bundled["cases"]:
        pinned = EXPECTED["torsion_orders"].get(case["id"])
        if pinned is None:
            continue
        own.update({(case["id"], f["p"]): int(f["value"])
                    for f in case["facts"] if f["kind"] == "jacobian_order"})
        primes = list(pinned)
        rng.shuffle(primes)
        cases.append(dict(case, facts=[{"kind": "jacobian_order", "p": int(p), "value": pinned[p]}
                                       for p in primes]))
        orders.update({f"{case['id']}:jacobian_order:{i}": (case["id"], int(p), int(pinned[p]))
                       for i, p in enumerate(primes)})
    rng.shuffle(cases)
    path = OUT / "torsion-corpus.json"
    path.write_text(json.dumps(dict(bundled, cases=cases), indent=1), encoding="utf-8")

    def check(rec):
        if rec["id"] not in orders:
            return None
        cid, p, want = orders[rec["id"]]
        if not rec["actual"].isdigit():
            return f"#J(F_{p}) reads {rec['actual']!r}"
        n = int(rec["actual"])
        if not in_hasse_weil(n, p):
            return f"#J(F_{p}) = {n} is outside the Hasse-Weil interval"
        if n != want or own.get((cid, p), n) != n:
            return f"#J(F_{p}) = {n}, pinned {want}, corpus {own.get((cid, p))}"
        return None

    pinned_ids = [f"{c['id']}:derivation" for c in cases] + list(orders) + ["cases:remark-families"]
    return Workload("torsion", ["cases"], path, pinned_ids, check)


def make_workload(name: str, rng: random.Random) -> Workload:
    """The other workloads have no generated input: the seed only orders the
    commands inside a run."""
    if name == "theorem3":
        return Workload(name, ["search", "--theorem3", "--bound-sq", "10000", "--bound-cu", "1000"],
                        None, EXPECTED["theorem3"]["records"],
                        lambda r: None if r["actual"] == THEOREM3_VALUES else f"found {r['actual']}")
    if name == "cases":
        return Workload(name, ["cases", "--height", "1000"], None,
                        EXPECTED["cases"]["records"], lambda r: None)
    if name == "lemma":
        def cover(rec):
            m = COVER.match(rec["actual"])
            if ":cover" in rec["id"] and (not m or m[1] != m[2]):
                return f"unmatched solutions: {rec['actual']}"
            return None
        return Workload(name, ["verify-lemma", "--bound", "200"], None,
                        EXPECTED["lemma"]["records"], cover)
    return torsion_workload(rng)


def probe_unit() -> int:
    s = 0
    for i in range(8000):
        s += i * i % 7
    return s


def cpu_busy_ticks(cpu: int) -> int:
    """Non-idle clock ticks of one CPU since boot, from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            name, user, nice, system, idle, iowait, irq, softirq, *_ = line.split()
            if name == f"cpu{cpu}":
                return int(user) + int(nice) + int(system) + int(irq) + int(softirq)
    raise OSError(f"cpu{cpu} missing from /proc/stat")


def weighted_median(pairs: list) -> float:
    """Median of the values in (value, weight) pairs, by weight."""
    pairs = sorted(pairs)
    half, acc = sum(w for _, w in pairs) / 2, 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= half:
            return value
    return pairs[-1][0]


class SpeedProbe:
    """Slowdown against PROBE_REF_S while the with-block runs."""

    def __init__(self):
        self.samples: list = []  # (probe seconds, busy ticks on its CPU since the last tick)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                         for cpu in CPUS]

    def __enter__(self):
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for t in self._threads:
            t.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        busy = cpu_busy_ticks(cpu)
        while True:
            t = time.thread_time()
            probe_unit()
            probe = time.thread_time() - t
            now = cpu_busy_ticks(cpu)
            self.samples.append((probe, now - busy))
            busy = now
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def slowdown(self) -> float:
        weighted = [(p, w) for p, w in self.samples if w > 0] or [(p, 1) for p, _ in self.samples]
        return weighted_median(weighted) / PROBE_REF_S


@dataclass
class Spawned:
    wall: float       # seconds from spawn to exit
    code: int
    rss_mb: float     # peak RSS of the process and its waited-for children
    slowdown: float   # SpeedProbe.slowdown over its run

    @property
    def normalized(self) -> float:
        return self.wall / self.slowdown


class Run:
    """Spawns one run's commands in turn and tallies checked outcomes."""

    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.corpus_sha256: set = set()
        self.count = 0
        self.samples: dict = {}
        self.spans_path = OUT / f"{workload.name}-spans.json"

    def outcome(self, what: str, why: Optional[str]) -> None:
        self.attempted += 1
        if why:
            self.failures.append(f"{what}: {why}")

    def spawn(self, argv: list, log: str, cpu: Optional[int] = None) -> Spawned:
        """Run argv to completion, pinned to `cpu` when given, under a SpeedProbe."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("run deadline passed")
        env = {k: v for k, v in os.environ.items() if k != "APFORGE_CORPUS"}
        env["PYTHONPATH"] = str(SRC)
        with open(OUT / f"{log}.log", "wb") as fh, SpeedProbe() as probe:
            os.sched_setaffinity(0, CPUS if cpu is None else {cpu})  # inherited by the child
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh,
                                        stderr=subprocess.STDOUT, start_new_session=True)
            finally:
                os.sched_setaffinity(0, CPUS)
            timer = threading.Timer(left, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -signal.SIGKILL and time.monotonic() >= self.deadline:
            raise TimeoutError(f"{argv} outlived the run deadline")
        return Spawned(wall, proc.returncode, usage.ru_maxrss / 1024, probe.slowdown())

    def command(self, jobs: int, cpu: Optional[int] = None, traced: bool = False):
        """Run the workload's command once and check its report.
        Returns the Spawned result and the report's records (None if absent)."""
        self.count += 1
        tag = f"{self.w.name}-{'traced' if traced else 'plain'}-jobs{jobs}-{self.count}"
        report_path = OUT / f"{self.w.name}-report.json"
        report_path.unlink(missing_ok=True)
        args = ["--jobs", str(jobs), "--no-timings", "--report", str(report_path)]
        if self.w.corpus:
            args += ["--corpus", str(self.w.corpus)]
        args += self.w.args
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(self.spans_path),
                    f"{self.w.name}-seed{self.seed}", "--", *args]
        else:
            argv = [sys.executable, "-m", "apforge.cli", *args]
        spawned = self.spawn(argv, tag, cpu)
        code = spawned.code
        report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else None
        records = {r["id"]: r for r in report["records"]} if report else {}
        if report:
            self.corpus_sha256.add(report["corpus_sha256"])
        for rid in sorted(set(self.w.pinned) | set(records)):
            rec = records.get(rid)
            if code != 0:
                why = f"exit code {code}"
            elif rec is None:
                why = "record missing"
            elif rec["status"] in ("fail", "undecided"):
                why = rec["status"]
            else:
                why = self.w.check(rec)
            self.outcome(f"{tag} {rid}", why)
        return spawned, report and report["records"]


def run_untraced(run: Run, seconds: float, rng: random.Random) -> dict:
    """Set-up samples, then rounds of one command per --jobs setting, in
    seeded order, until the next round would end after `seconds`. A --jobs 1
    command is pinned to a seeded choice of CPU, so one probe covers it."""
    setup_argv = [sys.executable, "-c", SETUP_CODE] + ([str(run.w.corpus)] if run.w.corpus else [])
    run.spawn(setup_argv, "setup-warmup")  # byte-compiles src/ and warms the page cache
    start = time.perf_counter()
    spawned = {metric: [] for metric in ("setup_s", *JOBS)}
    for i in range(SETUP_SAMPLES):
        s = run.spawn(setup_argv, f"setup-{i}", rng.choice(CPUS))
        run.outcome("setup", f"exit code {s.code}" if s.code else None)
        spawned["setup_s"].append(s)
    while True:
        round_start = time.perf_counter()
        for metric in rng.sample(list(JOBS), len(JOBS)):
            jobs = JOBS[metric]
            s, _ = run.command(jobs, rng.choice(CPUS) if jobs == 1 else None)
            spawned[metric].append(s)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    run.samples = {m: {"wall": [s.wall for s in v], "slowdown": [s.slowdown for s in v]}
                   for m, v in spawned.items()}
    metrics = {m: {"value": statistics.median(s.normalized for s in v), "unit": "s"}
               for m, v in spawned.items()}
    peak = max(s.rss_mb for m in JOBS for s in spawned[m])
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    return metrics


def span_times(spans: list) -> tuple[list, list]:
    """Per span, its duration and the time its child spans cover, in ns."""
    dur = [s["end"] - s["start"] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    return dur, child


def layer_metrics(spans: list) -> dict:
    dur, child = span_times(spans)
    agg = defaultdict(lambda: defaultdict(int))
    for i, s in enumerate(spans):
        a = agg[s["name"]]
        a["calls"] += 1
        a["self_ns"] += dur[i] - child[i]
        a["work"] += s.get("work", 0)
        if "outcome" in s:
            a[s["outcome"]] += 1
        parent = s["parent"]
        while parent is not None and spans[parent]["name"] != s["name"]:
            parent = spans[parent]["parent"]
        if parent is None:  # outermost span of this name: counts once in busy time
            a["busy_ns"] += dur[i]
    metrics = {}
    for name, stats in LAYERS:
        a = agg[name]
        busy_s = a["busy_ns"] / 1e9
        values = {"busy_s": busy_s, "self_s": a["self_ns"] / 1e9,
                  "pairs": a["work"], "elements": a["work"],
                  "pairs_per_s": a["work"] / busy_s if busy_s else 0.0}
        values["elements_per_s"] = values["pairs_per_s"]
        for stat in stats:
            metrics[f"{name}.{stat}"] = {"value": values.get(stat, a[stat]), "unit": UNITS[stat]}
    return metrics


def work_counts(spans: list) -> dict:
    counts = defaultdict(int)
    for s in spans:
        if "work" in s:
            counts[s["name"]] += s["work"]
    return dict(sorted(counts.items()))


def layer_shares(spans: list) -> dict:
    """Share of the traced command's time spent in each module's own spans."""
    dur, child = span_times(spans)
    total = sum(d for d, s in zip(dur, spans) if s["parent"] is None)
    shares = defaultdict(float)
    for i, s in enumerate(spans):
        shares[s["name"].split(".")[0]] += (dur[i] - child[i]) / total
    return dict(sorted(shares.items()))


def run_traced(run: Run, rng: random.Random) -> tuple[dict, dict]:
    run.spans_path.unlink(missing_ok=True)
    walls, records = {}, {}
    for traced in rng.sample([False, True], 2):
        spawned, records[traced] = run.command(1, traced=traced)
        walls[traced] = spawned.wall
    run.outcome("traced report", None if records[True] == records[False]
                else "the traced report differs from the untraced one")
    spans = (json.loads(run.spans_path.read_text(encoding="utf-8"))
             if run.spans_path.exists() else [])
    counts, pinned = work_counts(spans), EXPECTED["work"][run.w.name]
    run.outcome("work counts", None if counts == pinned else f"{counts} != pinned {pinned}")
    metrics = layer_metrics(spans)
    metrics["trace.overhead_s"] = {"value": walls[True] - walls[False], "unit": "s"}
    return metrics, layer_shares(spans) if spans else {}


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out[1] if Path(out[0]).resolve() == ROOT else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "apforge").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apforge" / "cli.py").is_file():
        print(f"error: no apforge sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    run = Run(make_workload(args.workload, rng), args.seed)
    shares = None
    try:
        if args.trace:
            metrics, shares = run_traced(run, rng)
        else:
            metrics = run_untraced(run, args.seconds, rng)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = len(run.failures)
    if args.trace:
        metrics["failed_frac"] = {"value": failed / run.attempted, "unit": "ratio"}
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": PAR_JOBS, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "git_sha": git_sha(),
        "src_sha256": src_sha256(), "corpus_sha256": sorted(run.corpus_sha256),
    }
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "samples": run.samples, "layer_shares": shares,
                    "failures": run.failures, **result}, indent=1), encoding="utf-8")
    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if shares:
        print(json.dumps({"layer_shares": shares}))
    if run.samples:
        print(json.dumps({"raw_median_s": {m: statistics.median(v["wall"]) for m, v in run.samples.items()},
                          "slowdown_median": {m: statistics.median(v["slowdown"])
                                              for m, v in run.samples.items()}}))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
