"""Command-line entry point: verifications, searches, and reports.

Subcommands
  verify-lemma   parametrization identities and bounded cover checks
  search         progression searches (theorem-3 grid, general, cubic twin)
  cases          per-case derivations and fact checks, plus the two
                 infinite-family identities
  genus          ramification/chi genus classification

Exit codes: 0 all pass (unchecked claims aside), 1 any fail or undecided
record, 2 usage error, 3 resource ceiling.
A machine-readable report goes to --report; records are canonically ordered
so reports are byte-identical across runs (pass --no-timings to zero the
per-record runtimes, which are the only volatile field).

Two entries: `run()` is the process's (`python -m apforge.cli` and the
`apforge` script), which freezes the start-up heap (gc.freeze) and then
calls `main(argv)`; `main` is the in-process API that tests and
perfbench/traced.py call, and it never freezes.  `searcher` and `genus` are
imported by the commands that call them, so `verify-lemma` and `cases` never
load them (the family identities that `cases` checks are `parametrize`'s).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import product

# numpy's OpenBLAS starts a thread per CPU at import; apforge never calls BLAS
# (its matrix products are int64), so one thread will do unless the user asks.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import corpus as corpus_mod
from . import curvelab, parametrize
from .curvelab import CheckResult, timed_check
from .exactmath import is_prime
from .records import Record
from .sieve import ResourceLimitError


class RunReport(Record):
    """One command's records, which the command appends as it runs: a plain
    record, not a NamedTuple, and never hashed, as its list grows."""

    _fields = ("command", "corpus_version", "corpus_sha256", "records")
    __hash__ = None

    def __init__(self, command: str, corpus_version: str, corpus_sha256: str,
                 records: list = None):
        self.command, self.corpus_version = command, corpus_version
        self.corpus_sha256 = corpus_sha256
        self.records = [] if records is None else records

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "undecided": 0, "unchecked-claim": 0}
        for r in self.records:
            counts[r.status] += 1
        return counts

    @property
    def exit_code(self) -> int:
        """1 when any record failed or is undecided; unchecked claims exit 0."""
        s = self.summary
        return 1 if s["fail"] or s["undecided"] else 0

    def to_dict(self, no_timings: bool = False) -> dict:
        recs = []
        for r in sorted(self.records, key=lambda r: r.id):
            d = r._asdict()
            if no_timings:
                d["runtime_ms"] = 0
            recs.append(d)
        return {
            "command": self.command,
            "corpus_version": self.corpus_version,
            "corpus_sha256": self.corpus_sha256,
            "records": recs,
            "summary": self.summary,
        }

    def to_json(self, no_timings: bool = False) -> str:
        return json.dumps(self.to_dict(no_timings), indent=1, sort_keys=True) + "\n"


def _print_report(report: RunReport) -> None:
    width = max((len(r.id) for r in report.records), default=10)
    for r in sorted(report.records, key=lambda r: r.id):
        print(f"{r.id:<{width}}  {r.status:<15} {r.expected}  => {r.actual}")
    s = report.summary
    print(f"summary: {s['pass']} pass, {s['fail']} fail, {s['undecided']} "
          f"undecided, {s['unchecked-claim']} unchecked claims")


def _exit_2_if_refused(work, *args, **kwargs):
    """work(*args, **kwargs); a request it refuses (ValueError) exits 2."""
    try:
        return work(*args, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_verify_lemma(args, corpus) -> RunReport:
    report = RunReport("verify-lemma", corpus.version, corpus.sha256)
    fams = corpus.families
    if args.family is not None:
        fams = [f for f in fams if f.id == args.family]
        if not fams:
            print(f"error: no family matches {args.family!r}", file=sys.stderr)
            raise SystemExit(2)
    for fam in fams:
        for b in range(len(fam.branches)):
            report.records.append(timed_check(
                f"lemma:{fam.id}:branch{b}:identity",
                f"{fam.equation} holds as a form identity",
                lambda fam=fam, b=b: (parametrize.param_verify_identity(fam, b),
                                      "expanded and re-derived"),
            ))
        if args.bound > 0:
            def cover(fam=fam):
                rep = _exit_2_if_refused(parametrize.param_cover_check, fam, args.bound)
                detail = (f"{rep.matched}/{rep.solutions_found} matched"
                          + (f", {len(rep.via_doubled_forms)} via doubled forms"
                             if rep.via_doubled_forms else ""))
                return not rep.unmatched, detail
            report.records.append(timed_check(
                f"lemma:{fam.id}:cover{args.bound}",
                f"0 unmatched solutions up to {args.bound}", cover))
    return report


# The options each search mode reads, with their defaults.  The parser
# defaults them all to None, so an option given to a mode that does not read
# it is told apart from an unset one, and refused.
SEARCH_MODES = {
    "theorem3": {"bound_sq": 10**4, "bound_cu": 10**3, "vector": None, "no_sieve": False},
    "cubic-twin": {"bound": 500},
    "general": {"k": 4, "L": 2, "bound": 500, "D": 1, "eta": None, "vector": None,
                "no_sieve": False, "limit": 50},
}
_SEARCH_OPTIONS = list(dict.fromkeys(name for reads in SEARCH_MODES.values() for name in reads))


def _read_search_options(args) -> None:
    """Fill in the defaults of the options args.mode reads; an option that
    only another mode reads is a usage error (exit 2)."""
    reads = SEARCH_MODES[args.mode]
    foreign = [name for name in _SEARCH_OPTIONS
               if name not in reads and getattr(args, name) is not None]
    if foreign:
        flags = ", ".join("--" + name.replace("_", "-") for name in foreign)
        print(f"error: the {args.mode} search does not read {flags}", file=sys.stderr)
        raise SystemExit(2)
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def cmd_search(args, corpus) -> RunReport:
    from . import searcher

    _read_search_options(args)
    report = RunReport("search", corpus.version, corpus.sha256)
    jobs = args.jobs or os.cpu_count() or 1
    if args.mode == "cubic-twin":
        def twin():
            sols = _exit_2_if_refused(searcher.search_cubic_twin, args.bound, jobs=jobs)
            return sols == [(-1, -1, -1), (1, 1, 1)], sols
        report.records.append(timed_check(
            f"search:cubic-twin:{args.bound}",
            "x^3 + y^3 = 2z^3 has only +-(1,1,1)", twin))
        return report
    if args.mode == "theorem3":
        vectors = [args.vector] if args.vector else None
        def th3():
            progs = _exit_2_if_refused(
                searcher.search_theorem3, args.bound_sq, args.bound_cu,
                vectors=vectors, use_sieve=not args.no_sieve, jobs=jobs)
            vals = sorted(set(p.values for p in progs))
            return vals in ([(1, 1, 1, 1)],
                            [(-1, -1, -1, -1), (1, 1, 1, 1)]), vals
        report.records.append(timed_check(
            f"search:theorem3:sq{args.bound_sq}:cu{args.bound_cu}",
            "only +-(1,1,1,1) among square/cube 4-term progressions", th3))
        return report
    # general search: report what was found (no pass/fail expectation)
    vectors = [args.vector] if args.vector else None
    progs = _exit_2_if_refused(
        searcher.search_general, args.k, args.L, args.bound, D=args.D,
        S=tuple(args.eta or ()), vectors=vectors,
        use_sieve=not args.no_sieve, jobs=jobs)
    for p in progs[: args.limit]:
        report.records.append(CheckResult(
            f"search:hit:{p.exponents}:{p.values[:2]}",
            "pass", "progression", f"values {p.values} etas "
            f"{tuple(t.eta for t in p.terms)}"))
    report.records.append(CheckResult(
        f"search:general:k{args.k}:L{args.L}:b{args.bound}", "pass",
        "enumeration complete", f"{len(progs)} progressions"))
    return report


def cmd_cases(args, corpus) -> RunReport:
    report = RunReport("cases", corpus.version, corpus.sha256)
    cases = corpus.cases
    if args.case is not None:
        cases = [c for c in corpus.cases if c.matches(args.case)]
        if not cases:
            print(f"error: no case matches {args.case!r}", file=sys.stderr)
            raise SystemExit(2)
    for case in cases:
        report.records.extend(curvelab.run_case(
            case, height=args.height, local_primes=args.local_primes))
    if args.case is None:
        report.records.append(timed_check(
            "cases:remark-families",
            "both infinite families are APs identically",
            lambda: (parametrize.verify_remark_families(), "symbolic + spot checks")))
    return report


def cmd_genus(args, corpus) -> RunReport:
    from . import genus

    def classify(k, vec):
        # The paper's statement: for k = 3 the chi trichotomy; for k = 4
        # genus >= 2 unless every exponent is 2; for k = 5 always.
        got = genus.rh_genus_bound(k, vec)
        if k == 3:
            at_least_2 = genus.chi_classify(*vec) == genus.GENUS_GT1
        else:
            at_least_2 = k == 5 or vec != (2, 2, 2, 2)
        return (got == genus.GENUS_AT_LEAST_2) == at_least_2, got

    report = RunReport("genus", corpus.version, corpus.sha256)
    if args.chi:
        if args.k not in (None, 3):
            print(f"error: --chi is the k = 3 trichotomy, not --k {args.k}", file=sys.stderr)
            raise SystemExit(2)
        vec = tuple(args.chi)
        report.records.append(timed_check(
            f"genus:chi:{','.join(map(str, vec))}", "trichotomy on 1/r+1/s+1/t",
            lambda: (classify(3, vec)[0], genus.chi_classify(*vec))))
        return report
    k = args.k or 4
    if args.scan_L:
        vectors = product(range(2, args.scan_L + 1), repeat=k)
    else:
        if not args.l or len(args.l) != k:
            print("error: need --l with k entries or --scan-L", file=sys.stderr)
            raise SystemExit(2)
        vectors = [tuple(args.l)]
    for vec in vectors:
        report.records.append(timed_check(
            f"genus:k{k}:{','.join(map(str, vec))}",
            "ramification classification", lambda vec=vec: classify(k, vec)))
    return report


def _int_at_least(low: int):
    """argparse type: an int no smaller than low (a usage error, exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's name for a non-integer value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _prime(text: str) -> int:
    """argparse type: an S-unit prime for the twists, at most the twist cap."""
    from . import searcher

    value = int(text)
    if value > searcher.ETA_CAP or not is_prime(value):
        raise argparse.ArgumentTypeError(
            f"must be a prime up to {searcher.ETA_CAP}, got {value}")
    return value


_prime.__name__ = "prime"  # argparse's name for a non-integer value


def _exponent_vector(text: str) -> tuple:
    """argparse type: an exponent vector as digits, each at least 2."""
    if not text or not set(text) <= set("23456789"):
        raise argparse.ArgumentTypeError(
            f"must be digits from 2 to 9, e.g. 2223, got {text!r}")
    return tuple(int(c) for c in text)


def _report_path(text: str) -> str:
    """argparse type: a report path in an existing directory, and not a
    directory itself, checked before any work is done."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(text))):
        raise argparse.ArgumentTypeError(f"no directory for {text!r}")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apforge",
        description="verification and search toolkit for arithmetic "
                    "progressions of unlike perfect powers")
    parser.add_argument("--corpus", help="path to a corpus file "
                        f"(or ${corpus_mod.ENV_VAR})")
    parser.add_argument("--report", type=_report_path,
                        help="write a JSON report here")
    parser.add_argument("--no-timings", action="store_true",
                        help="zero runtimes in the report (byte-stable output)")
    parser.add_argument("--jobs", type=_nonnegative_int, default=0,
                        help="worker processes of a search (default: all cores; "
                             "at most os.cpu_count()); a search starts them only "
                             "when it outlasts a 0.3 s head start in one process, "
                             "which costs a long search about 0.3 s; cases, "
                             "verify-lemma and genus run in one process")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemma", help="parametrization identities + cover")
    p.add_argument("--family", help="restrict to one family id (i..viii)")
    p.add_argument("--bound", type=_nonnegative_int, default=200,
                   help="cover-check bound (0 = identities only)")
    p.set_defaults(fn=cmd_verify_lemma)

    p = sub.add_parser("search", help="progression searches",
                       description="One search mode, the general search unless "
                                   "a mode flag is given; an option the mode "
                                   "does not read is a usage error.")
    mode = p.add_mutually_exclusive_group()
    for flag in ("--theorem3", "--cubic-twin"):
        mode.add_argument(flag, dest="mode", action="store_const", const=flag[2:])
    p.set_defaults(mode="general")
    p.add_argument("--bound-sq", type=_positive_int,
                   help="theorem3: square bound (default 10000)")
    p.add_argument("--bound-cu", type=_positive_int,
                   help="theorem3: cube bound (default 1000)")
    p.add_argument("--k", type=_int_at_least(3), help="general: terms (default 4)")
    p.add_argument("--L", type=_int_at_least(2),
                   help="general: largest exponent (default 2)")
    p.add_argument("--bound", type=_positive_int,
                   help="general and cubic-twin: search bound (default 500)")
    p.add_argument("--D", type=_positive_int,
                   help="general: bound on gcd(h0, h1) (default 1)")
    p.add_argument("--eta", type=_prime, nargs="*",
                   help="general: S-unit primes for the twists")
    p.add_argument("--vector", type=_exponent_vector,
                   help="theorem3 and general: exponent vector filter, e.g. 2223")
    p.add_argument("--no-sieve", action="store_true", default=None,
                   help="theorem3 and general: the unsieved oracle scan")
    p.add_argument("--limit", type=_nonnegative_int,
                   help="general: max hits echoed into the report (default 50)")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("cases", help="case derivations and facts")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every case (the default)")
    which.add_argument("--case", help="case id or exponent string, e.g. 3232")
    p.add_argument("--height", type=_positive_int, default=None,
                   help="override rational point search height")
    p.add_argument("--local-primes", type=_int_at_least(2), default=None,
                   help="override the local solvability prime bound")
    p.set_defaults(fn=cmd_cases)

    p = sub.add_parser("genus", help="genus classification")
    p.add_argument("--k", type=int, choices=(3, 4, 5), help="terms (default 4; --chi takes 3)")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--l", type=_int_at_least(2), nargs="*")
    which.add_argument("--scan-L", type=_int_at_least(2), default=0)
    which.add_argument("--chi", type=_int_at_least(2), nargs=3)
    p.set_defaults(fn=cmd_genus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        corpus = corpus_mod.load_corpus(args.corpus)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load corpus: {exc}", file=sys.stderr)
        return 2
    try:
        report = args.fn(args, corpus)
    except ResourceLimitError as exc:
        print(f"error: resource ceiling: {exc}", file=sys.stderr)
        return 3
    _print_report(report)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json(no_timings=args.no_timings))
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    return report.exit_code


def run() -> int:
    """The process entry, of `python -m apforge.cli` and the `apforge`
    script: main(sys.argv[1:]) after gc.freeze().  The objects alive by then
    (the interpreter's, numpy's, apforge's) live until exit, so no later
    collection walks them, not even the full collections the interpreter
    runs at exit whether or not the collector is enabled."""
    gc.freeze()
    return main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(run())
