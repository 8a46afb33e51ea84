"""Command-line entry point: verifications, searches, and reports.

Subcommands
  verify-lemma   parametrization identities and bounded cover checks
  search         progression searches (theorem-3 grid, general, cubic twin)
  cases          per-case derivations and fact checks, plus the two
                 infinite-family identities
  genus          ramification/chi genus classification

Exit codes: 0 all pass, 1 any failure, 2 usage error, 3 resource ceiling.
A machine-readable report goes to --report; records are canonically ordered
so reports are byte-identical across runs (pass --no-timings to zero the
per-record runtimes, which are the only volatile field).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from . import corpus as corpus_mod
from . import curvelab, genus, parametrize, searcher
from .curvelab import CheckResult, timed_check


@dataclass
class RunReport:
    command: str
    corpus_version: str
    corpus_sha256: str
    records: list = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "undecided": 0, "unchecked-claim": 0}
        for r in self.records:
            counts[r.status] += 1
        return counts

    @property
    def exit_code(self) -> int:
        return 1 if self.summary["fail"] else 0

    def to_dict(self, no_timings: bool = False) -> dict:
        recs = []
        for r in sorted(self.records, key=lambda r: r.id):
            d = asdict(r)
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


def cmd_verify_lemma(args, corpus) -> RunReport:
    report = RunReport("verify-lemma", corpus.version, corpus.sha256)
    fams = corpus.families
    if args.family:
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
                try:
                    rep = parametrize.param_cover_check(fam, args.bound)
                except ValueError as exc:  # bound beyond the int64 grid
                    print(f"error: {exc}", file=sys.stderr)
                    raise SystemExit(2)
                detail = (f"{rep.matched}/{rep.solutions_found} matched"
                          + (f", {len(rep.via_doubled_forms)} via doubled forms"
                             if rep.via_doubled_forms else ""))
                return not rep.unmatched, detail
            report.records.append(timed_check(
                f"lemma:{fam.id}:cover{args.bound}",
                f"0 unmatched solutions up to {args.bound}", cover))
    return report


def cmd_search(args, corpus) -> RunReport:
    report = RunReport("search", corpus.version, corpus.sha256)
    jobs = args.jobs or os.cpu_count() or 1
    if args.cubic_twin:
        def twin():
            sols = searcher.search_cubic_twin(args.bound)
            return sols == [(-1, -1, -1), (1, 1, 1)], sols
        report.records.append(timed_check(
            f"search:cubic-twin:{args.bound}",
            "x^3 + y^3 = 2z^3 has only +-(1,1,1)", twin))
        return report
    if args.remark_families:
        report.records.append(timed_check(
            "search:remark-families",
            "both infinite families are APs identically",
            lambda: (searcher.verify_remark_families(), "symbolic + spot checks")))
        return report
    if args.theorem3:
        vectors = [tuple(int(c) for c in args.vector)] if args.vector else None
        def th3():
            progs = searcher.search_theorem3(
                args.bound_sq, args.bound_cu, vectors=vectors,
                use_sieve=not args.no_sieve, jobs=jobs)
            vals = sorted(set(p.values for p in progs))
            return vals in ([(1, 1, 1, 1)],
                            [(-1, -1, -1, -1), (1, 1, 1, 1)]), vals
        report.records.append(timed_check(
            f"search:theorem3:sq{args.bound_sq}:cu{args.bound_cu}",
            "only +-(1,1,1,1) among square/cube 4-term progressions", th3))
        return report
    # general search: report what was found (no pass/fail expectation)
    etas = tuple(int(p) for p in args.eta) if args.eta else ()
    vectors = [tuple(int(c) for c in args.vector)] if args.vector else None
    progs = searcher.search_general(
        args.k, args.L, args.bound, D=args.D, S=etas, vectors=vectors,
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
    if args.case:
        cases = [c for c in corpus.cases if c.matches(args.case)]
        if not cases:
            print(f"error: no case matches {args.case!r}", file=sys.stderr)
            raise SystemExit(2)
    for case in cases:
        report.records.extend(curvelab.run_case(
            case, height=args.height, local_primes=args.local_primes))
    if not args.case:
        report.records.append(timed_check(
            "cases:remark-families",
            "both infinite families are APs identically",
            lambda: (searcher.verify_remark_families(), "symbolic + spot checks")))
    return report


def cmd_genus(args, corpus) -> RunReport:
    report = RunReport("genus", corpus.version, corpus.sha256)
    if args.chi:
        r, s, t = args.chi
        got = genus.chi_classify(r, s, t)
        report.records.append(CheckResult(
            f"genus:chi:{r},{s},{t}", "pass", "trichotomy on 1/r+1/s+1/t",
            str(got)))
        return report
    if args.scan_L:
        vectors = [()]
        for _ in range(args.k):
            vectors = [v + (l,) for v in vectors for l in range(2, args.scan_L + 1)]
    else:
        if not args.l or len(args.l) != args.k:
            print("error: need --l with k entries or --scan-L", file=sys.stderr)
            raise SystemExit(2)
        vectors = [tuple(args.l)]
    for vec in vectors:
        def classify(vec=vec):
            got = genus.rh_genus_bound(args.k, vec)
            if args.k == 3:
                chi = genus.chi_classify(*vec)
                agree = ((got == genus.GENUS_AT_LEAST_2)
                         == (chi == genus.GENUS_GT1))
                return agree, got
            return True, got
        report.records.append(timed_check(
            f"genus:k{args.k}:{','.join(str(l) for l in vec)}",
            "ramification classification", classify))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apforge",
        description="verification and search toolkit for arithmetic "
                    "progressions of unlike perfect powers")
    parser.add_argument("--corpus", help="path to a corpus file "
                        f"(or ${corpus_mod.ENV_VAR})")
    parser.add_argument("--report", help="write a JSON report here")
    parser.add_argument("--no-timings", action="store_true",
                        help="zero runtimes in the report (byte-stable output)")
    parser.add_argument("--jobs", type=_nonnegative_int, default=0,
                        help="worker processes (default: all cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-lemma", help="parametrization identities + cover")
    p.add_argument("--family", help="restrict to one family id (i..viii)")
    p.add_argument("--bound", type=_nonnegative_int, default=200,
                   help="cover-check bound (0 = identities only)")
    p.set_defaults(fn=cmd_verify_lemma)

    p = sub.add_parser("search", help="progression searches")
    p.add_argument("--theorem3", action="store_true")
    p.add_argument("--bound-sq", type=_positive_int, default=10**4)
    p.add_argument("--bound-cu", type=_positive_int, default=10**3)
    p.add_argument("--cubic-twin", action="store_true")
    p.add_argument("--remark-families", action="store_true")
    p.add_argument("--k", type=_int_at_least(3), default=4)
    p.add_argument("--L", type=_int_at_least(2), default=2)
    p.add_argument("--bound", type=_positive_int, default=500)
    p.add_argument("--D", type=_positive_int, default=1)
    p.add_argument("--eta", nargs="*", help="S-unit primes for the twists")
    p.add_argument("--vector", help="exponent vector filter, e.g. 2223")
    p.add_argument("--no-sieve", action="store_true")
    p.add_argument("--limit", type=_nonnegative_int, default=50,
                   help="max hits echoed into the report")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("cases", help="case derivations and facts")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true",
                       help="run every case (the default)")
    which.add_argument("--case", help="case id or exponent string, e.g. 3232")
    p.add_argument("--height", type=_positive_int, default=None,
                   help="override rational point search height")
    p.add_argument("--local-primes", type=_positive_int, default=None,
                   help="override the local solvability prime bound")
    p.set_defaults(fn=cmd_cases)

    p = sub.add_parser("genus", help="genus classification")
    p.add_argument("--k", type=int, choices=(3, 4, 5), default=4)
    p.add_argument("--l", type=_int_at_least(2), nargs="*")
    p.add_argument("--scan-L", type=_int_at_least(2), default=0)
    p.add_argument("--chi", type=_int_at_least(2), nargs=3)
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
    except searcher.ResourceLimitError as exc:
        print(f"error: resource ceiling: {exc}", file=sys.stderr)
        return 3
    _print_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(no_timings=args.no_timings))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
