"""Run one apforge command in this process, with spans around module calls.

    PYTHONPATH=src python3 perfbench/traced.py SPANS.json RUN_ID -- <apforge args>

Each public function named in `install` is replaced, in every loaded apforge
module that binds it, by a wrapper that records a span: name, start and end
(perf_counter_ns), the index of the enclosing span, the run id, the work the
call was given (computed from its arguments) and its outcome ("undecided"
when it raised Undecided, "radius_doubled" for a cover check that retried).
Spans stay in memory and are written to SPANS.json when the command returns.
The program's own code is not changed.

`searcher.search_theorem3` is split into one call per exponent vector, the
call `apforge search --theorem3 --vector` makes, so every vector gets a span;
the union of the per-vector results is returned in the full grid's order.
"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import product

from apforge import cli, corpus, curvelab, exactmath, numfield, parametrize, searcher

VECTORS = tuple(product((2, 3), repeat=4))


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def call(self, name, work, fn, args, kwargs, outcome=None):
        span = {"name": name, "start": 0, "end": 0,
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id}
        if work is not None:
            span["work"] = work
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except numfield.Undecided:
            span["outcome"] = "undecided"
            raise
        finally:
            span["end"] = time.perf_counter_ns()
            self.stack.pop()
        tag = outcome(result) if outcome else None
        if tag:
            span["outcome"] = tag
        return result


def patch(tracer, module, attr, name, work=None, outcome=None, body=None):
    """Wrap module.attr in every apforge module that binds the same object.

    `name` and `work` are strings/None or functions of the call's arguments;
    `body(original)` replaces what the span runs (used to split theorem3).
    """
    original = getattr(module, attr)
    run = body(original) if body else original

    def wrapper(*args, **kwargs):
        return tracer.call(name(*args, **kwargs) if callable(name) else name,
                           work(*args, **kwargs) if work else None,
                           run, args, kwargs, outcome)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "apforge" and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def vector_pairs(lvec, bound_squares, bound_cubes) -> int:
    """Product of the two smallest position-set sizes: squares take x >= 0,
    cubes take both signs."""
    sizes = sorted(bound_squares + 1 if l == 2 else 2 * bound_cubes + 1 for l in lvec)
    return sizes[0] * sizes[1]


def theorem3_pairs(bound_squares, bound_cubes, vectors=None, **_):
    return sum(vector_pairs(v, bound_squares, bound_cubes) for v in vectors or VECTORS)


def split_by_vector(tracer):
    def body(search):
        def per_vector(bound_squares, bound_cubes, vectors=None, **kwargs):
            progs = []
            for v in vectors or VECTORS:
                progs += tracer.call(
                    "searcher.vector." + "".join(map(str, v)),
                    vector_pairs(v, bound_squares, bound_cubes), search,
                    (bound_squares, bound_cubes), dict(kwargs, vectors=[v]))
            return sorted(progs, key=lambda p: (p.exponents, p.values))
        return per_vector
    return body


def count_points_name(curve, q):
    return "curvelab.count_points." + ("fp2" if math.isqrt(q) ** 2 == q else "fp")


def install(tracer: Tracer) -> None:
    patch(tracer, cli, "main", "cli.main")
    patch(tracer, corpus, "load_corpus", "corpus.load_corpus")
    patch(tracer, searcher, "search_theorem3", "searcher.search_theorem3",
          work=theorem3_pairs, body=split_by_vector(tracer))
    patch(tracer, searcher, "verify_remark_families", "searcher.verify_remark_families")
    patch(tracer, curvelab, "run_case",
          lambda case, *a, **k: f"curvelab.run_case.{case.id}")
    patch(tracer, curvelab, "derive_case", "curvelab.derive_case")
    patch(tracer, curvelab, "rational_points_search", "curvelab.rational_points_search",
          work=lambda curve, height: height * (2 * height + 1))
    patch(tracer, curvelab, "count_points", count_points_name,
          work=lambda curve, q: q)
    patch(tracer, curvelab, "jacobian_order", "curvelab.jacobian_order")
    patch(tracer, curvelab, "locally_solvable", "curvelab.locally_solvable")
    patch(tracer, parametrize, "param_verify_identity", "parametrize.param_verify_identity")
    patch(tracer, parametrize, "param_cover_check", "parametrize.param_cover_check",
          work=lambda family, bound: (bound + 1) ** 2,
          outcome=lambda rep: "radius_doubled" if rep.radius_doubled else None)
    patch(tracer, numfield, "nf_is_square", "numfield.nf_is_square")
    patch(tracer, numfield, "nf_norm", "numfield.nf_norm")
    patch(tracer, exactmath, "uni_resultant", "exactmath.uni_resultant")


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json RUN_ID -- <apforge args>")
    tracer = Tracer(run_id)
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
