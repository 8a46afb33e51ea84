"""The benchmark's trace harness still finds every name it wraps.

perfbench/traced.py patches apforge modules globally, so it runs in a
child process, never in this one.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

from apforge.corpus import load_corpus

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_traced_cases_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans_path), "t", "--",
         "cases", "--height", "20"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = collections.Counter(s["name"] for s in json.loads(spans_path.read_text()))
    for name in ("curvelab.count_points.fp", "curvelab.count_points.fp2",
                 "curvelab.jacobian_order", "curvelab.rational_points_search",
                 "curvelab.locally_solvable", "curvelab.derive_case"):
        assert names[name] > 0, name
    run_case = {n: c for n, c in names.items() if n.startswith("curvelab.run_case.")}
    assert run_case == {f"curvelab.run_case.{c.id}": 1 for c in load_corpus().cases}
