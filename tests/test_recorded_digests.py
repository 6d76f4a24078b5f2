"""Reports and Υ₂ values are byte-identical to the digests the benchmark recorded.

``perfbench/digests.json`` holds the sha256 prefix of each ``cfk invariants
EXPR --no-timing`` report, keyed by its canonical expression, and of each
Υ₂ value of the stable-pairs sums, keyed by ``EXPR @ t0``.  These tests only
read that file: they rerun the small reports and every Υ₂ value through the
package and compare digests.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from cfk import canonical_expression, parse_knot_expression
from cfk.cli import run
from cfk.upsilon2 import upsilon2_at
from oracles import expression_size

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text())

# reports above this many generators take seconds each and are left to the benchmark
MAX_GENERATORS = 60


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_small_reports_match_their_recorded_digests():
    # a key that is not canonical is never looked up by the benchmark either
    keys = [key for key in DIGESTS["reports"]
            if canonical_expression(key) == key and expression_size(key) <= MAX_GENERATORS]
    differing = []
    for key in keys:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["invariants", key, "--no-timing"]) == 0, key
        if digest(out.getvalue()) != DIGESTS["reports"][key]:
            differing.append(key)
    assert len(keys) == 150
    assert differing == []


def test_upsilon2_values_match_their_recorded_digests():
    differing = []
    for key, want in DIGESTS["upsilon2"].items():
        expression, t0 = key.split(" @ ")
        value = upsilon2_at(parse_knot_expression(expression), Fraction(t0))
        if digest(str(value)) != want:
            differing.append(key)
    assert len(DIGESTS["upsilon2"]) == 100
    assert differing == []
