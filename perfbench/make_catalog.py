"""Rebuild ``catalog.json``, the pools the workloads draw from.

    python3 perfbench/make_catalog.py [SECTION ...]

With section names (``invariants-sums``, ``stable-pairs``,
``cached-reports``) it rebuilds only those and keeps the others as they are.

Enumerates every connected sum of 2 or 3 torus knots T(p, q), q <= 40, with
at most 45 generators per factor, in every mirror pattern except the
all-mirrored one, and keeps the sums whose size class fits the workload:
150-400 generators, 50-200 candidate breakpoints, and a product of the two
between 8000 and 25000.  Each kept sum is then run twice through
``cfk invariants --no-timing``, each time scaled to the reference kernel's
nominal speed (``reference.py``), and the mean is stored in milliseconds:
the workload forms its strata from that column, so that every seed asks for
about the same work.  Plain times are no use here: the machine's speed
drifts by up to 1.8x over minutes, so sums timed in a slow stretch landed
in strata too high.  The whole script takes about twenty minutes.

For ``stable-pairs`` it lists every sum of 2 or 3 torus knots T(p, q),
q <= 20, with at most 40 generators per factor (so that Υ of each factor is
cheap to take in set-up), in every mirror pattern, with 500-639 generators
and at least 10 positive-jump singularities.  Each kept sum gets the cost of one
query in milliseconds: the mean over four of its positive-jump
singularities, spread evenly, of one ``upsilon2_at`` on the sum, each time
scaled to the reference kernel's nominal speed (``reference.py``).  The
workload forms its strata from that column.  This part takes about five
minutes.

For ``cached-reports`` it lists every sum of 1 to 3 torus knots T(p, q),
q <= 13, in every mirror pattern, with at most 60 generators, and its
candidate count.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time
from pathlib import Path

import knots
import reference
import workloads

CACHED_MAX_N = 60
STABLE_N_RANGE = (500, 640)
STABLE_MIN_POSITIVE = 10
N_RANGE = (150, 400)
CANDIDATE_RANGE = (50, 200)
WORK_RANGE = (8000, 25000)


def invariants_sums() -> list[list]:
    factors = [(p, q) for p, q in knots.small_torus_knots(40) if len(knots.staircase(p, q)) <= 45]
    rows = []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(factors, k):
            n = knots.generator_count([(1, p, q) for p, q in combo])
            if not N_RANGE[0] <= n <= N_RANGE[1]:
                continue
            patterns = set()
            for signs in itertools.product((1, -1), repeat=k):
                if all(s < 0 for s in signs):
                    continue
                patterns.add(tuple(sorted((p, q, s) for s, (p, q) in zip(signs, combo))))
            for pattern in sorted(patterns):
                sum_ = [(s, p, q) for p, q, s in pattern]
                c = knots.candidate_count(sum_)
                if (CANDIDATE_RANGE[0] <= c <= CANDIDATE_RANGE[1]
                        and WORK_RANGE[0] <= n * c <= WORK_RANGE[1]):
                    rows.append([knots.spell(sum_), n, c])
    return rows


def stable_pairs() -> list[list]:
    factors = [(p, q) for p, q in knots.small_torus_knots(20) if len(knots.staircase(p, q)) <= 40]
    rows = []
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(factors, k):
            n = knots.generator_count([(1, p, q) for p, q in combo])
            if not STABLE_N_RANGE[0] <= n < STABLE_N_RANGE[1]:
                continue
            patterns = {tuple(sorted((p, q, s) for s, (p, q) in zip(signs, combo)))
                        for signs in itertools.product((1, -1), repeat=k)}
            for pattern in sorted(patterns):
                sum_ = [(s, p, q) for p, q, s in pattern]
                positive = len(knots.positive_singularities(knots.upsilon_of_sum(sum_)))
                if positive >= STABLE_MIN_POSITIVE:
                    rows.append([knots.spell(sum_), n, positive])
    return rows


def cached_reports() -> list[list]:
    factors = knots.small_torus_knots(13)
    rows = []
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(factors, k):
            n = knots.generator_count([(1, p, q) for p, q in combo])
            if n > CACHED_MAX_N:
                continue
            patterns = {tuple(sorted((p, q, s) for s, (p, q) in zip(signs, combo)))
                        for signs in itertools.product((1, -1), repeat=k)}
            for pattern in sorted(patterns):
                sum_ = [(s, p, q) for p, q, s in pattern]
                rows.append([knots.spell(sum_), n, knots.candidate_count(sum_)])
    return rows


def timed(rows: list[list], repeats: int = 2) -> list[list]:
    """Append the scaled milliseconds of one ``cfk invariants`` call to each row.

    The mean of ``repeats`` calls, each scaled to the reference kernel's
    nominal speed (``reference.py``).
    """
    from cfk.cli import run

    for row in rows:
        total = 0.0
        for _ in range(repeats):
            before = reference.kernel_seconds()
            t = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                run(["invariants", row[0], "--no-timing"])
            elapsed = time.perf_counter() - t
            total += reference.scale(elapsed, before, reference.kernel_seconds())
        row.append(round(total / repeats * 1000, 1))
    return rows


def query_cost(rows: list[list], samples: int = 4) -> list[list]:
    """Append the scaled milliseconds of one ``stable-pairs`` query to each row."""
    from cfk.complexes import parse_knot_expression
    from cfk.upsilon2 import upsilon2_at

    staircase_ups = {}
    for row in rows:
        factors = knots.parse(row[0])
        knot = parse_knot_expression(row[0])
        ups = workloads.additive_upsilon(factors, staircase_ups)
        positive = knots.positive_singularities(knots.upsilon_of_sum(factors))
        total = 0.0
        for k in range(samples):
            t0 = positive[k * len(positive) // samples]
            before = reference.kernel_seconds()
            t = time.perf_counter()
            upsilon2_at(knot, t0, ups=ups)
            elapsed = time.perf_counter() - t
            total += reference.scale(elapsed, before, reference.kernel_seconds())
        row.append(round(total / samples * 1000, 1))
    return rows


SECTIONS = {
    "invariants-sums": lambda: timed(invariants_sums()),
    "stable-pairs": lambda: query_cost(stable_pairs()),
    "cached-reports": cached_reports,
}


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import cfk.cli  # noqa: F401  (workloads find cfk's modules in sys.modules)

    names = sys.argv[1:] or list(SECTIONS)
    unknown = set(names) - set(SECTIONS)
    if unknown:
        sys.exit(f"error: unknown section {', '.join(sorted(unknown))}")
    path = Path(__file__).resolve().parent / "catalog.json"
    catalog = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        catalog[name] = SECTIONS[name]()
    write(path, {name: catalog[name] for name in SECTIONS})


def write(path: Path, catalog: dict) -> None:
    text = json.dumps(catalog, separators=(",", ":"))
    path.write_text(text.replace("],[", "],\n[") + "\n")
    print(", ".join(f"{len(rows)} {name} sums" for name, rows in catalog.items()),
          f"written to {path.name}")


if __name__ == "__main__":
    main()
