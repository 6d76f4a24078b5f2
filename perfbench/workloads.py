"""The three workloads: seeded inputs, one query each, and output checks.

Every workload is a closed loop with a single client: the benchmark issues
the next query only after the previous one returned.  A workload object is
built by :func:`make`; ``setup()`` draws the inputs from the seed (and, for
``stable-pairs``, builds the complexes), ``run(query, ctx)`` is the timed
call into ``cfk``, and ``check(query, output, ctx)`` returns an error message
or ``None``.  ``ctx`` is a per-pass dict (cache directory, outputs seen).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import knots

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
NAMES = ("invariants-sums", "stable-pairs", "cached-reports")


@dataclass(frozen=True)
class Query:
    factors: tuple            # signed factors (sign, p, q) as spelled
    text: str = ""            # the expression handed to the CLI
    t0: Fraction | None = None
    pair: int = -1            # index of the complex pair (stable-pairs)


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def _spelling(rng: random.Random, factors) -> tuple:
    """Same knot, another spelling: factor order shuffled, p and q maybe swapped."""
    out = [(s, q, p) if rng.random() < 0.5 else (s, p, q) for s, p, q in factors]
    rng.shuffle(out)
    return tuple(out)


def _stratified(rng: random.Random, section: str, key, count: int) -> list[list]:
    """One catalogue row from each of ``count`` equal strata by ``key(row)``."""
    rows = json.loads((HERE / "catalog.json").read_text())[section]
    rows.sort(key=lambda row: (key(row), row[0]))
    bounds = [len(rows) * k // count for k in range(count + 1)]
    return [rows[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


class _CliWorkload:
    """Shared by the two workloads that call ``cfk.cli.run``."""

    cache = False
    digest_table = "reports"

    def __init__(self, seed: int):
        self.seed = seed
        self.digests = load_digests().get(self.digest_table, {})
        self.queries: list[Query] = []

    def run(self, query: Query, ctx: dict):
        argv = ["invariants", query.text, "--no-timing"]
        if self.cache:
            argv += ["--cache", ctx["cache_dir"]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sys.modules["cfk.cli"].run(argv)
        return code, buf.getvalue()

    def check(self, query: Query, output, ctx: dict) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        factors = query.factors
        expected = {knots.canonical(factors), knots.canonical(knots.drop_unknots(factors))}
        if report["expression"] not in expected:
            return f"expression {report['expression']!r} is not the canonical form"
        if report["generator_count"] != knots.generator_count(factors):
            return "generator count differs from the staircase product"
        ups = knots.upsilon_of_sum(factors)
        if report["upsilon"]["breakpoints"] != [[str(t), str(v)] for t, v in ups]:
            return "upsilon differs from the closed-form oracle"
        sings = knots.singularities(ups)
        got = [(e["t"], e["slope_jump"], e["upsilon2"] is not None)
               for e in report["singularities"]]
        if got != [(str(t), str(j), j > 0) for t, j in sings]:
            return "singularities differ from the oracle"
        seen = ctx.setdefault("bytes", {})
        if seen.setdefault(report["expression"], text) != text:
            return "report bytes differ between two queries of one knot"
        want = self.digests.get(report["expression"])
        if want is not None and want != digest(text):
            return "report bytes differ from the recorded digest"
        return None

    def record(self, query: Query, output) -> tuple[str, str]:
        text = output[1]
        return json.loads(text)["expression"], digest(text)


class InvariantsSums(_CliWorkload):
    """``cfk invariants EXPR --no-timing`` on connected sums, cache off.

    EXPR comes from ``catalog.json``: sums of 2-3 torus knots (some
    mirrored) with 150-400 generators whose Υ search is of moderate size.
    The catalogue is split into equal strata by the time each sum took when
    the catalogue was built, and each seed draws one sum per stratum, so
    every seed asks for about the same amount of work.
    """

    name = "invariants-sums"
    per_pass = 30

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.queries = []
        for row in _stratified(rng, "invariants-sums", lambda row: row[3], self.per_pass):
            factors = _spelling(rng, knots.parse(row[0]))
            self.queries.append(Query(factors, knots.spell(factors)))
        rng.shuffle(self.queries)


class CachedReports(_CliWorkload):
    """``cfk invariants EXPR --no-timing --cache DIR`` over a Zipf stream.

    The pool is one sum from each of ``pool_size`` strata, by generators ×
    candidate breakpoints, of every small sum in ``catalog.json`` (at most
    60 generators), in a random order of popularity.  The stream asks for
    each pool sum once, for every ``variant_every``-th sum by cost once more
    with an added unknot factor T(1,n), and draws the rest from a Zipf law
    over the popularity order; then it is shuffled.  So the misses are the
    pool and the unknot variants, whose work is about the same for every
    seed.  A third of the queries are respelled (reordered factors, swapped
    p/q), which keeps their canonical form: a hit.  An unknot variant has a
    canonical form of its own today: a miss.  Each pass starts with an
    empty cache.
    """

    name = "cached-reports"
    cache = True
    pool_size = 150
    variant_every = 5
    stream = 600
    zipf_s = 0.9

    def setup(self) -> None:
        rng = random.Random(self.seed)
        pool = [knots.parse(row[0]) for row in
                _stratified(rng, "cached-reports", lambda row: row[1] * row[2], self.pool_size)]
        stream = [pool[i] + ((1, 1, rng.randrange(2, 4)),)
                  for i in range(0, self.pool_size, self.variant_every)]
        rng.shuffle(pool)
        stream += pool
        weights = [1 / (r + 1) ** self.zipf_s for r in range(self.pool_size)]
        stream += rng.choices(pool, weights, k=self.stream - len(stream))
        rng.shuffle(stream)
        self.queries = []
        for factors in stream:
            if rng.random() < 1 / 3 or len(factors) > len(knots.drop_unknots(factors)):
                factors = _spelling(rng, factors)
            self.queries.append(Query(factors, knots.spell(factors)))


class StablePairs:
    """Υ₂ of K and of K ⊕ acyclic boxes at positive-jump singularities.

    Each seed draws ``sums`` connected sums from ``catalog.json`` (500-639
    generators, at least 10 positive-jump singularities), one from each of
    ``sums`` equal strata by the measured cost of one query on the sum, and
    queries ``per_sum`` of those singularities.  A sum's queries cost about
    the same, so cost strata, many sums and few queries per sum keep the
    slowest tenth of a pass, and with it ``query_p90_s``, alike across seeds.
    Set-up builds K and K ⊕ 2-4 boxes and takes Υ from additivity (factor
    staircases, negated for mirrors, summed).  A query evaluates
    ``upsilon2_at`` on both complexes at one singularity; stable equivalence
    requires equal values.
    """

    name = "stable-pairs"
    digest_table = "upsilon2"
    sums = 50
    per_sum = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.digests = load_digests().get(self.digest_table, {})
        self.queries: list[Query] = []
        self.pairs: list[tuple] = []  # (factors, K, K ⊕ boxes, Υ)
        self.setup_errors: dict[int, str] = {}

    def setup(self) -> None:
        rng = random.Random(self.seed)
        cfk_complexes = sys.modules["cfk.complexes"]
        self.pairs, self.queries = [], []
        staircase_ups = {}
        for k, row in enumerate(_stratified(rng, "stable-pairs", lambda row: row[3], self.sums)):
            factors = _spelling(rng, knots.parse(row[0]))
            knot = cfk_complexes.parse_knot_expression(knots.spell(factors))
            boxed = knot
            for _ in range(rng.randint(2, 4)):
                g = rng.choice(knot.generators)
                boxed = cfk_complexes.direct_sum_with_box(
                    boxed, g.alg + rng.randint(0, 1), g.alex + rng.randint(0, 1),
                    rng.randint(1, 3), rng.randint(1, 3), g.maslov + rng.randint(0, 1))
            self.pairs.append((factors, knot, boxed, additive_upsilon(factors, staircase_ups)))
            positive = knots.positive_singularities(knots.upsilon_of_sum(factors))
            for t0 in sorted(rng.sample(positive, self.per_sum)):
                self.queries.append(Query(factors, t0=t0, pair=k))
        rng.shuffle(self.queries)

    def check_setup(self) -> None:
        """Compare each additivity Υ with the oracle; a mismatch fails its queries."""
        self.setup_errors = {}
        for k, (factors, _, _, ups) in enumerate(self.pairs):
            if tuple(ups.breakpoints) != knots.upsilon_of_sum(factors):
                self.setup_errors[k] = "additivity upsilon differs from the closed-form oracle"

    def run(self, query: Query, ctx: dict):
        upsilon2_at = sys.modules["cfk.upsilon2"].upsilon2_at
        _, knot, boxed, ups = self.pairs[query.pair]
        return upsilon2_at(knot, query.t0, ups=ups), upsilon2_at(boxed, query.t0, ups=ups)

    def _key(self, query: Query) -> str:
        return f"{knots.canonical(query.factors)} @ {query.t0}"

    def check(self, query: Query, output, ctx: dict) -> str | None:
        if query.pair in self.setup_errors:
            return self.setup_errors[query.pair]
        plain, boxed = output
        if plain != boxed:
            return f"upsilon2 {plain} of K differs from {boxed} of K plus boxes"
        want = self.digests.get(self._key(query))
        if want is not None and want != digest(str(plain)):
            return "upsilon2 differs from the recorded digest"
        return None

    def record(self, query: Query, output) -> tuple[str, str]:
        return self._key(query), digest(str(output[0]))


def additive_upsilon(factors, staircase_ups: dict):
    """Υ of a sum from ``cfk``'s Υ of each factor staircase, negated for mirrors.

    ``staircase_ups`` caches the factor values by (p, q) across calls.
    """
    cfk_complexes, cfk_upsilon = sys.modules["cfk.complexes"], sys.modules["cfk.upsilon"]
    ups = None
    for sign, p, q in factors:
        key = (min(p, q), max(p, q))
        if key not in staircase_ups:
            staircase_ups[key] = cfk_upsilon.upsilon(cfk_complexes.torus_knot_complex(*key))
        part = staircase_ups[key] if sign > 0 else -staircase_ups[key]
        ups = part if ups is None else ups + part
    return ups


def make(name: str, seed: int):
    cls = {w.name: w for w in (InvariantsSums, StablePairs, CachedReports)}[name]
    return cls(seed)


def input_counts(workload) -> dict[str, float]:
    """Deterministic size counts of one pass's inputs, from the oracle."""
    queries = workload.queries
    if isinstance(workload, StablePairs):
        sums = [pair[0] for pair in workload.pairs]
    else:
        sums = [q.factors for q in queries]
    gens = [knots.generator_count(f) for f in sums]
    ups = [knots.upsilon_of_sum(f) for f in sums]
    seen, repeats = set(), 0
    for q in queries:
        key = knots.canonical(knots.drop_unknots(q.factors))
        repeats += key in seen
        seen.add(key)
    return {
        "input.queries": len(queries),
        "input.generators_max": max(gens),
        "input.generators_total": sum(gens),
        "input.candidates": sum(knots.candidate_count(f) for f in sums),
        "input.breakpoints": sum(len(u) for u in ups),
        "input.positive_singularities": sum(len(knots.positive_singularities(u)) for u in ups),
        "input.repeat_share": repeats / len(queries),
    }

