"""Run one cfk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload invariants-sums --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in this one process and thread as a closed loop with a
single client.  A pass is the workload's fixed list of queries, drawn from
the seed; one pass runs, and more while another one fits in ``--seconds``.
Every output is checked after its pass, outside the timed region.

Other programs on the machine change its speed by up to about 1.8x for
seconds to minutes at a time, so every time is also taken *scaled*: divided
by the time of a fixed reference computation run right beside it, and
multiplied by that computation's time on a quiet core (see
``reference.py``).  The metrics are scaled seconds.  ``wall_s`` is the
median pass time; the latency percentiles are taken over each query's
median time across the passes; ``setup_s`` is the median cold start plus
the median set-up, of ``SETUP_REPEATS`` each.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes one untraced pass, then repeats set-up and one pass with every
layer of ``cfk`` wrapped from outside (see ``tracer.py``), reports per-layer
metrics and writes the spans to ``.perfbench/`` at the root of the checkout.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``CFK_CACHE_DIR`` is cleared, and cache directories live under
``.perfbench/`` and are removed when the run ends.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 5
CFK_MODULES = ("cfk", "cfk.f2linalg", "cfk.complexes", "cfk.upsilon", "cfk.upsilon2", "cfk.cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "peak_rss_mb": "MB",
}


def import_cfk() -> None:
    """Import cfk from this checkout's ``src/`` only; exit 1 if it is missing."""
    src = ROOT / "src"
    if not (src / "cfk" / "__init__.py").is_file():
        sys.exit(f"error: no cfk package under {src}")
    sys.path.insert(0, str(src))
    for name in CFK_MODULES:
        importlib.import_module(name)


def isolate_environment() -> None:
    """Forget an ambient report cache, which would turn misses into hits."""
    os.environ.pop("CFK_CACHE_DIR", None)


@dataclass
class Pass:
    latencies: list[float]                  # seconds as measured
    scaled: list[float]                     # seconds at the nominal speed
    failures: list[tuple[int, str]] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def run_pass(workload, tracer=None) -> Pass:
    """One closed-loop pass over the workload's queries, then its checks.

    The reference kernel runs before the first query and after every
    segment of queries that took ``reference.SEGMENT_S`` or more; each
    query is scaled by the two kernel times around its segment.
    """
    ctx = {"cache_dir": tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)}
    try:
        latencies, scaled, outputs, segment = [], [], [], []
        before = reference.kernel_seconds()
        for i, query in enumerate(workload.queries):
            if tracer is not None:
                tracer.query = i
            t = time.perf_counter()
            try:
                outputs.append((workload.run(query, ctx), None))
            except Exception as exc:  # a failed query never aborts the run
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - t)
            segment.append(latencies[-1])
            if sum(segment) >= reference.SEGMENT_S or i == len(workload.queries) - 1:
                after = reference.kernel_seconds()
                scaled += [reference.scale(x, before, after) for x in segment]
                before, segment = after, []
        done = Pass(latencies, scaled, outputs=outputs)
        for i, (query, (output, error)) in enumerate(zip(workload.queries, outputs)):
            if error is None:
                try:
                    error = workload.check(query, output, ctx)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                done.failures.append((i, error))
        return done
    finally:
        shutil.rmtree(ctx["cache_dir"], ignore_errors=True)


def timed(fn):
    """``fn()``'s result with its seconds, measured and scaled."""
    before = reference.kernel_seconds()
    t = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t
    return result, elapsed, reference.scale(elapsed, before, reference.kernel_seconds())


def new_workload(name: str, seed: int):
    """Build and set up a workload; returns it with its set-up seconds."""
    import workloads

    def build():
        workload = workloads.make(name, seed)
        workload.setup()
        return workload

    workload, elapsed, scaled = timed(build)
    if hasattr(workload, "check_setup"):
        workload.check_setup()
    return workload, elapsed, scaled


def cold_start() -> tuple[float, float]:
    """Seconds, measured and scaled, for a fresh interpreter to import ``cfk.cli``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    _, elapsed, scaled = timed(lambda: subprocess.run(
        [sys.executable, "-c", "import cfk.cli"], env=env, check=True))
    return elapsed, scaled


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(args) -> tuple[dict, list[Pass]]:
    starts = [cold_start() for _ in range(SETUP_REPEATS)]
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        workload, *times = new_workload(args.workload, args.seed)
        setups.append(times)
    passes = []
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload))
        now = time.perf_counter()
        if now - begin + (now - t) > args.seconds:  # another pass would not fit
            break
    per_query = [statistics.median(p.scaled[i] for p in passes)
                 for i in range(len(workload.queries))]
    metrics = {
        "setup_s": statistics.median(s for _, s in starts) + statistics.median(s for _, s in setups),
        "wall_s": statistics.median(p.scaled_wall for p in passes),
        "query_p50_s": statistics.median(per_query),
        "query_p90_s": p90(per_query),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"passes of {len(workload.queries)} queries, measured (scaled) s: "
          + ", ".join(f"{p.wall:.3f} ({p.scaled_wall:.3f})" for p in passes))
    for label, pairs in (("cold starts", starts), ("set-ups", setups)):
        print(f"{label}, measured (scaled) s: "
              + ", ".join(f"{m:.4f} ({s:.4f})" for m, s in pairs))
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, passes


def per_layer(args) -> tuple[dict, list[Pass]]:
    import workloads
    from tracer import Tracer

    workload, *_ = new_workload(args.workload, args.seed)
    plain = run_pass(workload)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.query = "setup"
        workload, setup_wall, _ = new_workload(args.workload, args.seed)
        traced = run_pass(workload, tracer)
    finally:
        tracer.uninstall()

    own = tracer.self_times()
    total = setup_wall + traced.wall
    hits = tracer.queries_without("cli.run", "upsilon")
    cli_calls = tracer.calls("cli.run")
    hit_lat = [plain.latencies[i] for i in hits]
    miss_lat = [x for i, x in enumerate(plain.latencies) if i not in hits]
    breakpoints = tracer.count("upsilon", "breakpoints")
    metrics = {
        "complexes.build_s": (own["complexes"], "s"),
        "complexes.build_share": (own["complexes"] / total, "ratio"),
        "upsilon.search_s": (own["upsilon"], "s"),
        "upsilon.search_share": (own["upsilon"] / total, "ratio"),
        "upsilon.calls": (tracer.calls("upsilon.upsilon"), "count"),
        "upsilon.echelons": (tracer.count("upsilon", "echelons"), "count"),
        "upsilon.echelons_per_breakpoint": (
            tracer.count("upsilon", "echelons") / breakpoints if breakpoints else 0.0, "ratio"),
        "upsilon2.gamma2_s": (own["upsilon2"], "s"),
        "upsilon2.gamma2_share": (own["upsilon2"] / total, "ratio"),
        "upsilon2.gamma2_calls": (tracer.calls("upsilon2.gamma2_at"), "count"),
        "upsilon2.echelon_adds": (tracer.count("upsilon2", "echelon_adds"), "count"),
        "upsilon2.matrix_builds": (tracer.count("upsilon2", "matrix_builds"), "count"),
        "f2linalg.echelons": (tracer.count(None, "echelons"), "count"),
        "f2linalg.echelon_adds": (tracer.count(None, "echelon_adds"), "count"),
        "f2linalg.matrix_builds": (tracer.count(None, "matrix_builds"), "count"),
        "cli.self_s": (own["cli"], "s"),
        "cli.self_share": (own["cli"] / total, "ratio"),
        "cli.cache_hit_ratio": (len(hits) / cli_calls if cli_calls else 0.0, "ratio"),
        "cli.hit_p50_s": (statistics.median(hit_lat) if hit_lat else 0.0, "s"),
        "cli.miss_p50_s": (statistics.median(miss_lat) if miss_lat and cli_calls else 0.0, "s"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
    }
    for name, value in workloads.input_counts(workload).items():
        metrics[name] = (value, "ratio" if name.endswith("share") else "count")

    out = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(tracer.to_json()))
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return metrics, [plain, traced]


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    import workloads

    status = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rate = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={rate:.4f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_cfk()
    if args.workload == "all":
        return run_all(args)
    isolate_environment()
    SCRATCH.mkdir(exist_ok=True)
    if args.trace:
        metrics, passes = per_layer(args)
    else:
        metrics, passes = end_to_end(args)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for i, error in failures[:10]:
        print(f"failed query {i}: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    print(f"{'error_rate':34s} {len(failures) / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
