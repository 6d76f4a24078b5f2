"""Failure accounting, environment isolation and tracing of the harness."""

import contextlib
import io

import _paths  # noqa: F401
import cfk.cli  # noqa: F401  (workloads find cfk's modules in sys.modules)
import run
import tracer
import workloads


class Flaky:
    """A stand-in workload whose second query raises and third is wrong."""

    queries = [1, 2, 3, 4]

    def run(self, query, ctx):
        if query == 2:
            raise RuntimeError("boom")
        return query

    def check(self, query, output, ctx):
        return "wrong" if query == 3 else None


def test_failed_queries_are_counted_and_do_not_abort(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    done = run.run_pass(Flaky())
    assert len(done.latencies) == 4
    assert len(done.scaled) == 4 and all(x > 0 for x in done.scaled)
    assert [i for i, _ in done.failures] == [1, 2]
    assert list(tmp_path.iterdir()) == []  # the pass's cache directory is gone


def test_wrong_upsilon_is_a_failure():
    w = workloads.make("invariants-sums", 1)
    q = workloads.Query(((1, 2, 5), (1, 5, 6)), "T(2,5) # T(5,6)")
    code, text = w.run(q, {})
    assert w.check(q, (code, text), {}) is None
    bad = text.replace('"-', '"+', 1)
    assert w.check(q, (code, bad), {}) is not None
    assert w.check(q, (2, text), {}) == "exit code 2"


def test_report_bytes_are_checked_against_digests_and_each_other():
    w = workloads.make("invariants-sums", 1)
    q = workloads.Query(((1, 2, 5), (1, 5, 6)), "T(2,5) # T(5,6)")
    code, text = w.run(q, {})
    ctx = {}
    assert w.check(q, (code, text), ctx) is None
    assert w.check(q, (code, text + " "), ctx) is not None  # same knot, other bytes
    w.digests = {"T(2,5) # T(5,6)": "0" * 16}
    assert "digest" in w.check(q, (code, text), {})


def test_tracer_records_layers_and_restores_the_package():
    import cfk.cli
    import cfk.f2linalg

    before = (cfk.cli.run, cfk.cli.upsilon, cfk.f2linalg.Echelon.add)
    t = tracer.Tracer()
    t.install()
    try:
        t.query = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cfk.cli.run(["invariants", "T(2,5) # T(5,6)", "--no-timing"]) == 0
    finally:
        t.uninstall()
    assert (cfk.cli.run, cfk.cli.upsilon, cfk.f2linalg.Echelon.add) == before
    own = t.self_times()
    assert own["upsilon"] > 0 and own["upsilon2"] > 0 and own["cli"] > 0
    assert t.calls("upsilon.upsilon") == 1
    assert t.count("upsilon", "echelons") > 0
    assert t.count("upsilon", "breakpoints") == 7
    assert t.queries_without("cli.run", "upsilon") == set()
    spans = t.to_json()["spans"]
    assert spans[0]["name"] == "cli.run" and spans[0]["parent"] == -1
    assert all(s["query"] == 0 for s in spans)


def test_a_missing_name_reports_zero(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED_METHODS", tracer.WRAPPED_METHODS + (
        ("cfk.f2linalg", "NoSuchClass", "__init__", "gone"),))
    monkeypatch.setattr(tracer, "WRAPPED_FUNCTIONS", tracer.WRAPPED_FUNCTIONS + (
        ("cfk.upsilon2", "no_such_function", "upsilon2"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.count(None, "gone") == 0 and t.calls("upsilon2.no_such_function") == 0


def test_ambient_cache_directory_is_ignored(tmp_path, monkeypatch):
    ambient = tmp_path / "ambient"
    monkeypatch.setenv("CFK_CACHE_DIR", str(ambient))
    run.isolate_environment()
    w = workloads.make("invariants-sums", 1)
    q = workloads.Query(((1, 2, 3), (1, 3, 4)), "T(2,3) # T(3,4)")
    assert w.run(q, {})[0] == 0
    assert not ambient.exists()
