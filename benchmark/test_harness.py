"""Self-tests of the benchmark harness.

    python3 -m pytest -q benchmark/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import workloads as W  # noqa: E402


def tiny(seed=1):
    """Three cheap requests covering the run, pipeline and eval paths."""
    doc = W.Doc(W.XMARK, 300, seed)
    wl = W.Workload("tiny", seed, [
        W.Entry("run", "q13", doc, ("q13",)),
        W.Entry("pipeline", "double>deepdup:tt-tt", doc,
                ("double", "deepdup"), "tt-tt"),
        W.Entry("eval", "q02", doc, ("q02",)),
    ])
    W.set_up(wl)
    return wl


def test_correct_references_pass(monkeypatch):
    monkeypatch.setattr(harness, "MIN_REQUESTS", 6)
    records, problems, _, _, _ = harness.run_pool(tiny(), 0, False)
    assert problems == []
    assert len(records) == 6 and all(r.ok for r in records)


def test_wrong_reference_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(harness, "MIN_REQUESTS", 6)
    wl = tiny()
    wl.entries[1].ref = wl.entries[1].ref.replace(b"<r1>", b"<r0>", 1)
    records, problems, _, _, _ = harness.run_pool(wl, 0, False)
    failed = [r for r in records if not r.ok]
    assert [r.entry.label for r in failed] == ["double>deepdup:tt-tt"] * 2
    assert len(problems) == 2
    for r, msg in zip(failed, problems):
        assert msg.startswith("request %d (double>deepdup:tt-tt" % r.rid)
        assert "differs from the reference" in msg


def test_worker_share_numbers_requests_from_its_base(monkeypatch):
    wl = tiny()
    wl.entries[1].ref = b"wrong"
    records, problems, _, _, _ = harness.run_pool(wl, 0, False, 3, 2, 100)
    assert [r.rid for r in records] == [100, 101, 102]
    bad = [r for r in records if not r.ok]
    assert problems[0].startswith("request %d (" % bad[0].rid)
    rows = harness.request_rows(records)
    e2e = harness.end_to_end(rows, 1.0)
    assert e2e["peak_nodes"] == max(r.peak_nodes for r in records)
    assert [row[5] for row in rows] == [r.ok for r in records]


def test_exception_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(harness, "MIN_REQUESTS", 3)
    wl = tiny()
    wl.entries[0].queries = ("no-such-query",)
    records, problems, _, _, _ = harness.run_pool(wl, 0, False)
    assert sum(not r.ok for r in records) == 1
    assert "KeyError" in problems[0]


def test_traced_self_times_add_up(monkeypatch):
    monkeypatch.setattr(harness, "MIN_REQUESTS", 6)
    records, problems, tracer, _, _ = harness.run_pool(tiny(), 0, True)
    assert problems == []
    check = harness.request_self_check(tracer)
    assert check["requests"] == sum(r.traced for r in records) == 3
    assert check["max_sum_residual_ms"] < 1e-6
    assert check["min_self_ms"] >= 0.0
    layers = harness.layer_metrics(
        tracer, {r.rid: r.stats for r in records if r.traced})
    for name in ("xquery.parse_ms", "optimize.stay_ms", "stream.self_ms",
                 "compose.product_ms", "mft.evaluate_ms", "xmlio.read_ms",
                 "xmlio.write_ms", "optimize.fixpoint_check_ms"):
        assert layers[name] > 0, name
    assert layers["optimize.rounds"] >= 1
    assert 0 < layers["compose.keep_ratio"] <= 1


def test_instrumentation_is_restored():
    import mfx.mft
    import mfx.optimize
    before = (mfx.optimize.remove_unreachable, mfx.mft.print_mft)
    with harness.Tracer().instrument():
        assert mfx.optimize.remove_unreachable is not before[0]
    assert (mfx.optimize.remove_unreachable, mfx.mft.print_mft) == before


def test_seed_picks_inputs():
    a, b, c = (W.plan("scan", s) for s in (3, 3, 4))
    key = [(e.label, e.doc.size, e.doc.seed) for e in a.entries]
    assert key == [(e.label, e.doc.size, e.doc.seed) for e in b.entries]
    assert key != [(e.label, e.doc.size, e.doc.seed) for e in c.entries]
    assert [e.label for e in a.entries] == [e.label for e in c.entries]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "scan", "--seed", "0",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
