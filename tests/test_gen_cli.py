import subprocess
import sys
from pathlib import Path

import pytest

from mfx.bench import CORPUS_QUERIES, corpus_transducer
from mfx.gen import generate_bytes
from mfx.xmlio import bytes_to_forest
from mfx.cli import main

from conftest import DOC1, P_PERSON_TEXT


def _depth(f):
    return max((1 + _depth(t.children) for t in f), default=0)


def test_generator_deterministic():
    a = generate_bytes("xmark-lite", 2000, seed=3)
    b = generate_bytes("xmark-lite", 2000, seed=3)
    assert a == b
    assert a != generate_bytes("xmark-lite", 2000, seed=4)


def test_deep_chain_depth():
    doc = bytes_to_forest(generate_bytes("deep-chain", 37))
    assert _depth(doc) == 38  # 37 elements plus the text leaf


def test_wide_flat():
    doc = bytes_to_forest(generate_bytes("wide-flat", 50))
    assert len(doc[0].children) == 50


def test_minimal_site_accepted_by_all_queries():
    data = generate_bytes("xmark-lite", 1, seed=0)
    for name in CORPUS_QUERIES:
        m = corpus_transducer(name)
        from mfx.stream import stream_bytes
        out, _ = stream_bytes(m, data)  # no error is the assertion
        assert out.startswith(b"<")


def test_every_corpus_query_streams_correctly_vs_oracle():
    from mfx.stream import stream_bytes
    from mfx.xquery import parse_query
    from util import oracle_bytes
    data = generate_bytes("xmark-lite", 1500, seed=11)
    forest = bytes_to_forest(data)
    for name, text in CORPUS_QUERIES.items():
        m = corpus_transducer(name)
        got, _ = stream_bytes(m, data)
        assert got == oracle_bytes(parse_query(text), forest), name


def _run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "mfx.cli"] + args,
        input=stdin_text.encode() if stdin_text else None,
        capture_output=True, timeout=300)
    return proc


def test_cli_pipeline(tmp_path: Path):
    q = tmp_path / "person.xq"
    q.write_text(P_PERSON_TEXT)
    xml = tmp_path / "person.xml"
    xml.write_bytes(DOC1)

    compiled = _run_cli(["compile", str(q)])
    assert compiled.returncode == 0
    optimized = _run_cli(["optimize"], stdin_text=compiled.stdout.decode())
    assert optimized.returncode == 0
    ran = _run_cli(["run", "-", str(xml)],
                   stdin_text=optimized.stdout.decode())
    assert ran.returncode == 0
    assert ran.stdout.strip() == b"<out>JimLi</out>"


def test_cli_run_query_direct(tmp_path: Path):
    q = tmp_path / "p.xq"
    q.write_text(P_PERSON_TEXT)
    xml = tmp_path / "p.xml"
    xml.write_bytes(DOC1)
    ran = _run_cli(["run", "--query", str(q), "--stats", str(xml)])
    assert ran.returncode == 0
    assert ran.stdout.strip() == b"<out>JimLi</out>"
    assert b"peak_nodes=" in ran.stderr
    ev = _run_cli(["eval", "--query", str(q), str(xml)])
    assert ev.stdout.strip() == b"<out>JimLi</out>"


def test_cli_eval_survives_a_deep_chain(tmp_path: Path):
    # the eval path (build, evaluate, coalesce, serialise) has no
    # recursion bounded by document depth
    q = tmp_path / "id.xq"
    q.write_text("<out>{$input/node()}</out>")
    xml = tmp_path / "deep.xml"
    data = generate_bytes("deep-chain", 5000)
    xml.write_bytes(data)
    ev = _run_cli(["eval", "--query", str(q), str(xml)])
    assert ev.returncode == 0, ev.stderr[-300:]
    assert ev.stdout.strip() == b"<out>" + data.strip() + b"</out>"


def test_cli_no_opt_retains_more(tmp_path: Path):
    q = tmp_path / "q.xq"
    q.write_text("<out>{$input/node()}</out>")
    xml = tmp_path / "w.xml"
    xml.write_bytes(generate_bytes("wide-flat", 300))
    with_opt = _run_cli(["run", "--query", str(q), "--stats", str(xml)])
    no_opt = _run_cli(["run", "--query", str(q), "--no-opt", "--stats",
                       str(xml)])

    def peak(err):
        for line in err.decode().splitlines():
            if line.startswith("peak_nodes="):
                return int(line.split("=")[1])

    assert peak(no_opt.stderr) > 5 * peak(with_opt.stderr)


def test_cli_compose(tmp_path: Path):
    a = tmp_path / "a.mft"
    a.write_text("""\
q0(a(x1)x2) -> b(b(q0(x1)))
q0(%t(x1)x2) -> eps
q0(eps) -> eps
""")
    b = tmp_path / "b.mft"
    b.write_text("""\
p0(b(x1)x2) -> c(p0(x1)) p0(x1)
p0(%t(x1)x2) -> eps
p0(eps) -> eps
""")
    out = _run_cli(["compose", str(a), str(b), "--mode", "tt-tt"])
    assert out.returncode == 0
    from mfx.mft import parse_mft, validate
    assert validate(parse_mft(out.stdout.decode())) == []
    assert b"mode=tt-tt" in out.stderr


def test_cli_gen():
    gen = _run_cli(["gen", "--profile", "deep-chain", "--size", "5"])
    assert gen.returncode == 0
    assert gen.stdout.strip() == b"<n><n><n><n><n>bottom</n></n></n></n></n>"


def test_cli_usage_error_exit_codes():
    assert _run_cli(["frobnicate"]).returncode == 2
    bad = _run_cli(["run", "nonexistent.mft", "nope.xml"])
    assert bad.returncode == 1
    assert b"error" in bad.stderr


def test_cli_eval_rejects_stats(capsys):
    # the in-memory evaluator keeps no run statistics
    with pytest.raises(SystemExit) as ei:
        main(["eval", "--query", "q.xq", "--stats", "d.xml"])
    assert ei.value.code == 2
    assert "--stats" in capsys.readouterr().err


def test_cli_main_entry():
    # in-process invocation for coverage of the dispatcher
    assert main(["gen", "--size", "1", "--profile", "wide-flat",
                 "-o", "/dev/null"]) == 0
