"""Command line front end.

Subcommands: ``compile`` (query to rule file), ``optimize`` (rule file to
rule file), ``run`` (stream an XML file through a transducer), ``eval``
(same, via the in-memory evaluator), ``compose`` (fuse two rule files)
and ``gen`` (synthetic documents).

Rule files travel through stdin/stdout so the stages pipe together:

    mfx compile person.xq | mfx optimize | mfx run person.xml

Usage errors exit 2; pipeline errors (parse failures, invalid
transducers, engine errors) exit 1 with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import gen as G
from .compile import compile_text
from .compose import MODES, compose
from .forest import coalesce_text
from .mft import evaluate, parse_mft, print_mft, size, validate
from .optimize import optimize
from .stream import stream_run
from .xmlio import bytes_to_forest, forest_to_bytes, read_events, sink_to


class PipelineError(Exception):
    pass


def _read_text(path):
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_rules(path) -> "Mft":
    m = parse_mft(_read_text(path))
    problems = validate(m)
    if problems:
        raise PipelineError("invalid transducer:\n  " + "\n  ".join(problems))
    return m


def _transducer(args) -> "Mft":
    if getattr(args, "query", None):
        m = compile_text(_read_text(args.query))
        if not getattr(args, "no_opt", False):
            m = optimize(m)
        return m
    return _load_rules(getattr(args, "rules", None))


def cmd_compile(args) -> int:
    m = compile_text(_read_text(args.query))
    if args.optimize:
        m = optimize(m)
    _write_text(args.output, print_mft(m))
    return 0


def cmd_optimize(args) -> int:
    m = _load_rules(args.rules)
    before = (len(m.states), m.total_params(), size(m))
    m = optimize(m, warn=lambda msg: print("warning: " + msg,
                                           file=sys.stderr))
    _write_text(args.output, print_mft(m))
    if args.report:
        print("before: states=%d params=%d size=%d" % before, file=sys.stderr)
        print("after:  states=%d params=%d size=%d"
              % (len(m.states), m.total_params(), size(m)), file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    m = _transducer(args)
    out = sys.stdout.buffer
    with open(args.xml, "rb") as fh:
        stats = stream_run(m, read_events(fh), sink_to(out))
    out.write(b"\n")
    out.flush()
    if args.stats:
        print(stats.lines(), file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    m = _transducer(args)
    with open(args.xml, "rb") as fh:
        doc = bytes_to_forest(fh.read())
    result = coalesce_text(evaluate(m, doc))
    sys.stdout.buffer.write(forest_to_bytes(result) + b"\n")
    return 0


def cmd_compose(args) -> int:
    m1 = _load_rules(args.first)
    m2 = _load_rules(args.second)
    composed, report = compose(m1, m2, args.mode)
    _write_text(args.output, print_mft(composed))
    print("mode=%s sigma=%d size1=%d size2=%d size=%d rules=%d ratio=%.4f"
          % (report.mode, report.sigma, report.size1, report.size2,
             report.size_out, report.rules_out, report.bound_ratio()),
          file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    data = G.generate_bytes(args.profile, args.size, args.seed)
    if args.output in (None, "-"):
        sys.stdout.buffer.write(data + b"\n")
    else:
        with open(args.output, "wb") as fh:
            fh.write(data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mfx",
        description="MinXQuery-to-forest-transducer compiler and "
                    "streaming engine")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("compile", help="compile a query to a rule file")
    p.add_argument("query", nargs="?", help="query file (default stdin)")
    p.add_argument("-o", "--output", help="rule file (default stdout)")
    p.add_argument("-O", "--optimize", action="store_true",
                   help="optimize before emitting")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("optimize", help="optimize a rule file")
    p.add_argument("rules", nargs="?", help="rule file (default stdin)")
    p.add_argument("-o", "--output", help="rule file (default stdout)")
    p.add_argument("--report", action="store_true",
                   help="print per-pass statistics to stderr")
    p.set_defaults(fn=cmd_optimize)

    for name, fn, blurb in (("run", cmd_run, "stream an XML file through "
                                             "a transducer"),
                            ("eval", cmd_eval, "evaluate in memory "
                                               "(the oracle)")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("rules", nargs="?",
                       help="rule file (default stdin; ignored with --query)")
        p.add_argument("xml", help="input XML file")
        p.add_argument("--query", help="compile this query instead of "
                                       "reading a rule file")
        p.add_argument("--no-opt", action="store_true",
                       help="with --query: skip optimization")
        p.set_defaults(fn=fn)
        if name == "run":
            p.add_argument("--stats", action="store_true",
                           help="print run statistics to stderr")

    p = sub.add_parser("compose", help="fuse two rule files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--mode", required=True, choices=list(MODES))
    p.add_argument("-o", "--output", help="rule file (default stdout)")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("gen", help="generate a synthetic document")
    p.add_argument("--profile", default="xmark-lite", choices=G.PROFILES)
    p.add_argument("--size", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PipelineError, ValueError, OSError, RuntimeError) as e:
        print("mfx: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
