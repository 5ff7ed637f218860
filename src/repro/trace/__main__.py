"""``python -m repro.trace`` — record, summarize, and validate traces.

* ``run [-o OUT] [--tree] [--profile] script.py [args...]`` — execute a
  Python script with tracing enabled and write the Chrome-trace JSON
  (default ``repro-trace.json``); ``--tree`` also prints the span tree,
  ``--profile`` enables the per-call profiler and prints its table.
* ``view TRACE.json [--tree] [--limit N]`` — summarize an existing trace
  file (totals by category; ``--tree`` for the full nested view).
* ``validate TRACE.json`` — structural trace_event validation; exit 1 on
  problems.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys

from . import (enable, export_chrome, format_tree, profile, summarize,
               tree, validate_chrome)


def _cmd_run(args) -> int:
    enable()
    if args.profile:
        profile.enable()
    sys.argv = [args.script] + args.script_args
    code = 0
    try:
        runpy.run_path(args.script, run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    path = export_chrome(args.out)
    print(f"[repro.trace] wrote {path}")
    if args.tree:
        print(tree(min_ms=args.min_ms))
    if args.profile:
        print(profile.report())
    return code


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cmd_view(args) -> int:
    doc = _load(args.trace)
    if args.tree:
        print(format_tree(doc, max_children=args.limit,
                          min_ms=args.min_ms))
        return 0
    summary = summarize(doc)
    print(f"{summary['spans']} spans")
    print(f"{'category':<14} {'count':>8} {'total ms':>12}")
    for cat, entry in sorted(summary["by_category"].items(),
                             key=lambda kv: kv[1]["ms"], reverse=True):
        print(f"{cat:<14} {entry['count']:>8} {entry['ms']:>12.3f}")
    return 0


def _cmd_validate(args) -> int:
    try:
        doc = _load(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}")
        return 1
    errors = validate_chrome(doc)
    if errors:
        print(f"INVALID trace_event document ({len(errors)} problems):")
        for err in errors:
            print(f"  {err}")
        return 1
    summary = summarize(doc)
    cats = ", ".join(sorted(summary["by_category"]))
    print(f"OK: {len(doc['traceEvents'])} events, {summary['spans']} "
          f"spans, categories: {cats or '(none)'}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Record, summarize, and validate repro traces.")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a script with tracing enabled")
    run.add_argument("-o", "--out", default="repro-trace.json",
                     help="trace output path (default repro-trace.json)")
    run.add_argument("--tree", action="store_true",
                     help="also print the span tree")
    run.add_argument("--profile", action="store_true",
                     help="enable the per-call profiler, print its table")
    run.add_argument("--min-ms", type=float, default=0.0,
                     help="hide leaf spans shorter than this (tree)")
    run.add_argument("script")
    run.add_argument("script_args", nargs=argparse.REMAINDER)

    view = sub.add_parser("view", help="summarize an existing trace file")
    view.add_argument("trace")
    view.add_argument("--tree", action="store_true",
                      help="full nested view instead of category totals")
    view.add_argument("--limit", type=int, default=24,
                      help="max children shown per node (tree)")
    view.add_argument("--min-ms", type=float, default=0.0,
                      help="hide leaf spans shorter than this (tree)")

    val = sub.add_parser("validate",
                         help="check a trace_event JSON file; exit 1 if bad")
    val.add_argument("trace")

    args = ap.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "view":
        return _cmd_view(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
