"""``python -m repro.buildd`` — inspect and maintain the artifact cache.

* ``--stats`` (default): print the cache and service configuration —
  compiler identity, cache root, artifact count, bytes cached vs. the cap,
  configured job count, and (``spec.memo``) how many artifacts a
  structural-memo record names.  (Hit/miss counters are per-process, so a fresh
  CLI process reports zeros for them; they matter when queried in-process
  via ``repro.buildd.stats()``.)
* ``--gc``: evict artifacts beyond the size cap (LRU), drop memo records
  whose artifact is gone and orphaned temp files.
* ``--clear``: delete every cached artifact.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import get_service, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.buildd",
        description="Inspect and maintain the Terra-repro compile cache.")
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--stats", action="store_true",
                       help="print cache/service stats (default)")
    group.add_argument("--gc", action="store_true",
                       help="evict over-cap artifacts and stale entries")
    group.add_argument("--clear", action="store_true",
                       help="delete every cached artifact")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output")
    args = ap.parse_args(argv)

    svc = get_service()
    if args.clear:
        removed = svc.cache.clear()
        out = {"cleared": removed, "root": svc.cache.root}
    elif args.gc:
        out = svc.cache.gc()
        out["root"] = svc.cache.root
    else:
        out = stats()
        out.pop("recent_builds", None)

    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        width = max((len(k) for k in out), default=0)
        for key, value in out.items():
            print(f"{key:<{width}}  {value}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # output piped into a closed reader (e.g. `... --json | head`)
        sys.exit(0)
