"""Tiered-execution demo: watch a kernel climb the tiers.

    python -m repro.exec [--n 4096] [--radius 5] [--threshold 8] [--sync]

Runs a small blur kernel under the ``tiered`` policy: the first calls
execute on the reference interpreter while the value profiler watches the
arguments; crossing the threshold schedules a background tier-up through
buildd, and the stable scalar arguments (``n``, ``radius``) are spliced
into a guarded respecialized variant.  The demo then violates the guard
once to show a counted deoptimization, and prints the tier trajectory,
the per-call profile, and buildd's tier-up counter.

With ``REPRO_TERRA_TRACE=1`` the run emits ``exec.tier_up`` /
``exec.respecialize`` / ``exec.deopt`` events into the trace — this is
what ``make tier-smoke`` records and validates.
"""

from __future__ import annotations

import argparse
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="tiered execution + respecialization demo")
    ap.add_argument("--n", type=int, default=4096, help="buffer length")
    ap.add_argument("--radius", type=int, default=5, help="blur radius")
    ap.add_argument("--threshold", type=int, default=8,
                    help="tier-0 calls before tier-up")
    ap.add_argument("--calls", type=int, default=40,
                    help="total calls to make")
    ap.add_argument("--sync", action="store_true",
                    help="complete tier-ups inline (deterministic)")
    args = ap.parse_args(argv)

    from .. import terra
    from ..buildd import get_service
    from ..trace import profile
    from . import TieredPolicy, policy_override

    fn = terra("""
    terra blur(src: &float, dst: &float, n: int32, radius: int32): int32
      var writes: int32 = 0
      for i = radius, n - radius do
        var acc: float = 0.0f
        for j = -radius, radius + 1 do
          acc = acc + src[i + j]
        end
        dst[i] = acc / ([float](2 * radius + 1))
        writes = writes + 1
      end
      return writes
    end
    """)

    try:
        import numpy as np
        src = np.arange(args.n, dtype=np.float32)
        dst = np.zeros(args.n, dtype=np.float32)
        call_args = (src, dst, args.n, args.radius)
    except ImportError:
        src = [float(i) for i in range(args.n)]
        dst = [0.0] * args.n
        call_args = (src, dst, args.n, args.radius)

    policy = TieredPolicy(threshold=args.threshold, sync=args.sync)
    profile.enable()
    last_tier = -1
    with policy_override(policy):
        for i in range(args.calls):
            t0 = time.perf_counter()
            fn(*call_args)
            dt = (time.perf_counter() - t0) * 1e3
            info = fn.dispatcher.tier_info()
            if info["tier"] != last_tier or i in (0, args.calls - 1):
                marker = " <respecialized>" if info["respecialized"] else ""
                print(f"call {i:>3}: {dt:8.3f} ms  tier {info['tier']}"
                      f"{marker}")
                last_tier = info["tier"]
        # give a background tier-up a moment, then show the fast tier
        if not args.sync:
            deadline = time.time() + 10.0
            while (fn.dispatcher.tier_info()["tier"] == 0
                   and time.time() < deadline):
                time.sleep(0.02)
                fn(*call_args)
        t0 = time.perf_counter()
        fn(*call_args)
        warm_ms = (time.perf_counter() - t0) * 1e3
        info = fn.dispatcher.tier_info()
        print(f"warm:     {warm_ms:8.3f} ms  tier {info['tier']}"
              f"{' <respecialized>' if info['respecialized'] else ''}")
        # violate the guard once: radius changes, the respecialized
        # variant must deopt to the generic entry
        fn(src, dst, args.n, args.radius + 1)
        info = fn.dispatcher.tier_info()
        print(f"guard miss on radius={args.radius + 1}: "
              f"deopts={info['deopts']}")

    print()
    print(profile.report(limit=5))
    print(f"\nbuildd tier_ups: {get_service().stats.snapshot()['tier_ups']}")
    st = fn.dispatcher.tier
    if st is not None and st.respec is not None:
        print(f"respecialized variant: {st.respec!r}")
    ok = info["tier"] >= 1 or not _cc_available()
    if not ok:
        print("error: function never tiered up", file=sys.stderr)
    return 0 if ok else 1


def _cc_available() -> bool:
    from ..buildd import toolchain
    return toolchain.cc_available()


if __name__ == "__main__":
    sys.exit(main())
