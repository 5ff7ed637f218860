"""repro.config — the one table of ``REPRO_*`` environment variables.

Every variable the system reads is a row of :data:`VARS`, and every read
goes through :func:`get`, which looks at ``os.environ`` *now* — no cache,
so ``monkeypatch.setenv`` and the parent process's environment are the
only override points — and turns a value the row does not accept into a
:class:`~repro.errors.ConfigError`.  ``python -m repro.config`` renders
the table as ``docs/ENVIRONMENT.md`` (``make env-doc``); a tier-1 test
holds the two equal.

``import repro`` imports this module, so it imports only ``os`` and
``repro.errors``; a reader whose default needs more than that (the
toolchain probe, ``$TMPDIR``) keeps computing it and its row's default
is ``None``.
"""

from __future__ import annotations

import os

from .errors import ConfigError

# A value type is (parse, accepted form); parse raises ValueError.
FLAG = (lambda raw: raw != "0", "`0` is off, anything else is on")
NAMES = (lambda raw: tuple(p.strip() for p in raw.split(",") if p.strip()),
         "comma-separated names")


def choice(*names: str):
    return (lambda raw: names[names.index(raw)],
            ", ".join(f"`{n}`" for n in names))


def integer(lo: int, hi=None, pow2: bool = False):
    """``lo..hi``, or with no ``hi`` at least ``lo`` — smaller values
    then mean ``lo``, as the readers this table replaced had it."""
    def parse(raw: str) -> int:
        n = int(raw)
        if hi is None:
            n = max(lo, n)
        elif not lo <= n <= hi:
            raise ValueError(raw)
        if pow2 and n & (n - 1):
            raise ValueError(raw)
        return n
    return parse, (f"an integer {lo}..{hi}" if hi is not None else
                   f"a power of two, at least {lo}" if pow2 else
                   f"an integer; below {lo} means {lo}")


def cpus() -> int:
    return max(1, os.cpu_count() or 1)


# name: (type, default — a value or a callable evaluated per read, the
#        default as the doc shows it, subsystem, read at, one-line doc)
VARS = {
    "REPRO_TERRA_BACKEND": (
        choice("c", "interp"), None, "`c` if a compiler exists, else `interp`",
        "backends", "first use",
        "Default backend; `set_default_backend()` switches later."),
    "REPRO_TERRA_CC": (
        (str, "a compiler name or path"), None, "probe `gcc`, then `cc`",
        "buildd (toolchain)", "first use",
        "Pins the C compiler; its identity is part of every cache key."),
    "REPRO_TERRA_CACHE": (
        (str, "a directory"), None, "`$TMPDIR/repro-terra-<uid>`",
        "buildd (artifact cache)", "first use",
        "Artifact cache root."),
    "REPRO_BUILDD_JOBS": (
        integer(1), cpus, "cpu count",
        "buildd (compile pool)", "first use",
        "Concurrent compiler jobs of the process-wide compile service."),
    "REPRO_BUILDD_CACHE_BYTES": (
        integer(0), 1 << 30, "`1073741824` (1 GiB)",
        "buildd (artifact cache)", "first use",
        "Artifact cache size cap in bytes; `0` disables eviction."),
    "REPRO_BUILDD_CACHE_ENTRIES": (
        integer(0), 0, "`0` (unbounded)",
        "buildd (artifact cache)", "first use",
        "Entry-count LRU bound on top of the byte cap."),
    "REPRO_TERRA_PIPELINE": (
        integer(0, 2), None, "`1` (what ships)",
        "passes", "every use",
        "Pass-pipeline level of *every* compile (`2` adds the vectorizer); "
        "`passes.pipeline_override(level)` wins over it."),
    "REPRO_TERRA_VEC_BYTES": (
        integer(4, pow2=True), 64, "`64`",
        "passes (vectorizer)", "every use",
        "Vector register width in bytes; lanes = bytes / widest element."),
    "REPRO_TERRA_DISABLE_PASSES": (
        NAMES, (), "none",
        "passes", "every use",
        "Registered passes to drop (`simplify,dce`); `schedule` ignores "
        "attached tile schedules (naive kernel, serial dispatch)."),
    "REPRO_TERRA_DUMP_IR": (
        (str, "a registered pass name, or `all`"), None, "none",
        "passes", "every use",
        "Print the IR before and after that pass to stderr (passes must run "
        "to be seen: bypasses the structural memo)."),
    "REPRO_TERRA_VERIFY_IR": (
        FLAG, False, "`0`",
        "passes (IR verifier)", "every use",
        "Verify the IR after typechecking, every pass and before emission; "
        "a structural-memo hit also re-derives its C and must match."),
    "REPRO_TERRA_THREADS": (
        integer(1), None, "the requested count, else cpu count",
        "parallel (worker pool)", "every use",
        "Overrides *every* requested worker count; `1` forces serial (Orion "
        "then emits the byte-identical serial kernel)."),
    "REPRO_TERRA_EXEC_POLICY": (
        choice("aot", "c", "interp", "tiered"), "aot", "`aot`",
        "exec (dispatch)", "first use",
        "Read on the first Terra-function call; later use `exec.set_policy` "
        "or `exec.policy_override`."),
    "REPRO_TERRA_TIER_THRESHOLD": (
        integer(1), 10, "`10`",
        "exec (tiered policy)", "first use",
        "Tier-0 calls before tier-up.  `REPRO_TERRA_TIER_*` are read when "
        "`tiered` is built by name, not by `TieredPolicy(...)`."),
    "REPRO_TERRA_TIER_SYNC": (
        FLAG, False, "`0`",
        "exec (tiered policy)", "first use",
        "The call that stages a tier-up waits for gcc (determinism for "
        "tests and fuzzing)."),
    "REPRO_TERRA_FRONTEND_DEBUG": (
        FLAG, False, "`0`",
        "frontend (pyast)", "every use",
        "Print each `@terra` function's lowered form to stderr."),
    "REPRO_TERRA_TRACE": (
        FLAG, False, "`0`",
        "trace (spans)", "import",
        "Write a Chrome trace of the process at exit; toggle later with "
        "`trace.enable()` (the call path checks a module flag)."),
    "REPRO_TERRA_TRACE_OUT": (
        (str, "a file path"), "repro-trace.json", "`repro-trace.json`",
        "trace (export)", "first use",
        "Where that trace goes (read at exit)."),
    "REPRO_TERRA_PROFILE": (
        FLAG, False, "`0`",
        "trace (per-call profiler)", "import",
        "Per-call profiling; toggle later with `trace.profile.enable()`."),
    "REPRO_SERVE_SOCKET": (
        (str, "a unix socket path"), None, "`$TMPDIR/repro-serve-<uid>.sock`",
        "serve", "every use",
        "The address client and server must agree on; every other setting "
        "is a `python -m repro.serve` flag or `ServeConfig` field."),
}


def get(name: str):
    """The value of ``name`` now: the row's default when unset or empty,
    else the parsed value.  ``KeyError`` for a name not in the table."""
    (parse, form), default = VARS[name][:2]
    raw = os.environ.get(name, "")
    if raw == "":
        return default() if callable(default) else default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r}: expected {form}") from None


def render() -> str:
    """The text of ``docs/ENVIRONMENT.md``."""
    rows = "".join(
        f"| `{name}` | {shown} | {form} | {subsystem} | {read_at} | {doc} |\n"
        for name, ((_, form), _, shown, subsystem, read_at, doc)
        in VARS.items())
    return f"""\
# Environment variables

<!-- Generated from src/repro/config.py by `make env-doc`
     (`python -m repro.config > docs/ENVIRONMENT.md`): edit the table
     there.  tests/test_config.py holds the two equal. -->

Every `REPRO_*` variable the system reads ({len(VARS)}), each through
`repro.config.get(NAME)` and nowhere else.  Unset or empty means the
default; a value outside "accepted" raises `ConfigError` naming the
variable.  "Read at" is when a change takes effect: `import` (once, when
`repro` is imported), `first use` (once, when the subsystem first needs
it) or `every use` (live, so a test can flip it per call).

| variable | default | accepted | subsystem | read at | what it does |
|---|---|---|---|---|---|
{rows}"""


if __name__ == "__main__":
    print(render(), end="")
