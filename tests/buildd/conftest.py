"""Fixtures for the buildd test suite.

``fake_toolchain`` provides a tiny Python "compiler" and "linker" so
cache/service/dedup behaviour can be tested deterministically (and without
gcc): the compiler copies the input source into its output, optionally
sleeping (``FAKECC_DELAY``) or failing (``FAKECC_FAIL``), and the linker
copies its input object into the artifact.  With ``FAKECC_REAL`` set to a
real compiler's path the compiler sleeps / fails the same way and then
becomes that compiler, so a held or broken build can be followed by a
loadable one (linked by the real linker: ``tests/exec/conftest.py``).
The compiler answers the toolchain probe (``--version``,
``-print-prog-name=ld``/``cc1``, ``-print-libgcc-file-name``) itself; its
"cc1" is an empty file beside it, there to be stat'ed.
"""

import os
import stat
import sys
import textwrap

import pytest

from repro.buildd.toolchain import Toolchain

FAKE_CC = textwrap.dedent("""\
    #!{python}
    import os, sys, time
    args = sys.argv[1:]
    if "--version" in args:
        print("fakecc 1.0")
        sys.exit(0)
    for prog in ("ld", "cc1"):
        if "-print-prog-name=" + prog in args:
            print(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "fake" + prog))
            sys.exit(0)
    if "-print-libgcc-file-name" in args:
        print("libgcc.a")       # what gcc says when it has none
        sys.exit(0)
    delay = float(os.environ.get("FAKECC_DELAY", "0"))
    if delay:
        time.sleep(delay)
    if os.environ.get("FAKECC_FAIL"):
        sys.stderr.write("fakecc: induced failure\\n")
        sys.exit(1)
    if os.environ.get("FAKECC_REAL"):
        os.execv(os.environ["FAKECC_REAL"], [os.environ["FAKECC_REAL"]] + args)
    out = args[args.index("-o") + 1]
    sources = [a for a in args if a.endswith(".c")]
    data = b""
    for src in sources:
        with open(src, "rb") as f:
            data += f.read()
    with open(out, "wb") as f:
        f.write(b"FAKESO\\0" + data)
""")

FAKE_LD = textwrap.dedent("""\
    #!{python}
    import sys
    args = sys.argv[1:]
    out = args[args.index("-o") + 1]
    with open(args[args.index("-shared") + 1], "rb") as src:
        data = src.read()
    with open(out, "wb") as f:
        f.write(data)
""")


def _script(path, text):
    path.write_text(text.format(python=sys.executable))
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP)
    return str(path)


@pytest.fixture
def fake_cc_path(tmp_path):
    _script(tmp_path / "fakeld", FAKE_LD)
    (tmp_path / "fakecc1").write_text("")
    return _script(tmp_path / "fakecc", FAKE_CC)


@pytest.fixture
def fake_toolchain(fake_cc_path):
    return Toolchain(path=fake_cc_path, version="fakecc 1.0",
                     identity="fakecc-test",
                     ld=os.path.join(os.path.dirname(fake_cc_path), "fakeld"),
                     libgcc="")
