"""Fixtures for the buildd test suite.

``fake_toolchain`` provides a tiny Python "compiler" so cache/service/
dedup behaviour can be tested deterministically (and without gcc): it
copies the input source into the output artifact, optionally sleeping
(``FAKECC_DELAY``) or failing (``FAKECC_FAIL``).  With ``FAKECC_REAL`` set
to a real compiler's path it sleeps / fails the same way and then becomes
that compiler, so a held or broken build can be followed by a loadable one.
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


@pytest.fixture
def fake_cc_path(tmp_path):
    path = tmp_path / "fakecc"
    path.write_text(FAKE_CC.format(python=sys.executable))
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP)
    return str(path)


@pytest.fixture
def fake_toolchain(fake_cc_path):
    return Toolchain(path=fake_cc_path, version="fakecc 1.0",
                     identity="fakecc-test")
