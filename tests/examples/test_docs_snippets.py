"""Documentation code blocks must actually run.

One runner for every doc that promises executable snippets: it extracts
fenced ```python blocks from the README, the tutorial, and the
observability guide and executes each in a fresh namespace.  A block
whose info string contains ``no-run`` (e.g. ```` ```python no-run ````)
is displayed-only and skipped; one whose info string contains
``needs-cc`` asserts what only the C backend does, and skips on a host
with no C compiler.
"""

import os
import re

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: (document, minimum number of runnable blocks it must keep)
DOCS = [
    ("README.md", 2),
    (os.path.join("docs", "TUTORIAL.md"), 8),
    (os.path.join("docs", "OBSERVABILITY.md"), 3),
    (os.path.join("docs", "FRONTENDS.md"), 2),
    (os.path.join("docs", "SCHEDULES.md"), 1),
]

_FENCE = re.compile(r"```python([^\n]*)\n(.*?)```", re.S)


def blocks_of(relpath):
    """Runnable (index, info string, source) triples for one document."""
    text = open(os.path.join(_ROOT, relpath)).read()
    out = []
    for i, match in enumerate(_FENCE.finditer(text)):
        info, body = match.group(1).strip(), match.group(2)
        if "no-run" in info:
            continue
        out.append((i, info, body))
    return out


def _cases():
    for relpath, _ in DOCS:
        for index, info, source in blocks_of(relpath):
            yield pytest.param(relpath, index, info, source,
                               id=f"{os.path.basename(relpath)}-{index}")


@pytest.mark.parametrize("relpath,index,info,source", list(_cases()))
def test_block_runs(relpath, index, info, source, tmp_path):
    if "needs-cc" in info:
        from repro.buildd import toolchain
        if not toolchain.cc_available():
            pytest.skip("the block needs a C compiler")
    # materialize the block as a real file so snippets that use the
    # @terra decorator (which reads its function's source via inspect)
    # work exactly like user code in a module
    path = tmp_path / f"snippet_{index}.py"
    path.write_text(source)
    namespace = {"__name__": f"__doc_snippet_{index}__"}
    exec(compile(source, str(path), "exec"), namespace)


@pytest.mark.parametrize("relpath,minimum",
                         DOCS, ids=[d[0].replace(os.sep, "-") for d in DOCS])
def test_docs_keep_their_snippets(relpath, minimum):
    """Refactors must not silently drop the executable examples."""
    assert len(blocks_of(relpath)) >= minimum


def test_snippets_leave_observability_off():
    """Doc snippets that enable tracing/profiling must clean up."""
    from repro import trace
    from repro.trace import profile
    assert not trace.enabled()
    assert not profile.enabled()
