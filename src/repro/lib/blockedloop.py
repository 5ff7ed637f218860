"""``blockedloop`` — the paper's Section 2 staged loop-nest generator.

    "we can create a Lua function, blockedloop, to generate the Terra code
    for the loop nests with a parameterizable number of block sizes"

Given a loop bound, a list of block sizes (the last one conventionally 1),
and a body generator, produces a quote containing nested 2-D blocked
loops.  ``bodyfn`` receives the two innermost loop-index *symbols* and
returns a quote for the loop body — the same contract as the paper's Lua
version, transliterated to Python.
"""

from __future__ import annotations

from ..core.quotes import Quote
from ..core.symbols import symbol


def blockedloop(N, blocksizes, bodyfn) -> Quote:
    """Generate a 2-D blocked loop nest over ``[0,N) x [0,N)``.

    ``blocksizes[0]`` is the outer block edge, subsequent entries refine
    it; each level iterates its indices by the *next* level's block size,
    exactly like the paper's implementation.  ``bodyfn(i, j)`` must return
    a quote (or list of quotes) for the innermost body.
    """
    from .. import quote_

    def generatelevel(n, ii, jj, ilimit, jlimit, bb):
        if n > len(blocksizes):
            return bodyfn(ii, jj)
        blocksize = blocksizes[n - 1]
        i = symbol(None, f"i{n}")
        j = symbol(None, f"j{n}")
        # Each level clamps against its *parent block's* clamped limit,
        # not the global N: with non-divisor chains (say [6, 4, 1]) a
        # size-4 sub-block starting at 4 must stop at the size-6 block
        # edge 6, not run to min(4+4, N) and double-visit 6..7 (which
        # the next size-6 block covers again).  The limits are hoisted
        # into locals so they can be threaded down the recursion.
        ilim = symbol(None, f"ilim{n}")
        jlim = symbol(None, f"jlim{n}")
        inner = generatelevel(n + 1, i, j, ilim, jlim, blocksize)
        return quote_(
            """
            var [ilim] = [ii] + [bb]
            if [ilim] > [ilimit] then [ilim] = [ilimit] end
            var [jlim] = [jj] + [bb]
            if [jlim] > [jlimit] then [jlim] = [jlimit] end
            for [i] = [ii], [ilim], [blocksize] do
              for [j] = [jj], [jlim], [blocksize] do
                [inner]
              end
            end
            """,
            env={
                "i": i, "j": j, "ii": ii, "jj": jj,
                "ilim": ilim, "jlim": jlim,
                "ilimit": ilimit, "jlimit": jlimit,
                "blocksize": blocksize, "inner": inner,
                "bb": bb,
            })

    return generatelevel(1, 0, 0, N, N, N)
