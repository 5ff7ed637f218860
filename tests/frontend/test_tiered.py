"""Decorated kernels under the tiered execution policy.

The acceptance criteria require ``@terra`` kernels to run under
``tiered`` as well — nothing frontend-specific may leak into the exec
layer, so tier-0 interpretation and the synchronous tier-up must behave
exactly as they do for string-defined functions.
"""

import numpy as np

from repro import int32, ptr, terra
from repro.exec import TieredPolicy, policy_override


def test_decorated_kernel_tiers_up(cbackend):
    @terra
    def triple(x: int32) -> int32:
        return x * 3

    with policy_override(TieredPolicy(threshold=3, sync=True)):
        results = [triple(i) for i in range(8)]
    assert results == [i * 3 for i in range(8)]
    assert triple.dispatcher.tier_info()["tier"] == 1  # crossed the threshold


def test_tier_transition_is_bit_identical():
    @terra
    def mix(p: ptr(int32), n: int32) -> int32:
        acc = 0
        for i in range(n):
            acc = acc + p[i] * (i + 1)
        return acc

    buf = (np.arange(19, dtype=np.int32) - 7) * 5
    with policy_override("interp"):
        expected = mix(buf, 19)
    with policy_override(TieredPolicy(threshold=2, sync=True)):
        got = [mix(buf, 19) for _ in range(6)]  # spans tier 0 -> tier 1
    assert got == [expected] * 6


def test_decorated_loop_kernel_tiers_up_on_constant_arguments():
    @terra
    def powlike(x: int32, k: int32) -> int32:
        acc = 1
        for _i in range(k):
            acc = acc * x
        return acc

    with policy_override(TieredPolicy(threshold=2, sync=True)):
        # the same arguments on every call: one entry serves them all
        results = [powlike(2, 10) for _ in range(12)]
        assert powlike(3, 4) == 81
    assert results == [1024] * 12
    assert powlike.dispatcher.tier_info()["calls"] == 2

