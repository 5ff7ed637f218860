"""The C handle's call plan is generated once per signature *shape* — the
arity, which positions are pointers or converted, whether the unit traps
and whether a result is converted — and every later handle of that shape
instantiates it with one call: binding many functions compiles no Python.
(Generated per bind, the plan made every cache-hot define, which binds
fresh functions, pay for an ``exec``: EXPERIMENTS.md E26.)"""

import builtins

import numpy as np

from repro import terra
from repro.backend.c import runtime

#: a shape no other test needs: int8, pointer, bool, pointer; trappable;
#: a double result (no returner)
SHAPE = """
terra shaped(k : int8, x : &uint16, on : bool, y : &float) : double
  var r = [double](x[0] / k) + y[0]
  if on then r = -r end
  return r
end
"""


def test_one_plan_per_shape_and_no_compile_per_bind(cbackend, monkeypatch):
    runtime._plan_factory.cache_clear()
    fns = [terra(SHAPE) for _ in range(6)]
    fns[0].compile(cbackend)    # gcc, and the imports a first compile makes
    made = []
    for name in ("exec", "compile"):
        real = getattr(builtins, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            made.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(builtins, name, counting)
    x, y = np.array([9], np.uint16), np.array([0.5], np.float32)
    handles = [fn.compile(cbackend) for fn in fns]
    assert made == []                       # a bind makes no plan
    for i, handle in enumerate(handles):
        assert handle(2, x, i % 2, y) == (-4.5 if i % 2 else 4.5)
    monkeypatch.undo()
    assert made == ["exec"]                 # the shape's source, once
    assert runtime._plan_factory.cache_info().misses == 1
    assert handles[0].centry is not None    # the guarded shape
    assert len({h.entry.__code__ for h in handles}) == 1
    assert {h.entry.__name__ for h in handles} == {"shaped"}
    assert len({h.entry for h in handles}) == len(handles)
