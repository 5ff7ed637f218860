"""Orion's front end — image-wide operators via operator overloading.

Paper §6.2: "Rather than specify loop nests directly, Orion programs are
written using image-wide operators.  For instance, f(-1,0) + f(0,1) adds
the image f translated by -1 in x to f translated by 1 in y.  The offsets
must be constants, which guarantees the function is a stencil."

and §6.2 (implementation): "we use operator overloading on Lua tables to
build Orion expressions.  These operators build an intermediate
representation (IR) suitable for optimization."

The IR is a DAG of :class:`Expr` nodes.  *Stages* (inputs and expressions
the user names or shifts) are the schedulable units: each can be
``materialize``d, ``inline``d, or ``linebuffer``ed (see
:mod:`repro.orion.compile`).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import TerraError

_ids = itertools.count(1)

MATERIALIZE = "materialize"
INLINE = "inline"
LINEBUFFER = "linebuffer"
POLICIES = (MATERIALIZE, INLINE, LINEBUFFER)


class Expr:
    """An image-valued expression over a common grid."""

    def __call__(self, dx: int, dy: int) -> "Expr":
        """Translate: ``f(-1, 0)`` reads f shifted by (-1, 0).

        Offsets must be Python integer constants — this is what makes
        every Orion program a stencil (paper §6.2)."""
        if not (isinstance(dx, int) and isinstance(dy, int)):
            raise TerraError("stencil offsets must be integer constants")
        return Read(as_stage(self), dx, dy)

    # -- arithmetic ----------------------------------------------------------
    def _bin(self, op, other, reflected=False):
        other = wrap(other)
        lhs, rhs = (other, self) if reflected else (self, other)
        return BinOp(op, lhs, rhs)

    def __add__(self, o):
        return self._bin("+", o)

    def __radd__(self, o):
        return self._bin("+", o, True)

    def __sub__(self, o):
        return self._bin("-", o)

    def __rsub__(self, o):
        return self._bin("-", o, True)

    def __mul__(self, o):
        return self._bin("*", o)

    def __rmul__(self, o):
        return self._bin("*", o, True)

    def __truediv__(self, o):
        return self._bin("/", o)

    def __rtruediv__(self, o):
        return self._bin("/", o, True)

    def __neg__(self):
        return BinOp("-", Const(0.0), self)


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def __repr__(self):
        return f"Const({self.value})"


class Param(Expr):
    """A runtime scalar parameter: supplied when the compiled pipeline is
    called, rather than baked in at staging time.  (Baking constants is
    the auto-tuner default; params support problem-specific values without
    recompiling.)"""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, dx: int, dy: int) -> "Expr":
        raise TerraError("parameters are scalars; they cannot be shifted")

    def __repr__(self):
        return f"Param({self.name})"


class Read(Expr):
    """A shifted read of a stage."""

    def __init__(self, stage: "Stage", dx: int, dy: int):
        self.stage = stage
        self.dx = dx
        self.dy = dy

    def __call__(self, dx: int, dy: int) -> "Expr":
        # shifting a shifted read composes offsets without a new stage
        return Read(self.stage, self.dx + dx, self.dy + dy)

    def __repr__(self):
        return f"{self.stage.name}({self.dx},{self.dy})"


class BinOp(Expr):
    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"({self.lhs} {self.op} {self.rhs})"


class Stage:
    """A schedulable point in the pipeline: an input image or a named
    expression.  ``policy`` is assigned by the schedule at compile time.

    ``bounded`` stages carry a zero boundary condition: they are defined
    exactly on the N×N domain and read as zero outside it (like the
    paper's fluid solver iterates).  Unbounded stages (the default) follow
    Halide semantics — computed wherever consumers need values, so the
    schedule can never change results."""

    def __init__(self, expr: Optional[Expr], name: Optional[str] = None,
                 bounded: bool = False):
        self.id = next(_ids)
        self.expr = expr          # None for inputs
        self.name = name or f"stage{self.id}"
        self.default_policy: Optional[str] = None
        self.bounded = bounded

    @property
    def is_input(self) -> bool:
        return self.expr is None

    def __call__(self, dx: int, dy: int) -> Expr:
        if not (isinstance(dx, int) and isinstance(dy, int)):
            raise TerraError("stencil offsets must be integer constants")
        return Read(self, dx, dy)

    # a bare stage used in arithmetic reads at offset (0,0)
    def _as_read(self) -> Expr:
        return Read(self, 0, 0)

    def __add__(self, o):
        return self._as_read() + o

    def __radd__(self, o):
        return o + self._as_read() if isinstance(o, Expr) else \
            wrap(o) + self._as_read()

    def __sub__(self, o):
        return self._as_read() - o

    def __rsub__(self, o):
        return wrap(o) - self._as_read()

    def __mul__(self, o):
        return self._as_read() * o

    def __rmul__(self, o):
        return wrap(o) * self._as_read()

    def __truediv__(self, o):
        return self._as_read() / o

    def __rtruediv__(self, o):
        return wrap(o) / self._as_read()

    def __neg__(self):
        return -self._as_read()

    def __repr__(self):
        kind = "input" if self.is_input else "stage"
        return f"<{kind} {self.name}>"


def wrap(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, Stage):
        return Read(value, 0, 0)
    if isinstance(value, (int, float)):
        return Const(float(value))
    raise TerraError(f"cannot use {value!r} in an Orion expression")


def as_stage(expr, name: Optional[str] = None) -> Stage:
    """Make an expression schedulable (idempotent for stages/pure reads)."""
    if isinstance(expr, Stage):
        return expr
    if isinstance(expr, Read) and expr.dx == 0 and expr.dy == 0 and \
            name is None:
        return expr.stage
    return Stage(wrap(expr), name)


def image(name: str) -> Stage:
    """Declare a symbolic input image (float32, NxN at compile time)."""
    return Stage(None, name)


def param(name: str) -> Param:
    """Declare a runtime scalar parameter (float32)."""
    return Param(name)


def stage(expr, name: Optional[str] = None, policy: Optional[str] = None,
          bounded: bool = False) -> Stage:
    """Name an intermediate so it can be scheduled explicitly."""
    st = as_stage(expr, name)
    if policy is not None:
        if policy not in POLICIES:
            raise TerraError(f"unknown schedule policy {policy!r}")
        st.default_policy = policy
    if bounded:
        st.bounded = True
    return st


def min_(a, b) -> Expr:
    return BinOp("min", wrap(a), wrap(b))


def max_(a, b) -> Expr:
    return BinOp("max", wrap(a), wrap(b))


def clamp(x, lo, hi) -> Expr:
    return min_(max_(x, lo), hi)
