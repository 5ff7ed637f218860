"""Profile-guided respecialization — splice observed-stable arguments
into a staged variant, guarded at entry.

This is the paper's core claim ("staging *is* the optimization
mechanism") exercised dynamically: tier-0 value profiling
(:meth:`repro.exec.dispatch.TierState.observe`) finds scalar parameters
that hold the same value on every observed call — loop trip counts,
strides, radii — and we build a *variant* function whose specialized
tree is the original's with those parameter reads replaced by literal
:class:`~repro.core.sast.SConst` nodes.  The variant compiles through the
normal pipeline (fold/simplify see real constants, gcc sees fixed trip
counts it can unroll and vectorize), and the dispatcher calls it only
when an entry guard re-checks the observed values; a guard miss is a
counted *deoptimization* that falls back to the generic compiled entry.

Safety rules (a parameter is only spliced when all hold):

* its type is integral or bool — float equality is treacherous
  (``-0.0 == 0.0``, NaN) and would let a guard pass values the constant
  does not represent;
* it is never assigned in the body and never has its address taken —
  a written parameter is a local variable, not a constant;
* the guard compares *converted* machine values (`python_to_primitive`),
  so wrapped out-of-range Python ints guard exactly like they convert.
"""

from __future__ import annotations

from .. import trace
from ..backend.base import CompileTicket
from ..core import sast
from ..core import types as T
from ..ffi import convert
from ..trace.metrics import registry
from .dispatch import VARYING


def guardable_type(ty) -> bool:
    """Types whose equality guard is exact: integral + bool primitives."""
    return isinstance(ty, T.PrimitiveType) and (ty.isintegral()
                                                or ty.islogical())


# -- body analysis -----------------------------------------------------------

def _param_mutated(node, symbol) -> bool:
    """True if ``symbol`` is ever assigned or address-taken in ``node``."""
    if isinstance(node, sast.SAssign):
        for target in node.lhs:
            if isinstance(target, sast.SVar) and target.symbol is symbol:
                return True
        return any(_param_mutated(getattr(node, f), symbol)
                   for f in node._fields)
    if isinstance(node, sast.SUnOp) and node.op == "&":
        operand = node.operand
        if isinstance(operand, sast.SVar) and operand.symbol is symbol:
            return True
        return _param_mutated(operand, symbol)
    if isinstance(node, sast.SMethodCall):
        # obj:m(...) takes obj's address implicitly when resolving methods
        obj = node.obj
        if isinstance(obj, sast.SVar) and obj.symbol is symbol:
            return True
    if isinstance(node, sast.SNode):
        return any(_param_mutated(getattr(node, f), symbol)
                   for f in node._fields)
    if isinstance(node, (list, tuple)):
        return any(_param_mutated(x, symbol) for x in node)
    if isinstance(node, sast.SCtorField):
        return _param_mutated(node.value, symbol)
    return False


def _substitute(node, symbol, make_const):
    """Replace every read of ``symbol`` with a fresh constant node."""
    if isinstance(node, sast.SVar) and node.symbol is symbol:
        return make_const()
    if isinstance(node, sast.SNode):
        for field in node._fields:
            setattr(node, field,
                    _substitute(getattr(node, field), symbol, make_const))
        return node
    if isinstance(node, list):
        return [_substitute(x, symbol, make_const) for x in node]
    if isinstance(node, tuple):
        return tuple(_substitute(x, symbol, make_const) for x in node)
    if isinstance(node, sast.SCtorField):
        node.value = _substitute(node.value, symbol, make_const)
        return node
    return node


# -- constant selection ------------------------------------------------------

def stable_consts(fn, profile, min_observations: int = 1) -> dict[int, object]:
    """Pick ``{param index: machine value}`` worth splicing from a tier-0
    value profile (:attr:`repro.exec.dispatch.TierState.profile`: one
    ``[observations, value | VARYING]`` slot per parameter).  Only stable,
    guardable, never-mutated scalar parameters qualify."""
    consts: dict[int, object] = {}
    if fn.body is None:
        return consts
    for i, (ty, (seen, value)) in enumerate(zip(fn.param_types, profile)):
        if value is VARYING or seen < max(1, min_observations):
            continue
        if not guardable_type(ty):
            continue
        try:
            machine = convert.python_to_primitive(value, ty)
        except Exception:
            continue
        if _param_mutated(fn.body, fn.param_symbols[i]):
            continue
        consts[i] = machine
    return consts


# -- variant construction ----------------------------------------------------

_variant_ids = {}


def specialize_variant(fn, consts: dict[int, object]):
    """Build an (uncompiled) variant of ``fn`` with the parameters in
    ``consts`` spliced as literals.  The variant keeps the full parameter
    list — callers pass the same arguments, the spliced ones are simply
    ignored — so the generic and specialized entries are drop-in
    interchangeable.  Returns None when nothing can be spliced."""
    from ..core.function import TerraFunction

    if not consts or fn.body is None or fn.is_external:
        return None
    body = sast.copy_tree(fn.body)
    for i, machine in consts.items():
        ty = fn.param_types[i]
        symbol = fn.param_symbols[i]
        body = _substitute(
            body, symbol,
            lambda m=machine, t=ty: sast.SConst(m, t, fn.location))
    n = _variant_ids.get(fn.uid, 0) + 1
    _variant_ids[fn.uid] = n
    variant = TerraFunction(f"{fn.name}_spec{n}", fn.location)
    variant.define(list(fn.param_symbols), list(fn.param_types),
                   fn.declared_rettype, body)
    return variant


class Respecialized:
    """A guarded specialized variant: the variant function, the guard
    values, and its compiled handle."""

    __slots__ = ("variant", "consts", "param_types", "handle", "hits")

    def __init__(self, fn, variant, consts: dict[int, object], handle) -> None:
        self.variant = variant
        self.consts = consts
        self.param_types = fn.param_types
        self.handle = handle
        self.hits = 0

    def matches(self, args) -> bool:
        """The entry guard: do ``args`` convert to exactly the machine
        values that were spliced?  An ``int`` equal to one converts to
        itself, so passes on the compare.  Conversion errors guard as a
        miss (the generic entry then raises the identical FFI error)."""
        if len(args) != len(self.param_types):
            return False
        for i, machine in self.consts.items():
            arg = args[i]
            if type(arg) is int and arg == machine:
                continue
            try:
                if convert.python_to_primitive(
                        arg, self.param_types[i]) != machine:
                    return False
            except Exception:
                return False
        return True

    def __repr__(self) -> str:
        return (f"<Respecialized {self.variant.name!r} "
                f"consts={self.consts} hits={self.hits}>")


def stage_variant(fn, profile, min_observations: int = 1):
    """The respecialized half of a tier-up: pick constants, build the
    variant and start compiling it on the C backend.  Returns a
    :class:`~repro.backend.base.CompileTicket` whose ``result()`` is the
    bound :class:`Respecialized`, or None when nothing can be spliced."""
    consts = stable_consts(fn, profile, min_observations)
    variant = specialize_variant(fn, consts)
    if variant is None:
        return None
    registry().add("exec.respecialize")
    trace.instant("exec.respecialize", cat="exec", fn=fn.name,
                  variant=variant.name,
                  consts={str(k): v for k, v in consts.items()})
    return CompileTicket(
        variant.dispatcher.compile_async("c"),
        lambda handle: Respecialized(fn, variant, consts, handle))
