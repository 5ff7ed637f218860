"""Symbols — unique Terra variable identities.

The paper (§6.1): "Terra provides the function ``symbol``, equivalent to
LISP's gensym, which generates a globally unique identifier that can be
used to define and refer to a variable that will not be renamed" — the
mechanism for *selectively violating hygiene* in generated code (Figure 5
uses it for the register-blocking temporaries).

Hygiene itself is also implemented with symbols: every ``var`` declaration
and parameter is renamed to a fresh :class:`Symbol` during specialization
(the paper's LTDEFN/SLET freshness side-conditions), so splicing quotes
can never capture variables accidentally.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import types as T

_counter = itertools.count(1)


class Symbol:
    """A unique variable identity, optionally carrying a Terra type.

    A typed symbol can be used directly as a function parameter
    (``terra([A] : &double, ...)`` or ``terra([sym])`` when the symbol
    itself carries its type).
    """

    __slots__ = ("id", "displayname", "type")

    def __init__(self, type: Optional[T.Type] = None,  # noqa: A002
                 displayname: Optional[str] = None):
        if type is not None and not isinstance(type, T.Type):
            raise TypeError(f"symbol type must be a Terra type, got {type!r}")
        self.id = next(_counter)
        self.displayname = displayname
        self.type = type

    @property
    def name(self) -> str:
        """A readable unique name (used in diagnostics and emitted C)."""
        base = self.displayname or "v"
        return f"{base}_{self.id}"

    def __repr__(self) -> str:
        ty = f" : {self.type}" if self.type is not None else ""
        return f"${self.name}{ty}"

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other) -> bool:
        return self is other


def symbol(type: Optional[T.Type] = None,  # noqa: A002
           name: Optional[str] = None) -> Symbol:
    """Create a fresh symbol (Terra's ``symbol(type, name)``).

    Also accepts the paper's single-string form ``symbol("A")``.
    """
    if isinstance(type, str) and name is None:
        return Symbol(None, type)
    return Symbol(type, name)


def symmat(name: str, *dims: int, type: Optional[T.Type] = None):  # noqa: A002
    """Generate a (possibly multi-dimensional) matrix of symbols.

    The paper's Figure 5 helper: ``symmat("a", RM)`` gives a list of RM
    symbols; ``symmat("c", RM, RN)`` a list of RM lists of RN symbols.
    """
    if not dims:
        return symbol(type, name)
    head, *rest = dims
    return [symmat(f"{name}{i}", *rest, type=type) for i in range(head)]
