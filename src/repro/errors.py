"""Error hierarchy for the Terra reproduction.

The paper (Section 4.1, "Eager specialization with lazy typechecking")
enumerates the distinct places a combined Lua-Terra program can go wrong:

* while *specializing*: an undefined variable, an escape that evaluates to
  a value that is not a Terra term, or a type expression that evaluates to
  a value that is not a Terra type;
* while *typechecking*: an ordinary type error;
* while *linking*: a reference to a declared-but-undefined function;
* at *runtime*: traps such as out-of-bounds accesses (interpreter only).

Each of those stages gets its own exception class so callers (and tests)
can distinguish them.
"""

from __future__ import annotations


class TerraError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message: str, location: "SourceLocation | None" = None):
        self.location = location
        self.raw_message = message  # pre-formatting, for re-raising with a location
        if location is not None:
            message = f"{location}: {message}"
            caret = location.caret_block()
            if caret is not None:
                message = f"{message}\n{caret}"
        super().__init__(message)


class TerraSyntaxError(TerraError):
    """The Terra source text could not be tokenized or parsed."""


class SpecializeError(TerraError):
    """Eager specialization failed (Section 4.1).

    Raised for undefined variables, escapes yielding non-Terra values, and
    type expressions yielding non-types.
    """


class TypeCheckError(TerraError):
    """Lazy typechecking of a Terra function failed."""


class FrontendContractError(TerraError):
    """A frontend handed ``TerraFunction.define`` a definition that
    violates the frontend↔IR contract (``docs/FRONTENDS.md``) — e.g. a
    non-Symbol binder, a non-Type annotation, or an untyped-AST node
    left in the specialized tree.  Always a frontend bug, never a user
    error; enforced by :func:`repro.core.sast.validate_definition`."""


class LinkError(TerraError):
    """A called function's connected component contains an undefined
    declaration (paper Figure 4 requires every reachable function to be
    defined before execution), or a compiled unit names an external
    symbol the process does not define (it binds at load)."""


class CompileError(TerraError):
    """The backend failed to translate or build the typed IR."""


class ScheduleError(CompileError):
    """A :mod:`repro.schedule` directive cannot be applied to the kernel
    it was attached to — an unknown/ambiguous axis, an illegal
    combination (``Vectorize`` on a non-innermost or non-unit-stride
    axis, ``Parallel`` on a loop that is not the final top-level loop),
    or a ``Pack`` reaching the generic lowering pass.  The message names
    the offending directive; raised at schedule construction or at
    compile time (when the typed IR is first available), never after
    wrong code has been emitted."""


class IRVerifyError(CompileError):
    """The typed-IR verifier found a broken invariant (a compiler bug:
    either the typechecker produced a malformed tree or an optimization
    pass corrupted one).  See :mod:`repro.passes.verify`."""


class ConfigError(TerraError):
    """A ``REPRO_*`` environment variable holds a value its row in
    :mod:`repro.config` does not accept; the message names the variable,
    the value and the accepted form."""


class TrapError(TerraError):
    """A runtime trap in interpreted Terra code (bad pointer, OOB, ...)."""


class FFIError(TerraError):
    """A Python value could not be converted to/from a Terra value."""


def unexpected_keyword(name: str, kwargs: dict) -> TypeError:
    """What calling Terra function ``name`` with keyword arguments raises on
    every route: Python's own text for a function of that name (Terra
    parameters are positional only)."""
    return TypeError(f"{name}() got an unexpected keyword argument "
                     f"{next(iter(kwargs))!r}")


class SourceLocation:
    """A point in Terra source text, carried on AST nodes and errors.

    ``line_text`` — the raw source line containing the location — is
    optional context used only for error rendering (the ``^`` caret
    block); both frontends fill it in, and it is deliberately excluded
    from equality and hashing so that locations with and without the
    snippet still compare equal.
    """

    __slots__ = ("filename", "line", "column", "line_text")

    def __init__(self, filename: str, line: int, column: int,
                 line_text: "str | None" = None):
        self.filename = filename
        self.line = line
        self.column = column
        self.line_text = line_text

    def caret_block(self) -> "str | None":
        """A two-line ``source / ^`` rendering, or None without a snippet."""
        if not self.line_text:
            return None
        text = self.line_text.rstrip("\n")
        if not text.strip():
            return None
        caret = " " * (max(self.column, 1) - 1) + "^"
        return f"  {text}\n  {caret}"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"SourceLocation({self.filename!r}, {self.line}, {self.column})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLocation)
            and self.filename == other.filename
            and self.line == other.line
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash((self.filename, self.line, self.column))
