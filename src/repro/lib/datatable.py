"""``DataTable`` — programmable data layout, paper §6.3.2.

    "A Lua function DataTable takes a Lua table specifying the fields of
    the record and how to store them (AoS or SoA), returning a new Terra
    type. ... The interface abstracts the layout of the data, so it can be
    changed just by replacing 'AoS' with 'SoA'."

The returned Terra struct type has methods:

* ``t:init(n)`` / ``t:free()`` — allocate/release storage for n rows,
* ``t:rows()`` — the row count,
* ``t:row(i)`` — a lightweight row handle (a value struct),
* per field ``F``: ``row:F()`` (get) and ``row:setF(v)`` (set).

Both layouts expose the identical interface, so switching between
array-of-structs and struct-of-arrays is a one-word change — the paper's
Figure 9 benchmarks are written once against this interface.
"""

from __future__ import annotations

from .. import includec, pointer, struct, terra
from ..core import types as T
from ..errors import TypeCheckError

_std = includec("stdlib.h")

_counter = [0]


def DataTable(fields: dict[str, T.Type], layout: str = "AoS",
              block: int = 8) -> T.StructType:
    """Create a table type with the given fields and storage layout.

    Layouts: ``"AoS"`` (array of structs), ``"SoA"`` (struct of arrays),
    or ``"AoSoA"`` (arrays of ``block``-row tiles, each tile struct-of-
    arrays — the hybrid that keeps whole records nearby while giving
    vector units contiguous lanes).
    """
    if layout not in ("AoS", "SoA", "AoSoA"):
        raise TypeCheckError(
            f"layout must be 'AoS', 'SoA' or 'AoSoA', got {layout!r}")
    for name, ftype in fields.items():
        coerced = T.coerce_to_type(ftype)
        if coerced is None:
            raise TypeCheckError(f"field {name!r} needs a Terra type")
        fields[name] = coerced
    _counter[0] += 1
    uid = _counter[0]
    if layout == "AoS":
        return _make_aos(fields, uid)
    if layout == "SoA":
        return _make_soa(fields, uid)
    return _make_aosoa(fields, uid, block)


def map_rows(Table: T.StructType, bodyfn, name: str = "maprows"):
    """Stage a kernel that applies ``bodyfn`` to every row of a table.

    ``bodyfn(row)`` receives the row-handle *symbol* and returns a quote
    (or list of quotes) for the per-row body — the same contract as
    ``blockedloop``'s body generator.  The result is a Terra function
    ``f(t : &Table, n : int64)`` whose final loop runs over row indices,
    so its ``chunked`` twin can be dispatched across workers with
    :func:`parallel_map_rows` (or :func:`repro.parallel.parallel_for`);
    it is called serially as it is.  Rows are independent: the body must
    only touch its own row for a parallel dispatch to be sound.
    """
    from .. import pointer as _pointer, symbol, terra as _terra
    t = symbol(_pointer(Table), "t")
    n = symbol(T.int64, "n")
    i = symbol(T.int64, "i")
    row = symbol(None, "row")
    body = bodyfn(row)
    fn = _terra("""
    terra([t], [n]) : {}
      for [i] = 0, [n] do
        var [row] = [t]:row([i])
        [body]
      end
    end
    """, env={"t": t, "n": n, "i": i, "row": row, "body": body})
    fn.name = name
    return fn


def parallel_map_rows(kernel, table, nrows: int, *args,
                      nthreads: int = 0, grain: int = 1) -> None:
    """Run a :func:`map_rows` kernel over ``table``'s rows in parallel.

    ``table`` is the ``&Table`` cdata pointer, ``nrows`` the row count;
    extra ``args`` follow the kernel's own extra parameters.  For AoSoA
    tables pass ``grain=block`` so whole tiles stay on one worker."""
    from ..parallel import parallel_for
    parallel_for(kernel.chunked, 0, nrows, table, nrows, *args,
                 nthreads=nthreads, grain=grain)


def _make_aos(fields: dict[str, T.Type], uid: int) -> T.StructType:
    Record = struct(f"Record{uid}")
    for name, ftype in fields.items():
        Record.add_entry(name, ftype)
    Table = struct(f"TableAoS{uid}")
    Table.add_entry("data", pointer(Record))
    Table.add_entry("n", T.int64)
    Row = struct(f"RowAoS{uid}")
    Row.add_entry("rec", pointer(Record))

    env = {"Table": Table, "Row": Row, "Record": Record, "std": _std}
    terra("""
    terra Table:init(n : int64) : {}
      self.data = [&Record](std.malloc(n * sizeof(Record)))
      self.n = n
    end
    terra Table:free() : {}
      std.free(self.data)
      self.data = nil
      self.n = 0
    end
    terra Table:rows() : int64
      return self.n
    end
    terra Table:row(i : int64) : Row
      return Row { &self.data[i] }
    end
    """, env=env)
    for name, ftype in fields.items():
        fenv = {"Row": Row, "ftype": ftype, "fname": name}
        getter = terra("""
        terra(self : &Row) : ftype
          return self.rec.[fname]
        end
        """, env=fenv)
        setter = terra("""
        terra(self : &Row, v : ftype) : {}
          self.rec.[fname] = v
        end
        """, env=fenv)
        Row.methods[name] = getter
        Row.methods["set" + name] = setter
    Table.metadata = {"layout": "AoS", "fields": dict(fields), "row": Row,
                      "record": Record}
    return Table


def _make_soa(fields: dict[str, T.Type], uid: int) -> T.StructType:
    Table = struct(f"TableSoA{uid}")
    for name, ftype in fields.items():
        Table.add_entry(name, pointer(ftype))
    Table.add_entry("n", T.int64)
    Row = struct(f"RowSoA{uid}")
    Row.add_entry("t", pointer(Table))
    Row.add_entry("i", T.int64)

    allocs = []
    frees = []
    from .. import quote_, symbol
    self_sym = symbol(pointer(Table), "self")
    n_sym = symbol(T.int64, "n")
    for name, ftype in fields.items():
        allocs.append(quote_(
            "[self_sym].[fname] = [&ftype](std.malloc([n_sym] * sizeof(ftype)))",
            env={"self_sym": self_sym, "fname": name, "ftype": ftype,
                 "n_sym": n_sym, "std": _std}))
        frees.append(quote_(
            "std.free([self_sym].[fname])",
            env={"self_sym": self_sym, "fname": name, "std": _std}))

    env = {"Table": Table, "Row": Row, "std": _std,
           "self_sym": self_sym, "n_sym": n_sym,
           "allocs": allocs, "frees": frees}
    init = terra("""
    terra([self_sym], [n_sym]) : {}
      [allocs]
      [self_sym].n = [n_sym]
    end
    """, env=env)
    free = terra("""
    terra([self_sym]) : {}
      [frees]
      [self_sym].n = 0
    end
    """, env=env)
    Table.methods["init"] = init
    Table.methods["free"] = free
    terra("""
    terra Table:rows() : int64
      return self.n
    end
    terra Table:row(i : int64) : Row
      return Row { self, i }
    end
    """, env=env)
    for name, ftype in fields.items():
        fenv = {"Row": Row, "ftype": ftype, "fname": name}
        getter = terra("""
        terra(self : &Row) : ftype
          return self.t.[fname][self.i]
        end
        """, env=fenv)
        setter = terra("""
        terra(self : &Row, v : ftype) : {}
          self.t.[fname][self.i] = v
        end
        """, env=fenv)
        Row.methods[name] = getter
        Row.methods["set" + name] = setter
    Table.metadata = {"layout": "SoA", "fields": dict(fields), "row": Row}
    return Table


def _make_aosoa(fields: dict[str, T.Type], uid: int,
                block: int) -> T.StructType:
    """Tiled hybrid: storage is ceil(n/B) tiles; within a tile, each
    field's B values are contiguous."""
    if block < 1:
        raise TypeCheckError(f"AoSoA block must be positive, got {block}")
    # per-field byte offset of its lane array within one tile
    offsets: dict[str, int] = {}
    running = 0
    for name, ftype in fields.items():
        size, align = ftype.layout()
        running = (running + align - 1) & ~(align - 1)
        offsets[name] = running
        running += size * block
    tile_bytes = (running + 15) & ~15  # keep tiles 16-aligned

    Table = struct(f"TableAoSoA{uid}")
    Table.add_entry("data", pointer(T.uint8))
    Table.add_entry("n", T.int64)
    Row = struct(f"RowAoSoA{uid}")
    Row.add_entry("t", pointer(Table))
    Row.add_entry("i", T.int64)

    env = {"Table": Table, "Row": Row, "std": _std,
           "B": block, "TILE": tile_bytes}
    terra("""
    terra Table:init(n : int64) : {}
      var tiles = (n + [B - 1]) / B
      self.data = [&uint8](std.malloc(tiles * TILE))
      self.n = n
    end
    terra Table:free() : {}
      std.free(self.data)
      self.data = nil
      self.n = 0
    end
    terra Table:rows() : int64
      return self.n
    end
    terra Table:row(i : int64) : Row
      return Row { self, i }
    end
    """, env=env)
    for name, ftype in fields.items():
        fenv = {"Row": Row, "ftype": ftype, "B": block,
                "TILE": tile_bytes, "OFF": offsets[name],
                "SZ": ftype.sizeof()}
        getter = terra("""
        terra(self : &Row) : ftype
          var base = (self.i / B) * TILE + OFF + (self.i % B) * SZ
          return @[&ftype](&self.t.data[base])
        end
        """, env=fenv)
        setter = terra("""
        terra(self : &Row, v : ftype) : {}
          var base = (self.i / B) * TILE + OFF + (self.i % B) * SZ
          @[&ftype](&self.t.data[base]) = v
        end
        """, env=fenv)
        Row.methods[name] = getter
        Row.methods["set" + name] = setter
    Table.metadata = {"layout": "AoSoA", "fields": dict(fields), "row": Row,
                      "block": block, "tile_bytes": tile_bytes}
    return Table
