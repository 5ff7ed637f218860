"""The shape unit, a scalar signature's warm call in C against the CPython
API (docs/INTERNALS.md "What runs per warm call"): ``make(name, address,
plan, trap, active)`` calls ``address``, or ``plan`` with what it refuses."""

from __future__ import annotations

from ...core import types as T

_UNIT = r"""/* repro shape unit %(key)r; %(abi)s */
#include <Python.h>
typedef struct { void *fn; const int *active; PyMethodDef def; char name[]; } Entry;
static PyObject *call(PyObject *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames) {
  Entry *e = (Entry *)PyBytes_AS_STRING(PyTuple_GET_ITEM(self, 0));
  int32_t code = 0;%(decls)s
  if (nargs != %(arity)d || kwnames || *e->active) goto refuse;%(convert)s
  Py_BEGIN_ALLOW_THREADS %(call)s; Py_END_ALLOW_THREADS
  if (code) return PyObject_CallFunction(PyTuple_GET_ITEM(self, 2), "i", code);
  %(result)s;
refuse:
  return PyObject_Vectorcall(PyTuple_GET_ITEM(self, 1), args, nargs, kwnames);
}
PyObject *make(const char *name, void *fn, PyObject *plan, PyObject *trap, const int *active) {
  size_t n = strlen(name) + 1;
  PyObject *data = PyBytes_FromStringAndSize(NULL, sizeof(Entry) + n), *self;
  Entry *e = data ? (Entry *)PyBytes_AS_STRING(data) : NULL;
  if (!e) return NULL;
  e->fn = fn; e->active = active; memcpy(e->name, name, n);
  e->def = (PyMethodDef){e->name, (PyCFunction)(void (*)(void))call, METH_FASTCALL | METH_KEYWORDS};
  self = PyTuple_Pack(3, data, plan, trap);     /* the collector sees it */
  Py_DECREF(data);
  data = self ? PyCFunction_NewEx(&e->def, self, NULL) : NULL;
  Py_XDECREF(self);
  return data;
}
"""
_CTYPES = {"float": "float", "double": "double", "bool": "uint8_t"}
#: an exact int, masked as argtypes does; for a float, an exact float or int
_INT = """
  if (!PyLong_CheckExact(args[%(i)d])) goto refuse;
  a%(i)d = (%(ty)s)PyLong_AsUnsignedLongLongMask(args[%(i)d]);"""
_FLOAT = """
  if (!PyFloat_CheckExact(args[%(i)d]) && !PyLong_CheckExact(args[%(i)d])) goto refuse;
  if ((a%(i)d = PyFloat_AsDouble(args[%(i)d])) == -1 && PyErr_Occurred())
    { PyErr_Clear(); goto refuse; }"""


def shape(ftype: T.FunctionType, guarded: bool):
    """``(parameter types, result type or None, guarded)`` by name of a
    scalar signature (non-``bool`` primitives in, primitive or unit out)."""
    ret = ftype.returntype
    if (isinstance(ret, T.PrimitiveType) or ret.isunit()) and all(
            isinstance(ty, T.PrimitiveType) and not ty.islogical()
            for ty in ftype.parameters):
        return (tuple(ty.name for ty in ftype.parameters),
                None if ret.isunit() else ret.name, guarded)


def source(key, abi: str) -> str:
    """The C of the unit of shape ``key`` for the CPython ABI ``abi``."""
    params, ret, guarded = key
    types = [_CTYPES.get(name, f"{name}_t") for name in params]
    rty = "void" if ret is None else _CTYPES.get(ret, f"{ret}_t")
    call = "((%s (*)(%s))e->fn)(%s)" % (
        rty, ", ".join(types + ["int32_t *"] * guarded) or "void",
        ", ".join([f"a{i}" for i in range(len(params))] + ["&code"] * guarded))
    box = ("PyFloat_FromDouble" if ret in ("float", "double") else
           "PyBool_FromLong" if ret == "bool" else "PyLong_FromUnsignedLongLong"
           if ret and ret[0] == "u" else "PyLong_FromLongLong")
    return _UNIT % {
        "key": key, "abi": abi, "arity": len(params),
        "decls": "".join(f" {ty} a{i};" for i, ty in enumerate(types))
                 + ("" if ret is None else f" {rty} r;"),
        "convert": "".join((_FLOAT if ty in ("float", "double") else _INT)
                           % {"i": i, "ty": ty} for i, ty in enumerate(types)),
        "call": call if ret is None else f"r = {call}",
        "result": "Py_RETURN_NONE" if ret is None else f"return {box}(r)"}
