"""Counting the numpy calls a computation makes.

Counted is an ndarray subclass whose __array_ufunc__ and
__array_function__ count one call each and then run it on plain
ndarrays, wrapping array results back into Counted.  A computation fed
Counted inputs propagates the subclass to every array it derives from
them, so Counted.calls counts its ufunc calls (operators, np.where's
comparisons, reductions) and array-function calls (np.where,
np.count_nonzero, np.vstack, ...) on those arrays.  Calls on arrays
built from constants alone, ndarray methods (argmin, ravel) and
indexing are not counted.
"""

import numpy as np


class Counted(np.ndarray):
    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Counted.calls += 1
        if "out" in kwargs:
            kwargs["out"] = _plain(kwargs["out"])
        return _wrap(getattr(ufunc, method)(*_plain(inputs), **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        Counted.calls += 1
        return _wrap(func(*_plain(args), **_plain(kwargs)))


def _plain(v):
    if isinstance(v, Counted):
        return v.view(np.ndarray)
    if isinstance(v, (tuple, list)):
        return type(v)(_plain(i) for i in v)
    if isinstance(v, dict):
        return {k: _plain(i) for k, i in v.items()}
    return v


def _wrap(v):
    if type(v) is np.ndarray:
        return v.view(Counted)
    if isinstance(v, tuple):
        return tuple(_wrap(i) for i in v)
    return v


def count_calls(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the numpy calls it made on Counted arrays)."""
    Counted.calls = 0
    result = fn(*args, **kwargs)
    return result, Counted.calls
