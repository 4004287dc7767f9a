"""Storage-plane adoption: dtype resolution and the zero-copy contract.

Every array-backed sampler stores its points in one or more *planes* —
1-D NumPy arrays in value order.  :func:`as_plane` is the single entry
point that turns caller input into a plane: it resolves the plane dtype
(``float32`` or ``float64``), verifies sortedness in one vectorized pass,
and implements the ``copy=False`` zero-copy adoption contract of
``from_sorted``:

* ``copy=True`` (default): the input is materialized into a **fresh**
  array of the resolved dtype — the structure owns its storage and later
  caller mutations cannot reach it.
* ``copy=False``: the caller's array is adopted **as-is** — the returned
  plane *is* the input array (chunked structures slice views of it).
  Adoption is strict: the input must already be a 1-D, C-contiguous
  NumPy array of exactly the resolved dtype, otherwise
  :class:`~repro.errors.ZeroCopyError` is raised instead of silently
  copying.  Mutating the caller's array after adoption is **undefined
  behavior** (the structures never mutate adopted storage themselves —
  all chunk mutations are copy-on-write — but reads alias it).

Dtype resolution: an explicit ``dtype=`` wins; otherwise a float32 or
float64 ndarray input keeps its dtype, and everything else (lists,
generators, integer or float16 arrays) lands on float64.
"""

from __future__ import annotations

import numpy as _np

from ..errors import InvalidQueryError, ZeroCopyError

__all__ = ["PLANE_DTYPES", "resolve_dtype", "as_plane"]

#: The value-plane dtypes the storage tier supports.
PLANE_DTYPES = (_np.dtype(_np.float32), _np.dtype(_np.float64))


def resolve_dtype(values, dtype) -> _np.dtype:
    """Resolve the plane dtype for ``values`` (see module docstring)."""
    if dtype is not None:
        resolved = _np.dtype(dtype)
        if resolved not in PLANE_DTYPES:
            raise ValueError(
                f"unsupported plane dtype {resolved!r}; expected float32 or float64"
            )
        return resolved
    if isinstance(values, _np.ndarray) and values.dtype in PLANE_DTYPES:
        return values.dtype
    return PLANE_DTYPES[1]


def as_plane(values, *, dtype=None, copy: bool = True):
    """Materialize ``values`` as a sorted 1-D storage plane.

    Returns a NumPy array of the resolved dtype.  With ``copy=False`` the
    returned array *is* ``values`` (zero-copy adoption — strict contract,
    see module docstring); with ``copy=True`` it is always freshly owned.
    Raises :class:`~repro.errors.InvalidQueryError` if the input holds a
    NaN and :class:`ValueError` if it is not nondecreasing.
    """
    resolved = resolve_dtype(values, dtype)
    if copy:
        if not isinstance(values, _np.ndarray):
            values = _np.asarray(list(values), dtype=resolved)
        arr = _np.array(values, dtype=resolved, copy=True, order="C")
        if arr.ndim != 1:
            raise ValueError(f"plane input must be 1-D, got shape {arr.shape}")
    else:
        arr = values
        if not isinstance(arr, _np.ndarray):
            raise ZeroCopyError(
                f"copy=False requires a NumPy array, got {type(arr).__name__}"
            )
        if arr.dtype != resolved:
            raise ZeroCopyError(
                f"copy=False requires dtype {resolved}, got {arr.dtype} "
                "(convert first or pass copy=True)"
            )
        if arr.ndim != 1:
            raise ZeroCopyError(f"copy=False requires a 1-D array, got {arr.ndim}-D")
        if not arr.flags["C_CONTIGUOUS"]:
            raise ZeroCopyError(
                "copy=False requires a C-contiguous array (strided views "
                "cannot be adopted; pass copy=True)"
            )
    # Written so that NaN fails it too: every comparison with a NaN is
    # False, and the first element covers the one-point plane.
    if arr.size and not ((arr[1:] >= arr[:-1]).all() and arr[0] == arr[0]):
        if _np.isnan(arr).any():
            raise InvalidQueryError("points must not be NaN")
        raise ValueError("from_sorted requires nondecreasing input")
    return arr
