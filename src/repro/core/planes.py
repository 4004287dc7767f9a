"""Storage-plane input: dtype resolution and the zero-copy contract.

Every array-backed sampler stores its points in value order in NumPy
storage — :class:`~repro.core.static_irs.StaticIRS` in one 1-D *plane*,
the dynamic kinds in the rows of a slab (:mod:`repro.core.directory`).
:func:`as_plane` is the single entry point that turns caller input into
a sorted 1-D plane: it resolves the plane dtype (``float32`` or
``float64``), converts through :func:`~repro.core.base.round_to_plane`
(so a finite value beyond a float32 plane's range is refused, not
stored as ``±inf``), verifies sortedness in one vectorized pass, and
implements the copy modes of ``from_sorted``:

* ``copy=True`` (default): the input is materialized into a **fresh**
  array of the resolved dtype — the structure owns its storage and later
  caller mutations cannot reach it.
* ``copy=False``: the caller's array is adopted **as-is** — the returned
  plane *is* the input array.  Only ``StaticIRS`` adopts: a padded slab
  cannot.  Adoption is strict: the input must already be a 1-D,
  C-contiguous NumPy array of exactly the resolved dtype, otherwise
  :class:`~repro.errors.ZeroCopyError` is raised instead of silently
  copying.  Mutating the caller's array after adoption is **undefined
  behavior** (the structure never mutates adopted storage itself, but
  reads alias it).
* ``copy=None``: convert only if needed — for the dynamic kinds, which
  copy the result once more, straight into their slab.

Dtype resolution: an explicit ``dtype=`` wins; otherwise a float32 or
float64 ndarray input keeps its dtype, and everything else (lists,
generators, integer or float16 arrays) lands on float64.
"""

from __future__ import annotations

import numpy as _np

from ..errors import InvalidQueryError, ZeroCopyError
from .base import round_to_plane

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


def as_plane(values, *, dtype=None, copy: bool | None = True):
    """Materialize ``values`` as a sorted 1-D storage plane.

    Returns a NumPy array of the resolved dtype.  With ``copy=False`` the
    returned array *is* ``values`` (zero-copy adoption — strict contract,
    see module docstring); with ``copy=True`` it is always freshly owned;
    with ``copy=None`` it is ``values`` itself when that already has the
    resolved dtype.  Raises :class:`~repro.errors.InvalidQueryError` if
    the input holds a NaN or overflows a float32 plane, and
    :class:`ValueError` if it is not nondecreasing.
    """
    resolved = resolve_dtype(values, dtype)
    if copy is False:
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
    else:
        if not isinstance(values, _np.ndarray):
            values = list(values)
        arr = round_to_plane(values, resolved)
        if copy and arr is values:
            arr = arr.copy()
        if arr.ndim != 1:
            raise ValueError(f"plane input must be 1-D, got shape {arr.shape}")
    # Written so that NaN fails it too: every comparison with a NaN is
    # False, and the first element covers the one-point plane.
    if arr.size and not ((arr[1:] >= arr[:-1]).all() and arr[0] == arr[0]):
        if _np.isnan(arr).any():
            raise InvalidQueryError("points must not be NaN")
        raise ValueError("from_sorted requires nondecreasing input")
    return arr
