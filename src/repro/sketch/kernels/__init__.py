"""The compiled-or-numpy decision for the count-sketch hot paths.

The scatter/gather/median loop is the entire ingest and query cost of the
system, so it is worth compiling.  This package holds the two
implementations of the hot primitives and is the only module that knows
which one runs:

* :mod:`repro.sketch.kernels.numpy_ref` — the numpy path's primitives.
  :class:`~repro.sketch.CountSketch` runs its sign application and
  min/max-network median on every numpy-path insert and query; the
  flat-argument ``cs_insert``/``cs_query``/``cs_insert_and_query``
  compose them with the combined multiply-shift hash and
  :func:`~repro.sketch.base.scatter_add_flat`, and state the contract
  (layout, hash arithmetic, summation order) the compiled module meets.
* :mod:`repro.sketch.kernels.numba_jit` — the same ``cs_*`` kernels
  compiled with numba.  Identical ``(K*R,)`` flat layout, identical
  uint64 hash arithmetic, identical accumulation order, so results are
  bit-identical to the numpy path (the conformance suite enforces this
  per path).

Count-min has no compiled path: :class:`~repro.sketch.CountMinSketch`
always runs numpy.

Path selection
--------------
There is no option to set.  A count sketch takes the compiled path
whenever numba is importable (:func:`numba_kernels` returns the module)
and its configuration is eligible: the fused multiply-shift family,
float64 counters that are not memory-mapped.  Every other case — numba
not installed, a non-fused hash family, quantized or widened storage,
serving snapshots — runs the numpy path.  Both paths compute the same
estimates bit for bit, so the choice changes throughput only.

The path is **runtime state of the process, not of the sketch**: it never
enters :func:`repro.sketch.serialization.sketch_to_arrays`, so snapshots
are byte-identical across hosts and a file written on a numba host loads
on a numpy-only one.
"""

from __future__ import annotations

__all__ = [
    "available_backends",
    "numba_available",
    "numba_version",
    "numba_kernels",
]

#: Lazy one-shot import state for the compiled module.  This is the test
#: seam: tests monkeypatch these two to force the numpy path (or a stand-in
#: module) deterministically, whether or not numba is installed.
_jit_checked = False
_jit_module = None


def numba_kernels():
    """The compiled kernel module, or ``None`` when numba is unavailable.

    The import is attempted once per process; any failure (numba absent,
    broken install) is treated as "unavailable" — callers fall back to
    the numpy path rather than surfacing an import error from deep
    inside an insert.
    """
    global _jit_checked, _jit_module
    if not _jit_checked:
        _jit_checked = True
        try:
            from repro.sketch.kernels import numba_jit

            _jit_module = numba_jit
        except Exception:
            _jit_module = None
    return _jit_module


def numba_available() -> bool:
    """Whether the compiled backend can actually be used."""
    return numba_kernels() is not None


def numba_version() -> str | None:
    """The importable numba version string, or ``None``."""
    module = numba_kernels()
    return None if module is None else module.NUMBA_VERSION


def available_backends() -> tuple[str, ...]:
    """Concrete backends usable in this process, numpy first."""
    if numba_available():
        return ("numpy", "numba")
    return ("numpy",)
