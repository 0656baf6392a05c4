"""The numpy path's count-sketch primitives and the kernel contract.

:class:`repro.sketch.CountSketch` runs :func:`apply_sign` and
:func:`median_network` on its numpy path, so they are the only bodies of
that arithmetic in the package.  The ``cs_*`` functions compose them
with :func:`bucket_sign` and :func:`repro.sketch.base.scatter_add_flat`
into flat-argument kernels with the signatures the compiled backend
(:mod:`repro.sketch.kernels.numba_jit`) mirrors; tests pin both the
sketch and the compiled kernels against them bit for bit.

The contract
------------
* **Layout.** Counters live in one flat ``(K*R,)`` float64 array;
  counter ``(e, b)`` sits at ``flat[e*R + b]`` (``offsets[e] = e*R``).
* **Hashing.** Combined multiply-shift: for table ``e`` and key ``x``,
  ``w = (x * a[e] + b[e]) mod 2^64 >> 32``; the bucket is ``w & mask``
  (power-of-two ``R``) or ``w % R``.  Rows ``K..2K-1`` of ``a``/``b``
  are the sign hashes; the sign bit is bit 0 of the same expression
  (``0 => +1``, ``1 => -1``).  All arithmetic is uint64 with wrap-around,
  matching numpy and C exactly.
* **Summation order.** :func:`repro.sketch.base.scatter_add_flat` on the
  raveled ``(K, n)`` index matrix: the bincount strategy accumulates
  every signed update into a fresh float64 accumulator in table-major
  input order (all of table 0's hits in batch order, then table 1's,
  ...), then adds the accumulator to the table elementwise; the
  small-batch strategy applies each update directly to the table in the
  same order.
* **Median.** ``K in {1, 3, 5}`` uses the min/max selection network of
  :func:`median_network`; ``np.minimum`` / ``np.maximum`` semantics (NaN
  propagates, ties keep the first operand) are part of the contract.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.families import _sign_bits_to_float
from repro.sketch.base import scatter_add_flat

__all__ = [
    "apply_sign",
    "bucket_sign",
    "cs_insert",
    "cs_query",
    "cs_insert_and_query",
    "median_network",
]

_U1 = np.uint64(1)
_U32 = np.uint64(32)

#: Crossover (elements per table) between `np.where`-based sign application
#: (fewer kernel launches — wins on small batches) and the float-conversion
#: chain (fewer memory passes — wins on large ones).  Both are exact:
#: multiplying by ±1.0 and selecting a negation produce identical floats.
_WHERE_SIGN_MAX = 8192


def bucket_sign(keys, a, b, num_buckets, mask, use_mask):
    """``(buckets, sign_bits)`` for all tables, each ``(K, n)`` uint64.

    ``a`` and ``b`` are the flattened ``(2K,)`` combined multiply-shift
    parameters (bucket rows first, sign rows after); ``keys`` is the
    uint64 view of the validated int64 key batch.
    """
    w = keys[None, :] * a[:, None]
    w += b[:, None]
    w >>= _U32
    num_tables = a.shape[0] // 2
    buckets, bits = w[:num_tables], w[num_tables:]
    if use_mask:
        buckets &= np.uint64(mask)
    else:
        buckets %= np.uint64(num_buckets)
    bits &= _U1
    return buckets, bits


def apply_sign(bits: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(K, n)`` float64 of ``x`` with signs applied from raw sign bits.

    ``x`` is either the value row ``(n,)`` (insert) or the gathered
    estimate matrix ``(K, n)`` (query); ``bits`` is the ``(K, n)`` uint64
    bit matrix (``0 => +1``, ``1 => -1``).
    """
    if bits.shape[-1] <= _WHERE_SIGN_MAX:
        return np.where(bits, -x, x)
    return _sign_bits_to_float(bits) * x


def median_network(est: np.ndarray) -> np.ndarray:
    """Median along axis 0, specialised for the tiny odd ``K`` sketches use.

    For ``K`` in {1, 3, 5} the median of each column is selected with a
    min/max network — a handful of full-width vector ops instead of the
    per-column partition ``np.median`` runs.  Selection returns exactly the
    middle element, so the result is bit-identical to ``np.median`` (which
    for odd ``K`` also returns an element, not an average).  Other ``K``
    fall back to ``np.median``; the compiled kernels claim only the three
    network widths.
    """
    k = est.shape[0]
    if k == 1:
        return est[0]
    if k == 3:
        e0, e1, e2 = est
        return np.maximum(np.minimum(e0, e1), np.minimum(np.maximum(e0, e1), e2))
    if k == 5:
        e0, e1, e2, e3, e4 = est
        lo01, hi01 = np.minimum(e0, e1), np.maximum(e0, e1)
        lo23, hi23 = np.minimum(e2, e3), np.maximum(e2, e3)
        lo = np.maximum(lo01, lo23)  # 3rd-smallest candidate from below
        hi = np.minimum(hi01, hi23)  # 3rd-smallest candidate from above
        m1, m2 = np.minimum(lo, hi), np.maximum(lo, hi)
        return np.minimum(np.maximum(e4, m1), m2)
    return np.median(est, axis=0)


def _flat_indices(buckets, offsets):
    return (buckets + offsets[:, None]).view(np.int64)


def cs_insert(
    flat, keys, values, a, b, offsets, num_buckets, mask, use_mask, use_bincount
):
    """Scatter one signed batch into the flat count-sketch table."""
    buckets, bits = bucket_sign(keys, a, b, num_buckets, mask, use_mask)
    scatter_add_flat(
        flat,
        _flat_indices(buckets, offsets).ravel(),
        apply_sign(bits, values).ravel(),
        use_bincount=use_bincount,
    )


def cs_query(flat, keys, a, b, offsets, num_buckets, mask, use_mask, out):
    """Median-of-tables estimates for a key batch."""
    buckets, bits = bucket_sign(keys, a, b, num_buckets, mask, use_mask)
    gathered = flat[_flat_indices(buckets, offsets)]
    out[:] = median_network(apply_sign(bits, gathered))


def cs_insert_and_query(
    flat,
    keys,
    values,
    a,
    b,
    offsets,
    num_buckets,
    mask,
    use_mask,
    use_bincount,
    out,
):
    """Insert a batch, then estimate the same keys post-insert."""
    cs_insert(
        flat, keys, values, a, b, offsets, num_buckets, mask, use_mask, use_bincount
    )
    cs_query(flat, keys, a, b, offsets, num_buckets, mask, use_mask, out)
