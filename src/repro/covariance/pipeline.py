"""One-pass streaming pipeline: samples ``Y^(t)`` -> pair updates -> sketch.

This is the glue that makes Algorithm 1/2 of the paper operate on raw data
streams.  Responsibilities:

* maintain per-feature running moments (mean for centering, std for the
  correlation normalisation used throughout the paper's experiments);
* expand each batch of samples into covariance-entry updates (dense GEMM
  path or sparse pair-expansion path, section 5);
* feed the updates to any streaming estimator (vanilla CS, ASCS, ASketch,
  Cold Filter) through the uniform ``ingest(keys, values, num_samples)``
  interface;
* convert retrieval results back from flat pair keys to ``(i, j)`` pairs.

Batching is exact for the sketch content (linear sketches commute with
summation); it only coarsens the *sampling decision* grid of ASCS, which is
the documented production trade-off (DESIGN.md).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.covariance.running import RunningMoments, SparseMoments
from repro.covariance.updates import (
    adjustment_matrix,
    aggregate_pair_updates,
    dense_batch_products,
    sparse_batch_pairs,
    triu_pair_values,
)
from repro.hashing.pairs import index_to_pair, num_pairs
from repro.sketch.topk import scan_top_keys

__all__ = ["CovarianceSketcher", "InvalidBatchError", "validate_samples"]

_CENTERING_MODES = ("none", "running", "exact")
_VALUE_MODES = ("covariance", "correlation")
_INT64_MAX = np.iinfo(np.int64).max


class InvalidBatchError(ValueError):
    """A sparse ingest batch that cannot be applied as given.

    The caller's input is at fault, not the write path: the HTTP layer
    answers 400 and the ingest circuit breaker does not count it.
    """


def as_index_array(raw) -> np.ndarray:
    """``raw`` as int64 indices, refusing entries a cast would bend.

    ``np.asarray(raw, dtype=np.int64)`` truncates floats, parses numeric
    strings, reads booleans as 0/1 and overflows on huge ints; here every
    entry must already be an integer within int64 (empty input passes),
    else ``ValueError``.
    """
    arr = np.asarray(raw)
    kind = arr.dtype.kind
    if arr.size and (kind not in "iu" or (kind == "u" and arr.max() > _INT64_MAX)):
        raise ValueError("indices must be integers within the int64 range")
    return arr.astype(np.int64, copy=False)


def as_sample(indices, values) -> tuple[np.ndarray, np.ndarray]:
    """One sample as int64 indices (see :func:`as_index_array`) and float64
    values; values that are not numbers (strings, booleans) raise too."""
    val = np.asarray(values)
    if val.size and val.dtype.kind not in "iuf":
        raise ValueError("sample values must be numbers")
    return as_index_array(indices), val.astype(np.float64, copy=False)


def validate_samples(samples, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a batch of sparse ``(indices, values)`` samples before any state
    changes, and return its concatenated ``indices``, ``values`` and the
    per-sample ``lengths``.

    Every entry point runs this before it mutates anything or journals the
    batch: aligned 1-D samples, indices in ``[0, dim)`` and unique within
    each sample, finite values.  Raises :class:`InvalidBatchError`.
    """
    try:
        pairs = [as_sample(idx, val) for idx, val in samples]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidBatchError(
            "each sample must pair integer indices with numeric values"
        ) from exc
    if any(idx.ndim != 1 or idx.shape != val.shape for idx, val in pairs):
        raise InvalidBatchError("each sample must hold aligned 1-D indices and values")
    lengths = np.asarray([idx.size for idx, _ in pairs], dtype=np.int64)
    if not pairs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), lengths
    indices = np.concatenate([idx for idx, _ in pairs])
    values = np.concatenate([val for _, val in pairs])
    if indices.size:
        if indices.min() < 0 or indices.max() >= dim:
            raise InvalidBatchError(f"sample indices must lie in [0, {dim})")
        if not np.isfinite(values).all():
            raise InvalidBatchError("sample values must be finite")
        owner = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        keys = np.sort(owner * dim + indices)
        if (keys[1:] == keys[:-1]).any():
            raise InvalidBatchError("sample indices must be unique within each sample")
    return indices, values, lengths


class CovarianceSketcher:
    """Stream samples into a sketch-backed sparse covariance estimator.

    Parameters
    ----------
    dim:
        Number of features ``d``.
    estimator:
        Any object with ``ingest(keys, values, num_samples)`` and
        ``estimate(keys)`` — see :mod:`repro.core`.
    mode:
        ``"covariance"`` sketches raw covariance mass; ``"correlation"``
        normalises each sample by the running per-feature std first, so the
        sketch estimates correlations directly (the paper's experimental
        setting).
    centering:
        ``"none"`` (section-5 fast path, default), ``"running"`` (subtract
        the running mean, skip the drift adjustment — the paper's
        implementation choice, section 8.1) or ``"exact"`` (running mean
        plus the section-4 adjustment; dense path only).
    batch_size:
        Samples per ingest call.
    std_floor:
        Lower clamp for the normalising std (guards dead features).
    """

    def __init__(
        self,
        dim: int,
        estimator,
        *,
        mode: str = "correlation",
        centering: str = "none",
        batch_size: int = 32,
        std_floor: float = 1e-6,
    ):
        if mode not in _VALUE_MODES:
            raise ValueError(f"mode must be one of {_VALUE_MODES}, got {mode!r}")
        if centering not in _CENTERING_MODES:
            raise ValueError(
                f"centering must be one of {_CENTERING_MODES}, got {centering!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.dim = int(dim)
        self.num_pairs = num_pairs(self.dim)
        self.estimator = estimator
        self.mode = mode
        self.centering = centering
        self.batch_size = int(batch_size)
        self.std_floor = float(std_floor)
        self.moments = RunningMoments(self.dim)
        self.sparse_moments = SparseMoments(self.dim)
        self.samples_seen = 0
        self._dense_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Dense path
    # ------------------------------------------------------------------
    def _dense_pair_keys(self) -> np.ndarray:
        if self._dense_keys is None:
            if self.num_pairs > 50_000_000:
                raise ValueError(
                    "dense path would materialise too many pair keys; "
                    "use the sparse path for this dimension"
                )
            self._dense_keys = np.arange(self.num_pairs, dtype=np.int64)
            # The dense path re-hashes this exact array every batch; let
            # cache-capable sketches precompute the buckets and signs.
            sketch = getattr(self.estimator, "sketch", None)
            if (
                sketch is not None
                and hasattr(sketch, "cache_keys")
                and self.num_pairs <= 4_000_000
            ):
                sketch.cache_keys(self._dense_keys)
        return self._dense_keys

    def fit_dense(self, data: np.ndarray) -> "CovarianceSketcher":
        """Stream a dense ``(n, d)`` array through the estimator in batches."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {data.shape}")
        for start in range(0, data.shape[0], self.batch_size):
            self.partial_fit_dense(data[start : start + self.batch_size])
        return self

    def partial_fit_dense(self, batch: np.ndarray) -> None:
        """Ingest one dense batch (rows are samples)."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        b = batch.shape[0]
        if b == 0:
            return
        if self.centering == "exact":
            self._partial_fit_dense_exact(batch)
            return
        self.moments.update(batch)
        center = self.moments.mean if self.centering == "running" else None
        work = batch if center is None else batch - center
        if self.mode == "correlation":
            work = work / self.moments.std(floor=self.std_floor)
        values = dense_batch_products(work)
        self.estimator.ingest(self._dense_pair_keys(), values, num_samples=b)
        self.samples_seen += b

    def _partial_fit_dense_exact(self, batch: np.ndarray) -> None:
        """Per-sample centered products plus the section-4 adjustment term.

        Keeps the accumulated (unscaled) sketch content exactly equal to
        ``sum_k (Y^k - mean_t)(Y^k - mean_t)`` after every sample.  O(d^2)
        per sample — intended for validation, not production streams.
        """
        keys = self._dense_pair_keys()
        for row in batch:
            mean_old = self.moments.mean
            t_prev = self.moments.count
            self.moments.update(row[None, :])
            mean_new = self.moments.mean
            centered = row - mean_new
            values = triu_pair_values(np.outer(centered, centered))
            values += adjustment_matrix(mean_old, mean_new, t_prev)
            if self.mode == "correlation":
                std = self.moments.std(floor=self.std_floor)
                values /= triu_pair_values(np.outer(std, std))
            self.estimator.ingest(keys, values, num_samples=1)
            self.samples_seen += 1

    # ------------------------------------------------------------------
    # Sparse path
    # ------------------------------------------------------------------
    def fit_sparse(
        self,
        samples: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> "CovarianceSketcher":
        """Stream sparse samples ``(indices, values)`` through the estimator.

        Centering other than ``"none"`` is rejected: at sparse scale the
        paper's section-5 approximation (means negligible vs stds) is the
        whole point of the fast path.
        """
        if self.centering != "none":
            raise ValueError("sparse path supports centering='none' only")
        batch: list[tuple[np.ndarray, np.ndarray]] = []
        for sample in samples:
            batch.append(sample)
            if len(batch) >= self.batch_size:
                self._ingest_sparse_batch(batch)
                batch = []
        if batch:
            self._ingest_sparse_batch(batch)
        return self

    def _ingest_sparse_batch(self, batch: list[tuple[np.ndarray, np.ndarray]]) -> None:
        b = len(batch)
        all_idx, all_val, lengths = validate_samples(batch, self.dim)
        self.sparse_moments.update_batch(all_idx, all_val, num_samples=b)

        if self.mode == "correlation" and all_idx.size:
            # Only the touched features' stds: O(batch nnz), not O(d).
            all_val = all_val / self.sparse_moments.std(self.std_floor, indices=all_idx)

        # One fused kernel expands every sample's m*(m-1)/2 pairs at once —
        # identical output to looping sparse_sample_pairs per sample.
        keys, products = sparse_batch_pairs(all_idx, all_val, lengths, self.dim)
        keys, sums = aggregate_pair_updates([keys], [products])
        self.estimator.ingest(keys, sums, num_samples=b)
        self.samples_seen += b

    def fit(self, data) -> "CovarianceSketcher":
        """Dispatch on input type: dense array, scipy CSR matrix, or an
        iterable of sparse ``(indices, values)`` samples."""
        if isinstance(data, np.ndarray):
            return self.fit_dense(data)
        if hasattr(data, "tocsr") and hasattr(data, "indptr"):
            return self.fit_sparse(_iter_csr_rows(data))
        if isinstance(data, Iterable):
            return self.fit_sparse(data)
        raise TypeError(f"unsupported data type: {type(data).__name__}")

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def estimate_keys(self, keys) -> np.ndarray:
        """Estimates for flat pair keys (in the mode's units)."""
        return np.asarray(self.estimator.estimate(keys), dtype=np.float64)

    def estimate_pairs(self, i, j) -> np.ndarray:
        """Estimates for explicit ``(i, j)`` pairs."""
        from repro.hashing.pairs import pair_to_index

        return self.estimate_keys(pair_to_index(i, j, self.dim))

    def top_pairs(
        self, k: int, *, scan: bool | None = None, chunk: int = 1 << 20
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Top-``k`` pairs by estimate.

        ``scan=True`` ranks by querying every pair key (exact, small ``p``
        only — the section 8.3 protocol); ``scan=False`` uses the
        estimator's candidate tracker (trillion-scale protocol).  The
        default picks scanning whenever ``p <= 4e6``.

        Returns ``(i, j, estimates)`` sorted by decreasing estimate.
        """
        if scan is None:
            scan = self.num_pairs <= 4_000_000
        if scan:
            keys, estimates = self._scan_top_keys(k, chunk)
        else:
            keys, estimates = self.estimator.top_k(k)
        i, j = index_to_pair(keys, self.dim)
        return i, j, estimates

    def _scan_top_keys(self, k: int, chunk: int) -> tuple[np.ndarray, np.ndarray]:
        # One shared fixed-buffer scan kernel (the serving snapshot builder
        # uses the same one with a two-sided rank transform).
        return scan_top_keys(self.estimate_keys, self.num_pairs, k, chunk=chunk)


def _iter_csr_rows(matrix) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(indices, values)`` per row of a scipy CSR matrix."""
    indptr = matrix.indptr
    for row in range(matrix.shape[0]):
        lo, hi = indptr[row], indptr[row + 1]
        yield matrix.indices[lo:hi].astype(np.int64), matrix.data[lo:hi]
