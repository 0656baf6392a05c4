"""Streaming (one-pass) moment trackers.

Two levels of fidelity:

* :class:`RunningMoments` — per-feature mean/variance via Welford's update,
  batched.  Costs O(d) per sample and is what the paper keeps alongside the
  sketch: the running mean feeds the covariance update of section 4, and
  the running std converts covariance estimates to correlations.
* :class:`ExactCovariance` — the full dense ``d x d`` streaming covariance
  (Chan et al. pairwise merge).  Quadratic memory, usable only at small
  ``d``; it provides the ground truth for the section 8.3 evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.base import scatter_add_flat

__all__ = ["RunningMoments", "SparseMoments", "ExactCovariance"]


class RunningMoments:
    """Per-feature running mean and variance (batched Welford).

    Parameters
    ----------
    dim:
        Number of features ``d``.

    Notes
    -----
    The update consumes a whole batch at once using the parallel-merge form::

        delta = batch_mean - mean
        M2   += batch_M2 + delta^2 * n*b/(n+b)

    which is numerically stable and exactly equals the one-sample-at-a-time
    Welford recursion.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.count = 0
        self._mean = np.zeros(self.dim, dtype=np.float64)
        self._m2 = np.zeros(self.dim, dtype=np.float64)

    def update(self, batch: np.ndarray) -> None:
        """Fold a dense batch of shape ``(b, dim)`` (or ``(dim,)``) in."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch has {batch.shape[1]} features, expected {self.dim}")
        b = batch.shape[0]
        if b == 0:
            return
        batch_mean = batch.mean(axis=0)
        batch_m2 = ((batch - batch_mean) ** 2).sum(axis=0)
        n = self.count
        delta = batch_mean - self._mean
        total = n + b
        self._mean += delta * (b / total)
        self._m2 += batch_m2 + delta * delta * (n * b / total)
        self.count = total

    def update_sparse(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Fold one sparse sample in (implicit zeros elsewhere)."""
        dense = np.zeros(self.dim, dtype=np.float64)
        dense[np.asarray(indices, dtype=np.int64)] = values
        self.update(dense[None, :])

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Fold another tracker's state in (Chan et al. parallel merge).

        Exactly the two-accumulator form of :meth:`update`, so merging
        per-shard moments reproduces the statistics of the concatenated
        stream — the reduction step of sharded ingestion.
        """
        if not isinstance(other, RunningMoments) or other.dim != self.dim:
            raise ValueError(
                "moments are mergeable only between RunningMoments of equal dim"
            )
        b = other.count
        if b == 0:
            return self
        n = self.count
        delta = other._mean - self._mean
        total = n + b
        self._mean += delta * (b / total)
        self._m2 += other._m2 + delta * delta * (n * b / total)
        self.count = total
        return self

    @property
    def mean(self) -> np.ndarray:
        """Current sample mean per feature."""
        return self._mean.copy()

    def variance(self, ddof: int = 0) -> np.ndarray:
        """Current sample variance per feature."""
        if self.count <= ddof:
            return np.full(self.dim, np.nan)
        return self._m2 / (self.count - ddof)

    def std(self, ddof: int = 0, floor: float = 0.0) -> np.ndarray:
        """Current sample standard deviation, optionally floored.

        ``floor`` guards correlation normalisation against zero-variance
        features (dead features produce 0/0 otherwise).
        """
        return np.maximum(np.sqrt(self.variance(ddof)), floor)


class SparseMoments:
    """Per-feature running moments for high-dimensional sparse streams.

    Equivalent to :class:`RunningMoments` (``ddof=0``) but with O(nnz)
    updates: absent features are implicit zeros, so only ``sum`` and
    ``sum of squares`` accumulators are touched.  This is the structure a
    one-pass correlation sketcher keeps next to the sketch at URL/DNA scale,
    where densifying every sample would dominate the runtime.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.count = 0
        self._sum = np.zeros(self.dim, dtype=np.float64)
        self._sumsq = np.zeros(self.dim, dtype=np.float64)

    def update_batch(
        self, indices: np.ndarray, values: np.ndarray, num_samples: int
    ) -> None:
        """Fold ``num_samples`` sparse samples in, given their concatenated
        non-zero ``indices`` / ``values``."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape:
            raise ValueError("indices and values must align")
        if num_samples < 0:
            raise ValueError("num_samples must be non-negative")
        if indices.size:
            # Touch only the hit accumulator slots when the batch is small
            # relative to dim — at URL/DNA scale a dense length-d bincount
            # per batch would dominate the whole ingest path.  The add.at
            # branch folds duplicate indices into the accumulators in a
            # different order than the old always-bincount code, so moments
            # (hence correlation-mode stds) can differ from the pre-fusion
            # pipeline at the last ulp; estimates are unaffected beyond
            # that rounding.
            use_bincount = indices.size * 16 >= self.dim
            scatter_add_flat(self._sum, indices, values, use_bincount=use_bincount)
            scatter_add_flat(
                self._sumsq, indices, values * values, use_bincount=use_bincount
            )
        self.count += int(num_samples)

    def merge(self, other: "SparseMoments") -> "SparseMoments":
        """Fold another tracker's accumulators in — exact (plain sums).

        ``sum``/``sum of squares``/``count`` are all linear in the stream,
        so sharded moments merge without approximation; this is the
        reduction step of :func:`repro.distributed.fit_sparse_sharded`.
        """
        if not isinstance(other, SparseMoments) or other.dim != self.dim:
            raise ValueError(
                "moments are mergeable only between SparseMoments of equal dim"
            )
        self._sum += other._sum
        self._sumsq += other._sumsq
        self.count += other.count
        return self

    @property
    def mean(self) -> np.ndarray:
        if self.count == 0:
            return np.zeros(self.dim)
        return self._sum / self.count

    def variance(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Per-feature variance; with ``indices``, exactly
        ``variance()[indices]`` at O(len(indices)) instead of O(d) cost."""
        total = self._sum if indices is None else self._sum[indices]
        if self.count == 0:
            return np.full(total.shape, np.nan)
        squares = self._sumsq if indices is None else self._sumsq[indices]
        mean = total / self.count
        return np.maximum(squares / self.count - mean * mean, 0.0)

    def std(self, floor: float = 0.0, indices: np.ndarray | None = None) -> np.ndarray:
        """Floored per-feature std; ``indices`` restricts it to those
        features (bit-identical to ``std(floor)[indices]``)."""
        return np.maximum(np.sqrt(self.variance(indices)), floor)


class ExactCovariance:
    """Exact dense streaming covariance — ground truth for small ``d``.

    Maintains ``mean`` and the centered co-moment matrix ``M2`` such that
    ``cov = M2 / n`` matches the batch formula
    ``(Y - mean).T @ (Y - mean) / n`` at every prefix of the stream.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.count = 0
        self._mean = np.zeros(self.dim, dtype=np.float64)
        self._m2 = np.zeros((self.dim, self.dim), dtype=np.float64)

    def update(self, batch: np.ndarray) -> None:
        """Fold a dense batch of shape ``(b, dim)`` (or ``(dim,)``) in."""
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch has {batch.shape[1]} features, expected {self.dim}")
        b = batch.shape[0]
        if b == 0:
            return
        batch_mean = batch.mean(axis=0)
        centered = batch - batch_mean
        batch_m2 = centered.T @ centered
        n = self.count
        delta = batch_mean - self._mean
        total = n + b
        self._mean += delta * (b / total)
        self._m2 += batch_m2 + np.outer(delta, delta) * (n * b / total)
        self.count = total

    @property
    def mean(self) -> np.ndarray:
        return self._mean.copy()

    def covariance(self, ddof: int = 0) -> np.ndarray:
        """Covariance matrix estimate, ``M2 / (n - ddof)``."""
        if self.count <= ddof:
            return np.full((self.dim, self.dim), np.nan)
        return self._m2 / (self.count - ddof)

    def correlation(self, std_floor: float = 1e-12) -> np.ndarray:
        """Correlation matrix; zero-variance features yield 0 correlations."""
        cov = self.covariance()
        std = np.sqrt(np.diag(cov))
        safe = np.maximum(std, std_floor)
        corr = cov / np.outer(safe, safe)
        dead = std <= std_floor
        corr[dead, :] = 0.0
        corr[:, dead] = 0.0
        np.fill_diagonal(corr, np.where(dead, 0.0, 1.0))
        return corr
