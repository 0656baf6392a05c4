"""The sparse ingest path: touched-feature normalisation and the front door.

* Correlation mode divides each batch by the std of the features the batch
  touches.  ``std(floor, indices=i)`` must be bit-identical to
  ``std(floor)[i]`` on both moment trackers, and the pipeline must never
  fall back to the length-``d`` computation.
* :func:`validate_samples` refuses a malformed batch before any state
  changes, on the plain (non-durable) path too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import SketchEstimator
from repro.covariance.pipeline import (
    CovarianceSketcher,
    InvalidBatchError,
    validate_samples,
)
from repro.covariance.running import SparseMoments
from repro.covariance.updates import aggregate_pair_updates, sparse_batch_pairs
from repro.sketch.count_sketch import CountSketch
from repro.streaming import DecayedSparseMoments, make_decaying_sketcher
from repro.streaming.decay import _LazyDecayedMoments


def _random_samples(rng, n, dim, nnz=6):
    return [
        (
            rng.choice(dim, size=nnz, replace=False).astype(np.int64),
            rng.standard_normal(nnz) + 0.3,
        )
        for _ in range(n)
    ]


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# std(floor, indices=...) == std(floor)[indices], bit for bit
# ----------------------------------------------------------------------
_entries = st.lists(
    st.tuples(st.integers(0, 19), st.floats(-1e3, 1e3, allow_nan=False)),
    max_size=12,
)
_batches = st.lists(st.tuples(_entries, st.integers(0, 40)), max_size=6)


class TestTouchedStd:
    @given(
        batches=_batches,
        gamma=st.sampled_from([None, 1.0, 0.9, 0.3]),
        floor=st.sampled_from([0.0, 1e-6, 0.5]),
        query=st.lists(st.integers(0, 19), max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_touched_std_equals_full_std_at_indices(self, batches, gamma, floor, query):
        """Covers count == 0 (no batch, or only empty ones) and, with
        ``gamma=0.3`` and up to 40 samples per batch, lazy-scale flushes."""
        dim = 20
        if gamma is None:
            moments = SparseMoments(dim)
        else:
            moments = DecayedSparseMoments(dim, gamma)
        for entries, num_samples in batches:
            idx = np.array([i for i, _ in entries], dtype=np.int64)
            val = np.array([v for _, v in entries], dtype=np.float64)
            moments.update_batch(idx, val, num_samples=num_samples)
        indices = np.array(query, dtype=np.int64)
        _assert_bitwise_equal(
            moments.std(floor, indices=indices), moments.std(floor)[indices]
        )
        _assert_bitwise_equal(moments.variance(indices), moments.variance()[indices])

    @pytest.mark.parametrize("decayed", [False, True])
    def test_empty_tracker_yields_nan_per_index(self, decayed):
        moments = DecayedSparseMoments(8, 0.5) if decayed else SparseMoments(8)
        out = moments.std(1e-6, indices=np.array([0, 3, 3], dtype=np.int64))
        assert out.shape == (3,) and np.isnan(out).all()

    def test_after_lazy_scale_flush(self, rng):
        moments = DecayedSparseMoments(30, gamma=0.5)
        # Scale 2^-25, then 2^-50 < 2^-40 flushes back to 1, then 2^-5.
        for num_samples in (25, 25, 5):
            moments.update_batch(
                rng.integers(0, 30, size=40), rng.standard_normal(40), num_samples
            )
        assert moments.flushes == 1 and moments._scale == 2.0**-5
        indices = rng.integers(0, 30, size=100)
        _assert_bitwise_equal(
            moments.std(1e-6, indices=indices), moments.std(1e-6)[indices]
        )


# ----------------------------------------------------------------------
# The pipeline uses the touched-feature std only
# ----------------------------------------------------------------------
def _reference_correlation_fit(sketcher, samples):
    """The full-length normalisation, batch by batch: what correlation-mode
    ``fit_sparse`` computed before the touched-feature std."""
    for start in range(0, len(samples), sketcher.batch_size):
        batch = samples[start : start + sketcher.batch_size]
        lengths = np.array([idx.size for idx, _ in batch], dtype=np.int64)
        idx = np.concatenate([i for i, _ in batch])
        val = np.concatenate([v for _, v in batch])
        sketcher.sparse_moments.update_batch(idx, val, num_samples=len(batch))
        val = val / sketcher.sparse_moments.std(floor=sketcher.std_floor)[idx]
        keys, products = sparse_batch_pairs(idx, val, lengths, sketcher.dim)
        keys, sums = aggregate_pair_updates([keys], [products])
        sketcher.estimator.ingest(keys, sums, num_samples=len(batch))
        sketcher.samples_seen += len(batch)


class TestCorrelationModeIngest:
    @pytest.mark.parametrize("gamma", [0.999, 0.5])
    def test_decayed_sparse_correlation_fit(self, rng, gamma):
        """Decayed correlation-mode ``fit_sparse`` runs and matches the
        full-length normalisation bit for bit (``gamma=0.5`` flushes)."""
        dim, n = 60, 200
        samples = _random_samples(rng, n, dim)

        def make():
            return make_decaying_sketcher(
                dim,
                n,
                gamma=gamma,
                mode="correlation",
                num_buckets=512,
                track_top=32,
            )

        fitted = make().fit_sparse(iter(samples))
        reference = make()
        _reference_correlation_fit(reference, samples)
        if gamma == 0.5:
            assert fitted.sparse_moments.flushes > 0
        _assert_bitwise_equal(
            fitted.estimator.sketch.sketch.table,
            reference.estimator.sketch.sketch.table,
        )
        assert fitted.estimator.sketch._scale == reference.estimator.sketch._scale
        assert np.isfinite(fitted.estimate_keys(np.arange(100))).all()
        i, j, est = fitted.top_pairs(10, scan=False)
        ri, rj, rest = reference.top_pairs(10, scan=False)
        for got, want in ((i, ri), (j, rj), (est, rest)):
            _assert_bitwise_equal(got, want)

    def test_plain_correlation_fit_matches_full_length_normalisation(self, rng):
        dim, n = 60, 200
        samples = _random_samples(rng, n, dim)

        def make():
            est = SketchEstimator(CountSketch(5, 512, seed=4), n, track_top=32)
            return CovarianceSketcher(dim, est, mode="correlation", batch_size=16)

        fitted = make().fit_sparse(iter(samples))
        reference = make()
        _reference_correlation_fit(reference, samples)
        _assert_bitwise_equal(
            fitted.estimator.sketch.table, reference.estimator.sketch.table
        )

    @pytest.mark.parametrize("decayed", [False, True])
    def test_fit_never_computes_full_length_variance(self, rng, monkeypatch, decayed):
        owner = _LazyDecayedMoments if decayed else SparseMoments
        original = owner.variance
        calls = []

        def guarded(self, indices=None):
            assert indices is not None, "full-length variance() on the ingest path"
            calls.append(len(indices))
            return original(self, indices)

        monkeypatch.setattr(owner, "variance", guarded)
        dim, n = 10_000, 64
        if decayed:
            sketcher = make_decaying_sketcher(
                dim, n, gamma=0.99, mode="correlation", num_buckets=256
            )
        else:
            est = SketchEstimator(CountSketch(3, 256, seed=1), n)
            sketcher = CovarianceSketcher(dim, est, mode="correlation", batch_size=16)
        sketcher.fit_sparse(iter(_random_samples(rng, n, dim)))
        # One touched-feature call per batch, sized by the batch's nnz.
        batch = sketcher.batch_size
        assert calls == [batch * 6] * (n // batch)


# ----------------------------------------------------------------------
# The front door: nothing changes before the batch is known to be good
# ----------------------------------------------------------------------
MALFORMED = {
    "duplicate-index": [(np.array([3, 7, 3]), np.array([1.0, 2.0, 3.0]))],
    "negative-index": [(np.array([-1, 3]), np.array([1.0, 2.0]))],
    "index-at-dim": [(np.array([1, 40]), np.array([1.0, 2.0]))],
    "nan-value": [(np.array([1, 2]), np.array([1.0, np.nan]))],
    "inf-value": [(np.array([1, 2]), np.array([-np.inf, 2.0]))],
    "misaligned": [(np.array([1, 2, 3]), np.array([1.0, 2.0]))],
    "two-dimensional": [(np.array([[1, 2]]), np.array([[1.0, 2.0]]))],
    "not-numeric": [(np.array(["a", "b"]), np.array([1.0, 2.0]))],
    "index-overflows-int64": [([10**30, 1], [1.0, 2.0])],
    "float-index": [(np.array([1.5, 2.7]), np.array([1.0, 2.0]))],
    "negative-fraction-index": [([-0.5], [1.0])],
    "string-index": [(["3"], [1.0])],
    "bool-index": [([True], [1.0])],
    "huge-float-index": [([1e30], [1.0])],
    "string-value": [([3], ["3"])],
    "not-a-pair": [(np.array([1, 2]),)],
}


class TestFrontDoor:
    DIM = 40

    def _sketcher(self, mode):
        est = SketchEstimator(CountSketch(3, 256, seed=5), 100, track_top=16)
        return CovarianceSketcher(self.DIM, est, mode=mode, batch_size=8)

    @pytest.mark.parametrize("mode", ["covariance", "correlation"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_rejected_batch_leaves_no_trace(self, rng, kind, mode):
        sketcher = self._sketcher(mode)
        good = _random_samples(rng, 8, self.DIM)
        sketcher.fit_sparse(iter(good))
        moments = sketcher.sparse_moments
        before = (
            sketcher.estimator.sketch.table.copy(),
            moments._sum.copy(),
            moments._sumsq.copy(),
            moments.count,
            sketcher.samples_seen,
        )
        # The bad sample rides behind a good one in the same batch.
        bad = _random_samples(rng, 1, self.DIM) + MALFORMED[kind]
        with pytest.raises(InvalidBatchError):
            sketcher.fit_sparse(iter(bad))
        _assert_bitwise_equal(sketcher.estimator.sketch.table, before[0])
        _assert_bitwise_equal(moments._sum, before[1])
        _assert_bitwise_equal(moments._sumsq, before[2])
        assert (moments.count, sketcher.samples_seen) == before[3:]
        assert moments.count == sketcher.samples_seen

    def test_errors_are_value_errors(self):
        assert issubclass(InvalidBatchError, ValueError)
        with pytest.raises(ValueError, match=r"lie in \[0, 40\)"):
            validate_samples(MALFORMED["index-at-dim"], self.DIM)
        with pytest.raises(ValueError, match="unique"):
            validate_samples(MALFORMED["duplicate-index"], self.DIM)

    def test_returns_the_concatenated_batch(self):
        batch = [
            (np.array([4, 1]), np.array([1.5, -2.0])),
            (np.array([], dtype=np.int64), np.array([])),
            ([1, 4, 9], [0.5, 0.25, 3.0]),
        ]
        indices, values, lengths = validate_samples(batch, 10)
        np.testing.assert_array_equal(indices, [4, 1, 1, 4, 9])
        np.testing.assert_array_equal(values, [1.5, -2.0, 0.5, 0.25, 3.0])
        np.testing.assert_array_equal(lengths, [2, 0, 3])
        assert indices.dtype == np.int64 and values.dtype == np.float64
        empty = validate_samples([], 10)
        assert [a.size for a in empty] == [0, 0, 0]
        # An empty sample passes whatever dtype its lists default to.
        untyped = validate_samples([([], [])], 10)
        assert [a.size for a in untyped] == [0, 0, 1]
