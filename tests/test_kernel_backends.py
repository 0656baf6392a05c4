"""Kernel path selection: platform-chosen, bit-identical, never persisted.

A sketch takes the compiled (numba) path whenever numba is importable and
its configuration is eligible; there is no option to set.  These tests
pin the kernels module's one-shot import state (its test seam) to a
stand-in module or to "unavailable", so they pass identically whether or
not numba is installed.  Bit-identity of the compiled kernels themselves
is enforced by ``tests/test_fused_kernels.py`` and the conformance suite,
which run once per path importable in the running process.
"""

import pickle
import types

import numpy as np
import pytest

import repro.sketch.kernels as kernels
from repro.distributed import (
    ShardSpec,
    merge_shard_results,
    sketch_shard,
)
from repro.distributed.shard import (
    load_shard_result,
    save_shard_result,
    spec_from_arrays,
    spec_to_arrays,
)
from repro.durability import DurableSketcher
from repro.durability.integrity import INTEGRITY_MEMBERS, write_npz
from repro.sketch import (
    AugmentedSketch,
    ColdFilterSketch,
    CountMinSketch,
    CountSketch,
    HierarchicalCountSketch,
    plan,
    save_sketch,
)
from repro.sketch.kernels import available_backends
from repro.sketch.serialization import sketch_to_arrays

#: Stand-in for the compiled module: enough surface for selection logic
#: (never called — eligibility tests stop before any kernel runs).
_FAKE_JIT = types.SimpleNamespace(NUMBA_VERSION="0.0-fake")

#: Values of the ``spec_backend`` member that shard files and durable
#: recipes written by earlier releases carry.
LEGACY_BACKENDS = ("numba", "numpy", "auto")


def _force_numba(monkeypatch, module):
    """Pin the one-shot import state: ``module`` (or None for absent)."""
    monkeypatch.setattr(kernels, "_jit_checked", True)
    monkeypatch.setattr(kernels, "_jit_module", module)


def _add_member(path, name, value):
    """Rewrite an integrity-checked ``.npz`` with one extra member."""
    with np.load(path, allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files if k not in INTEGRITY_MEMBERS}
    payload[name] = np.asarray(value)
    write_npz(path, payload)


class TestResolveBackend:
    def test_availability_introspection(self, monkeypatch):
        _force_numba(monkeypatch, None)
        assert not kernels.numba_available()
        assert kernels.numba_version() is None
        assert available_backends() == ("numpy",)
        _force_numba(monkeypatch, _FAKE_JIT)
        assert kernels.numba_available()
        assert kernels.numba_version() == "0.0-fake"
        assert available_backends() == ("numpy", "numba")


class TestSketchKnob:
    """Which path a sketch arms is decided by the platform and its config."""

    def test_numpy_backend_never_arms_jit(self, monkeypatch):
        _force_numba(monkeypatch, None)
        assert CountSketch(3, 64)._jit_args is None

    def test_numba_backend_arms_jit_for_eligible_config(self, monkeypatch):
        _force_numba(monkeypatch, _FAKE_JIT)
        assert CountSketch(3, 64)._jit_args is not None
        # Count-min has no compiled path on any platform.
        assert not hasattr(CountMinSketch(3, 64), "_jit_args")

    def test_ineligible_configs_stay_on_numpy_path(self, monkeypatch):
        _force_numba(monkeypatch, _FAKE_JIT)
        # Non-fused hash family: no combined multiply-shift tables.
        assert CountSketch(3, 64, family="polynomial")._jit_args is None
        # Quantized storage: compiled kernels require float64 counters.
        assert CountSketch(3, 64, dtype="int16")._jit_args is None

    def test_wrappers_thread_backend(self, monkeypatch):
        # Wrapped sketches take the platform path like bare ones.
        for module, armed in ((_FAKE_JIT, True), (None, False)):
            _force_numba(monkeypatch, module)
            inner = [
                AugmentedSketch(3, 64).sketch,
                ColdFilterSketch(3, 64).sketch,
                *HierarchicalCountSketch(3, 64, key_space=1 << 16)._levels,
            ]
            assert all((sk._jit_args is not None) == armed for sk in inner)

    def test_pickle_drops_no_state_and_survives_numba_loss(self, monkeypatch):
        # The sketch must never hold the (unpicklable) compiled module —
        # only the argument tuple.  A sketch pickled on a numba host must
        # unpickle and keep working on a numpy-only host.
        _force_numba(monkeypatch, _FAKE_JIT)
        sk = CountSketch(3, 64, seed=5)
        clone = pickle.loads(pickle.dumps(sk))
        assert clone._jit_args is not None
        _force_numba(monkeypatch, None)  # "numpy-only host"
        keys = np.arange(50, dtype=np.int64)
        vals = np.linspace(-1, 1, 50)
        clone.insert(keys, vals)
        ref = CountSketch(3, 64, seed=5)
        ref.insert(keys, vals)
        np.testing.assert_array_equal(clone.table, ref.table)


class TestBitIdentityAcrossBackends:
    """Same stream, every importable path, byte-for-byte equal state.

    Locally this may collapse to numpy-only; in the CI numba leg it is the
    real cross-path check (the conformance suite extends it to every
    registered sketch kind).
    """

    def test_count_sketch_state_and_queries(self, kernel_path):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 10**12, size=4000)
        vals = rng.standard_normal(4000)
        probe = rng.integers(0, 10**12, size=512)
        reference = None
        for backend in available_backends():
            kernel_path(backend)
            sk = CountSketch(5, 1024, seed=3)
            sk.insert(keys, vals)
            sk.insert(keys[:7], vals[:7])  # small batch: the add.at strategy
            est = sk.query(probe)
            live = sk.insert_and_query(keys[:257], vals[:257])
            if reference is None:
                reference = (sk.table.copy(), est, live)
            else:
                np.testing.assert_array_equal(sk.table, reference[0])
                np.testing.assert_array_equal(est, reference[1])
                np.testing.assert_array_equal(live, reference[2])

    def test_count_min_state_and_queries(self, kernel_path):
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 10**12, size=3000)
        vals = np.abs(rng.standard_normal(3000))
        probe = rng.integers(0, 10**12, size=512)
        reference = None
        for backend in available_backends():
            kernel_path(backend)
            cm = CountMinSketch(3, 1024, seed=3)
            cm.insert(keys, vals)
            est = cm.query(probe)
            if reference is None:
                reference = (cm.table.copy(), est)
            else:
                np.testing.assert_array_equal(cm.table, reference[0])
                np.testing.assert_array_equal(est, reference[1])


class TestSnapshotsAreBackendFree:
    def test_backend_not_serialized(self):
        arrays = sketch_to_arrays(CountSketch(3, 64))
        assert not any("backend" in name for name in arrays)

    def test_snapshot_files_byte_identical(self, tmp_path, kernel_path):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 10**9, size=2000)
        vals = rng.standard_normal(2000)
        blobs = []
        for backend in available_backends():
            kernel_path(backend)
            sk = CountSketch(3, 256, seed=9)
            sk.insert(keys, vals)
            path = tmp_path / f"{backend}.npz"
            save_sketch(sk, path)
            blobs.append(path.read_bytes())
        assert all(blob == blobs[0] for blob in blobs)


class TestShardSpecBackend:
    """Files from earlier releases carry a ``spec_backend`` member; it names
    no field any more, and every reader ignores it."""

    def _spec(self, **kwargs):
        kwargs.setdefault("dim", 16)
        kwargs.setdefault("total_samples", 64)
        kwargs.setdefault("num_tables", 3)
        kwargs.setdefault("num_buckets", 64)
        return ShardSpec(**kwargs)

    @staticmethod
    def _samples(seed, n=32):
        rng = np.random.default_rng(seed)
        return [
            (
                np.sort(rng.choice(16, size=4, replace=False)).astype(np.int64),
                rng.standard_normal(4),
            )
            for _ in range(n)
        ]

    def test_codec_round_trip(self):
        spec = self._spec(storage="int16", quantum=0.01)
        assert spec_from_arrays(spec_to_arrays(spec)) == spec

    @pytest.mark.parametrize("legacy", LEGACY_BACKENDS)
    def test_legacy_backend_member_loads(self, legacy):
        spec = self._spec(method="hcs", storage="int16", quantum=0.01)
        arrays = spec_to_arrays(spec)
        arrays["spec_backend"] = np.asarray(legacy)
        assert spec_from_arrays(arrays) == spec

    def test_merge_accepts_backend_mismatch(self, tmp_path):
        # Shard files that differ only in the legacy member merge exactly
        # like files without it.
        samples = self._samples(21)
        spec = self._spec()
        shards = [
            sketch_shard(spec, samples[:16], shard_index=0, num_shards=2),
            sketch_shard(
                spec, samples[16:], shard_index=1, num_shards=2, start=16
            ),
        ]
        loaded = []
        for shard, legacy in zip(shards, ("numba", "numpy")):
            path = tmp_path / f"shard-{shard.shard_index}.npz"
            save_shard_result(shard, path, extra={"spec_backend": legacy})
            loaded.append(load_shard_result(path))
        mixed = merge_shard_results(loaded)
        uniform = merge_shard_results(shards)
        np.testing.assert_array_equal(
            mixed.estimator.sketch.table, uniform.estimator.sketch.table
        )

    def test_merge_still_rejects_real_mismatches(self):
        rng = np.random.default_rng(22)
        samples = [
            (np.asarray([0, 1], dtype=np.int64), rng.standard_normal(2))
            for _ in range(8)
        ]
        shard_a = sketch_shard(self._spec(seed=1), samples, num_shards=2)
        shard_b = sketch_shard(
            self._spec(seed=2), samples, shard_index=1, num_shards=2, start=8
        )
        with pytest.raises(ValueError, match="seed"):
            merge_shard_results([shard_a, shard_b])

    @pytest.mark.parametrize("legacy", LEGACY_BACKENDS)
    def test_legacy_recipe_recovers_bit_identical(self, legacy, tmp_path):
        spec = self._spec(total_samples=48)
        samples = self._samples(23, n=48)
        durable = DurableSketcher(tmp_path, spec, checkpoint_every=4)
        for start in range(0, 48, 8):
            durable.fit_sparse(samples[start : start + 8])
        durable.close()
        for path in [tmp_path / "spec.npz", *tmp_path.glob("ckpt-*.npz")]:
            _add_member(path, "spec_backend", legacy)

        recovered = DurableSketcher.recover(tmp_path)
        recovered.close()
        assert recovered.recovered_from is not None
        assert recovered.replayed_records == 2
        reference = spec.build_sketcher()
        for start in range(0, 48, 8):
            reference.fit_sparse(iter(samples[start : start + 8]))
        np.testing.assert_array_equal(
            recovered.estimator.sketch.table, reference.estimator.sketch.table
        )
        assert recovered.samples_seen == reference.samples_seen


class TestMemoryBytesReporting:
    def test_tracks_counter_itemsize(self):
        # Regression: memory_bytes used to hardcode 8 bytes/counter, so
        # int16/int32 tiers over-reported their footprint 4x/2x.
        for storage, itemsize in (("int16", 2), ("int32", 4), ("float64", 8)):
            sk = CountSketch(3, 128, dtype=storage, quantum=1e-3)
            assert sk.memory_bytes == 3 * 128 * itemsize
            cm_kwargs = {} if storage == "float64" else {"quantum": 1e-3}
            cm = CountMinSketch(3, 128, dtype=storage, **cm_kwargs)
            assert cm.memory_bytes == 3 * 128 * itemsize

    def test_matches_plan_prediction(self):
        p = plan(n_features=1000, budget_mb=0.25)
        assert p.storage == "int16"
        sketch = p.build_sketch(seed=1)
        assert p.measured_bytes_per_counter(sketch) == p.predicted_bytes_per_counter
        assert sketch.memory_bytes == p.predicted_total_bytes
