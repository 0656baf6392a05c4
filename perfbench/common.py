"""Inputs and statistics shared by every workload.

All inputs come from ``--seed``: the sample stream, the batches and the
read mix are generated here, before any timing starts, so the program
under test only ever receives generated data.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import numpy as np

from repro.data.url_like import URLLikeStream
from repro.hashing.pairs import index_to_pair, num_pairs

HERE = Path(__file__).resolve().parent
PARAMS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

#: The latency a failed or refused operation enters the percentiles with:
#: it misses every latency limit (the HTTP request timeout).
MISSED_MS = PARAMS["workloads"]["serve-mixed"]["request_timeout_s"] * 1e3


def stream(dim: int, num_samples: int, seed: int) -> URLLikeStream:
    """The Table-2-shaped URL-like stream (60x6 planted groups)."""
    shape = {k: v for k, v in PARAMS["stream"].items() if k != "generator"}
    return URLLikeStream(dim=dim, num_samples=num_samples, seed=seed, **shape)


def samples_of(source: URLLikeStream) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(s.indices, s.values) for s in source]


def batched(samples: list, size: int) -> list[list]:
    return [samples[i : i + size] for i in range(0, len(samples), size)]


def read_ops(rng: np.random.Generator, dim: int, planted_keys: np.ndarray) -> list:
    """The seeded read mix: ``("pair", i, j)``, ``("query", keys)``,
    ``("top", k)``.

    Pair reads draw Zipf-skewed ranks over a universe of distinct pairs
    ``pair_universe_per_cache_entry`` times the engine cache capacity
    (planted pairs first, then random ones), so hot pairs repeat while
    the tail overflows the cache; 256-key queries draw uniformly over the
    whole pair space.
    """
    mix = PARAMS["read_mix"]
    p = num_pairs(dim)
    universe = mix["pair_universe_per_cache_entry"] * PARAMS["workloads"]["serve-mixed"]["cache_size"]
    pool = np.unique(planted_keys)
    while pool.size < universe:
        pool = np.union1d(pool, rng.integers(0, p, size=universe - pool.size))
    rest = rng.permutation(np.setdiff1d(pool, planted_keys))
    pool_i, pool_j = index_to_pair(np.concatenate([rng.permutation(planted_keys), rest]), dim)
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    zipf = ranks ** -mix["pair_zipf_a"]
    kinds = list(mix["ops"])
    probs = np.asarray([mix["ops"][k] for k in kinds], dtype=np.float64)
    choice = rng.choice(len(kinds), size=mix["pool_size"], p=probs / probs.sum())
    pair_ranks = iter(rng.choice(universe, size=choice.size, p=zipf / zipf.sum()))
    ops = []
    for c in choice:
        kind = kinds[c]
        if kind == "pair":
            rank = next(pair_ranks)
            ops.append(("pair", int(pool_i[rank]), int(pool_j[rank])))
        elif kind == "query":
            ops.append(("query", rng.integers(0, p, size=mix["query_keys"])))
        else:
            ops.append(("top", int(mix["top_k"])))
    return ops


def check_keys(rng: np.random.Generator, dim: int, planted_keys, n: int) -> np.ndarray:
    """A fixed key set for exact-answer checks: planted pairs plus random."""
    extra = rng.integers(0, num_pairs(dim), size=max(0, n - planted_keys.size))
    return np.concatenate([planted_keys, extra]).astype(np.int64)


def truth_matrix(samples: list, dim: int):
    """Sample-by-feature CSR matrix of exactly these samples — the same
    matrix ``URLLikeStream.materialize`` builds for a whole stream."""
    import scipy.sparse as sp

    rows = np.concatenate(
        [np.full(idx.size, r, dtype=np.int64) for r, (idx, _) in enumerate(samples)]
    )
    cols = np.concatenate([idx for idx, _ in samples])
    vals = np.concatenate([val for _, val in samples])
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(samples), dim))


def median_round(rounds) -> np.ndarray:
    """The median round: each position's median latency over rounds, in ms.

    ``rounds`` holds one equal-length list of latencies per round (an
    ingest pass, or a refresh cycle of the open-loop writer); position
    ``n`` is the same batch, or the same place in the cycle, in every
    round.  Throughput, p50 and p99 are then taken over this one profile,
    so a rare slow event that sits at a fixed position (a checkpoint, an
    inline snapshot swap) enters with its typical cost instead of its
    slowest, and host noise in any one round averages out.  A position
    that failed in any round stays at ``MISSED_MS``: a failure is never
    hidden by the other rounds.
    """
    table = np.asarray(rounds, dtype=np.float64)
    profile = np.median(table, axis=0)
    profile[(table >= MISSED_MS).any(axis=0)] = MISSED_MS
    return profile


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else float("nan")


def median(values) -> float:
    return percentile(values, 50.0)


def host_ref_ms(reps: int = 5) -> float:
    """Median time of a fixed numpy kernel that uses no code of the program.

    A scatter-add, a gather and an elementwise square root over a 1 Mi
    table, the memory pattern of sketch ingest.  Taken at the start and
    the end of a run, it shows how fast the host ran, so a shift between
    two sets of runs can be told apart from a change in the program.
    """
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 20, size=1 << 18)
    vals = rng.random(keys.size)
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        table = np.bincount(keys, vals, minlength=1 << 20)
        np.sqrt(table, out=table)
        table[keys].sum()
        times.append((time.perf_counter() - started) * 1e3)
    return median(times)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def out_dir() -> Path:
    """``.perfbench/`` in the checkout: span dumps and scratch state."""
    path = Path.cwd() / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def work_dir(name: str) -> Path:
    """A per-process scratch directory under :func:`out_dir`."""
    path = out_dir() / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
