"""The two in-process ingest workloads: ``ingest-corr`` and ``ingest-durable``.

Both run the same closed loop: repeated full passes over one seeded
stream, each pass from a fresh set-up, one batch per call.  Every pass
does identical work, so batch ``n`` of one pass is comparable with batch
``n`` of every other: the reported timings come from the median pass
(see ``common.median_round``) and the median set-up.
"""

from __future__ import annotations

import gc
import shutil
import time

import numpy as np

from common import (
    MISSED_MS,
    PARAMS,
    batched,
    median_round,
    check_keys,
    median,
    peak_rss_mb,
    percentile,
    samples_of,
    stream,
    truth_matrix,
    work_dir,
)
from repro.covariance.ground_truth import pair_correlations


class _Workload:
    """Inputs shared by both ingest workloads."""

    def __init__(self, name: str, seed: int, num_samples: int):
        self.p = PARAMS["workloads"][name]
        source = stream(self.p["dim"], num_samples, seed)
        self.planted = source.planted_pair_keys()
        self.samples = samples_of(source)
        self.batches = batched(self.samples, self.p["batch"])

    def top_mean_corr(self, i, j) -> float:
        truth = pair_correlations(truth_matrix(self.samples, self.p["dim"]), i, j)
        return float(truth.mean())

    def close(self) -> None:
        pass


class IngestCorr(_Workload):
    """ASCS, correlation mode, d=2^20: pilot, plan, build, then stream."""

    def __init__(self, seed: int):
        super().__init__("ingest-corr", seed, PARAMS["workloads"]["ingest-corr"]["samples_per_pass"])

    def setup(self, pass_no: int):
        from repro.core.api import build_estimator
        from repro.covariance.pipeline import CovarianceSketcher
        from repro.evaluation.harness import sparse_pilot
        from repro.hashing.pairs import num_pairs
        from repro.theory.bounds import ProblemModel
        from repro.theory.planner import plan_hyperparameters

        p = self.p
        total = len(self.samples)
        sigma = sparse_pilot(iter(self.samples), p["dim"], num_pilot=p["pilot_samples"])
        model = ProblemModel(
            p=num_pairs(p["dim"]),
            alpha=p["alpha"],
            u=p["u"],
            sigma=sigma,
            T=total,
            num_tables=p["num_tables"],
            num_buckets=p["num_buckets"],
        )
        plan = plan_hyperparameters(model, delta=p["delta"], delta_star=p["delta_star"])
        estimator = build_estimator(
            "ascs",
            total,
            p["num_tables"],
            p["num_buckets"],
            plan=plan,
            seed=0,
            track_top=p["track_top"],
        )
        return CovarianceSketcher(
            p["dim"], estimator, mode=p["mode"], centering="none", batch_size=p["batch"]
        )

    def finish(self, sketcher, outcome: dict) -> None:
        i, j, est = sketcher.top_pairs(self.p["top_k_quality"], scan=False)
        outcome["top"] = (i, j, est)


class IngestDurable(_Workload):
    """CS, covariance mode, d=10^4, behind DurableSketcher."""

    def __init__(self, seed: int):
        p = PARAMS["workloads"]["ingest-durable"]
        super().__init__("ingest-durable", seed, p["batches_per_pass"] * p["batch"])
        rng = np.random.default_rng([seed, 2])
        self.check = check_keys(rng, p["dim"], self.planted, p["check_keys"])
        self.root = work_dir("durable")

    def setup(self, pass_no: int):
        from repro.distributed.shard import ShardSpec
        from repro.durability.durable import DurableSketcher

        p = self.p
        spec = ShardSpec(
            dim=p["dim"],
            total_samples=len(self.samples),
            method=p["method"],
            num_tables=p["num_tables"],
            num_buckets=p["num_buckets"],
            mode=p["mode"],
            batch_size=p["batch"],
            track_top=p["track_top"],
        )
        return DurableSketcher(
            self.root / f"pass-{pass_no}",
            spec,
            checkpoint_every=p["checkpoint_every"],
            fsync=p["fsync"],
        )

    def finish(self, durable, outcome: dict) -> None:
        """Close, then time recovery (newest checkpoint + WAL tail) and
        check it answers exactly as the live sketcher did before close."""
        from repro.durability.durable import DurableSketcher

        live = durable.estimate_keys(self.check)
        live_seen = durable.samples_seen
        directory = durable.directory
        durable.close()
        started = time.perf_counter()
        recovered = DurableSketcher.recover(directory)
        outcome["recover_s"] = time.perf_counter() - started
        outcome["replayed"] = recovered.replayed_records
        outcome["checks"].append(
            np.array_equal(recovered.estimate_keys(self.check), live)
            and recovered.samples_seen == live_seen
            and recovered.replayed_records > 0
        )
        i, j, est = recovered.top_pairs(self.p["top_k_quality"], scan=False)
        outcome["top"] = (i, j, est)
        recovered.close()
        shutil.rmtree(directory)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {"ingest-corr": IngestCorr, "ingest-durable": IngestDurable}


def run(name: str, seed: int, seconds: float, layers) -> dict:
    """Run passes until ``seconds`` have elapsed; return the raw results.

    The first pass is a warm-up (lazy imports, allocator growth): it is
    checked like every pass but left out of every timing.  With ``layers``,
    later passes alternate traced and untraced (at least one of each), so
    the tracing overhead is the ratio of their ingest times.
    """
    from spans import install_layers

    wl = WORKLOADS[name](seed)
    min_passes = 3 if layers is not None else 2
    res = {
        "setup": [],
        "pass_ingest": [],
        "traced_pass_ingest": [],
        "pass_batch_ms": [],
        "recover_s": [],
        "replayed": [],
        "tops": [],
        "checks": [],
        "attempted": 0,
        "failed": {},
        "samples_per_pass": len(wl.samples),
        "passes": 0,
    }

    def fail(kind):
        res["failed"][kind] = res["failed"].get(kind, 0) + 1

    deadline = time.perf_counter() + seconds
    try:
        while res["passes"] < min_passes or time.perf_counter() < deadline:
            pass_no = res["passes"]
            traced = layers is not None and pass_no % 2 == 1
            if traced:
                install_layers(layers)
            started = time.perf_counter()
            state = wl.setup(pass_no)
            setup_s = time.perf_counter() - started

            batch_ms = []
            for n, batch in enumerate(wl.batches):
                res["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    if traced:
                        with layers.root("batch", rid=f"b{pass_no}.{n}"):
                            state.fit_sparse(batch)
                    else:
                        state.fit_sparse(batch)
                    batch_ms.append((time.perf_counter() - t0) * 1e3)
                except Exception:  # noqa: BLE001 - counted, the loop goes on
                    fail("ingest")
                    batch_ms.append(MISSED_MS)

            outcome = {"checks": res["checks"]}
            if name == "ingest-durable":
                res["attempted"] += 1
            try:
                if traced:
                    with layers.root("finish", rid=f"f{pass_no}"):
                        wl.finish(state, outcome)
                else:
                    wl.finish(state, outcome)
            except Exception:  # noqa: BLE001
                fail("finish")
                res["checks"].append(False)
            if traced:
                layers.uninstall()
            if "top" in outcome:
                res["tops"].append(outcome["top"])
            if pass_no > 0:
                res["setup"].append(setup_s)
                pass_ingest = sum(batch_ms) / 1e3
                res["traced_pass_ingest" if traced else "pass_ingest"].append(pass_ingest)
                if not traced:
                    res["pass_batch_ms"].append(batch_ms)
                if "recover_s" in outcome:
                    res["recover_s"].append(outcome["recover_s"])
                    res["replayed"].append(outcome["replayed"])
            res["passes"] += 1
            # Drop the finished pass's state (reference cycles included)
            # outside the timed region, so every pass starts alike.
            del state
            gc.collect()
        res["peak_rss_mb"] = peak_rss_mb()
    finally:
        if layers is not None:
            layers.uninstall()
        wl.close()

    # Output checks, after timing: every pass reports the same top pairs
    # (ingest is deterministic at call granularity), and their mean true
    # correlation is computed from the stored stream, never the sketch.
    first = res["tops"][0] if res["tops"] else None
    res["checks"].append(
        first is not None
        and len(res["tops"]) == res["passes"]
        and all(
            all(np.array_equal(a, b) for a, b in zip(top, first)) for top in res["tops"]
        )
    )
    res["top_mean_corr"] = wl.top_mean_corr(first[0], first[1]) if first else float("nan")
    res["checks"].append(bool(res["top_mean_corr"] >= 0.5))
    return res


def end_to_end(res: dict) -> dict:
    """The end-to-end metrics of one ingest run (tracing off).

    Every batch's median time over the timed passes makes the median
    pass: throughput is its samples over its total time, p50 and p99 are
    taken over its batches.  Set-up is the median of the passes' set-ups.
    """
    pass_ms = median_round(res["pass_batch_ms"])
    return {
        "setup_s": median(res["setup"]),
        "ingest_samples_per_s": res["samples_per_pass"] / (pass_ms.sum() / 1e3),
        "ingest_batch_p50_ms": median(pass_ms),
        "ingest_batch_p99_ms": percentile(pass_ms, 99.0),
        "top_mean_corr": res["top_mean_corr"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
