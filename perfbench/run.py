"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload ingest-corr --seed 1 --seconds 20 --trace 0

Workloads (parameters and the reason for each are in ``workloads.json``):

``ingest-corr``     ASCS in correlation mode at d=2^20, in process;
``ingest-durable``  CS in covariance mode behind ``DurableSketcher``;
``serve-mixed``     reads beside writes over HTTP against a server process.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is a separate run that wraps each layer's public callables
(see ``spans.py``), reports the per-layer metrics and writes the spans to
``.perfbench/``.  Every metric is printed as ``name value unit``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The process exits non-zero if
an output check fails.

``workloads.json`` also names a held-out seed: keep it out of development
runs and use it to confirm a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import bootstrap  # noqa: F401 - must precede every repro import

import numpy as np

from common import PARAMS, host_ref_ms, median, out_dir, percentile
from spans import Layers, aggregate_roots, load, rid_of, walk

ROOT = Path(__file__).resolve().parent.parent


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def ingest_layers(trees, root: str, rid_prefix: str, batch: int, passes: int) -> dict:
    """Per-layer metrics of the ingest path below each ``root`` span."""
    agg = aggregate_roots(trees, root, rid_prefix)
    n = agg["roots"]
    selfs, counts, calls, dur = agg["self"], agg["counts"], agg["calls"], agg["dur"]
    # Sketch keys handed over by the estimator itself; a snapshot build
    # inside an ingest request also queries a sketch, but not the gate.
    under = agg["counts_under"]
    examined = counts["estimator.ingest"]["examined"]
    queried = under[("estimator.ingest", "sketch.query")]["keys"]
    inserted = (
        under[("estimator.ingest", "sketch.insert")]["keys"]
        + under[("estimator.ingest", "sketch.insert_and_query")]["keys"]
    )
    root_self = selfs[root]
    return {
        "batch.wall_s": _per(agg["wall"], n),
        "trace.covered_share": _per(agg["wall"] - root_self, agg["wall"]),
        "moments.std_s": _per(selfs["moments.std"], n),
        "moments.update_s": _per(selfs["moments.update"], n),
        "moments.std_share": _per(selfs["moments.std"], agg["wall"]),
        "pairs.expand_s": _per(selfs["pairs.expand"], n),
        "pairs.aggregate_s": _per(selfs["pairs.aggregate"], n),
        "pairs.updates_per_sample": _per(counts["pairs.expand"]["updates"], n * batch),
        "pairs.dedup_ratio": _per(counts["pairs.aggregate"]["out"], counts["pairs.aggregate"]["in"]),
        "estimator.ingest_s": _per(selfs["estimator.ingest"], n),
        "ascs.acceptance": _per(inserted, examined),
        "ascs.hashed_per_examined": _per(queried + inserted, examined),
        "sketch.query_s": _per(selfs["sketch.query"], n),
        "sketch.insert_s": _per(selfs["sketch.insert"], n),
        "sketch.insert_and_query_s": _per(selfs["sketch.insert_and_query"], n),
        "sketch.keys_queried": _per(queried, n),
        "sketch.keys_inserted": _per(inserted, n),
        "tracker.offer_s": _per(selfs["tracker.offer"], n),
        "tracker.offered_keys": _per(counts["tracker.offer"]["keys"], n),
        "wal.append_s": _per(selfs["wal.append"], n),
        "wal.bytes_per_sample": _per(counts["wal.append"]["bytes"], counts["wal.append"]["samples"]),
        "ckpt.write_s": _per(dur["ckpt.write"], calls["ckpt.write"]),
        "ckpt.count": _per(calls["ckpt.write"], passes),
    }


def serve_layers(trees, res: dict) -> dict:
    """HTTP, engine and serving metrics of one traced serve-mixed run."""
    by_name: dict[str, list] = {}
    inner_by_rid: dict[str, float] = {}
    for tree in trees:
        rid = rid_of(tree)
        for span, _, _ in walk(tree):
            name = span["name"]
            by_name.setdefault(name, []).append(span["duration_seconds"])
            if rid and (name.startswith("engine.") or name == "serving.ingest"):
                inner_by_rid[rid] = inner_by_rid.get(rid, 0.0) + span["duration_seconds"]

    def durations(name):
        return by_name.get(name, [])

    out = {}
    reads = [r for r in res["reads"] if r[1] == 200]
    for kind in ("pair", "query", "top"):
        out[f"http.rtt_ms.{kind}"] = median([r[2] * 1e3 for r in reads if r[0] == kind])
    writes = [w for w in res["writes"] if w["status"] == 200]
    out["http.rtt_ms.ingest"] = median([w["rtt"] * 1e3 for w in writes])
    out["http.overhead_ms"] = median(
        [(r[2] - inner_by_rid[r[3]]) * 1e3 for r in reads if r[3] in inner_by_rid]
    )
    out["http.overhead_ms.ingest"] = median(
        [(w["rtt"] - inner_by_rid[f"w{w['n']}"]) * 1e3 for w in writes if f"w{w['n']}" in inner_by_rid]
    )
    for kind, name in (("pair", "engine.pair"), ("keys", "engine.keys"), ("top", "engine.top")):
        out[f"engine.query_s.{kind}"] = median(durations(name))
    server = res["server"]
    out["engine.cache_hit_rate"] = _per(
        server.get("cache_hits", 0), server.get("cache_hits", 0) + server.get("cache_misses", 0)
    )
    installs = durations("serving.install")
    builds = durations("snapshot.build")
    out["serving.ingest_s"] = float(np.mean(durations("serving.ingest")))
    out["serving.refresh_s"] = _per(sum(installs) + sum(builds), len(installs))
    out["snapshot.build_s"] = float(np.mean(builds)) if builds else 0.0
    out["serving.swaps"] = float(len(installs))
    out["loadgen.lag_p99_ms"] = percentile(
        [(w["sent"] - w["due"]) * 1e3 for w in res["writes"]], 99.0
    )
    return out


def workload_only(workload: str, res: dict) -> dict:
    """End-to-end metrics that exist on one workload only.

    ``BENCHMARK.json`` gates only metrics that every workload reports, so
    these are printed with every run and reported per layer.
    """
    if workload == "serve-mixed":
        import serve

        return serve.reads(res)
    if workload == "ingest-durable":
        return {"recover_s": median(res["recover_s"])}
    return {}


def per_layer(workload: str, res: dict, layers: Layers) -> dict:
    p = PARAMS["workloads"][workload]
    metrics = workload_only(workload, res)
    if workload == "serve-mixed":
        trees = load(res["spans_path"])
        metrics.update(ingest_layers(trees, "http.request", "w", p["batch"], 1))
        metrics.update(serve_layers(trees, res))
        metrics["trace.overhead"] = res["trace_overhead"]
    else:
        passes = len(res["traced_pass_ingest"])
        metrics.update(ingest_layers(layers.trees(), "batch", "b", p["batch"], passes))
        metrics["trace.overhead"] = median(res["traced_pass_ingest"]) / median(res["pass_ingest"])
        layers.dump(out_dir() / f"spans-{workload}-{res['seed']}.jsonl")
    if res.get("replayed"):
        metrics["recover.replayed_records"] = median(res["replayed"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    e2e_units, layer_units = _metric_specs()
    from repro.sketch.kernels import numba_available

    meta = {"cpu_count": os.cpu_count(), "numba": numba_available()}
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# meta cpu_count={meta['cpu_count']} numba={meta['numba']}")
    layers = Layers() if args.trace else None
    host_start = host_ref_ms()
    if args.workload == "serve-mixed":
        import serve

        res = serve.run(args.seed, args.seconds, layers)
        e2e = serve.end_to_end(res)
    else:
        import ingest

        res = ingest.run(args.workload, args.seed, args.seconds, layers)
        e2e = ingest.end_to_end(res)
    res["seed"] = args.seed
    host_ms = median([host_start, host_ref_ms()])
    print(f"# meta host_ref_ms={host_ms:.4f}")

    attempted = int(res["attempted"])
    failed = int(sum(res["failed"].values()))
    e2e["ok_share"] = (attempted - failed) / attempted
    correct = bool(res["checks"]) and all(bool(c) for c in res["checks"])
    print(f"# checks={[bool(c) for c in res['checks']]} failed_by_kind={res['failed']}")

    if args.trace:
        values = per_layer(args.workload, res, layers)
        values["meta.cpu_count"] = float(meta["cpu_count"] or 0)
        values["meta.numba"] = float(meta["numba"])
        values["meta.host_ref_ms"] = host_ms
        units = layer_units
    else:
        for name, value in workload_only(args.workload, res).items():
            print(f"# {name} {value:.6g} {layer_units[name]} (this workload only; not gated)")
        values = e2e
        units = e2e_units
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        if args.trace:
            # A layer this workload never enters reports 0.
            value = float(values.get(name, 0.0))
        else:
            value = float(values[name])
        print(f"{name} {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
