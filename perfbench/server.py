"""The serve-mixed server process.

Builds the ``ServingEstimator`` under test (CS, correlation mode, d=2^20),
prefills it with the seeded stream prefix, puts it behind a
``ServingHTTPServer`` and prints ``READY <port>``.  On a ``stop`` line on
stdin it stops serving, writes the spans and prints ``DONE <json>``: peak
RSS, the server-side time of every request by request id, and with
tracing the engine cache counts.

Every request is timed server-side, from the handler's entry to its
return.  With ``--spans`` each request is also a root span of the layer
trace, except requests whose id starts with ``u`` (the untraced half of
the tracing-overhead measurement).

Run only by ``serve.py``; the generator never shares this process's GIL.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import bootstrap  # noqa: F401 - must precede every repro import

from common import PARAMS, batched, peak_rss_mb, samples_of, stream
from repro.distributed.shard import ShardSpec
from repro.serving.http import serve_in_background
from repro.serving.live import ServingEstimator

P = PARAMS["workloads"]["serve-mixed"]


def build_estimator() -> ServingEstimator:
    """The serving stack under test, empty (also used for the replay check)."""
    spec = ShardSpec(
        dim=P["dim"],
        total_samples=P["total_samples"],
        method=P["method"],
        num_tables=P["num_tables"],
        num_buckets=P["num_buckets"],
        mode=P["mode"],
        batch_size=P["batch"],
        track_top=P["track_top"],
    )
    return ServingEstimator.from_spec(
        spec, refresh_every=P["refresh_every"], cache_size=P["cache_size"]
    )


def prefill_batches(seed: int) -> list:
    return batched(samples_of(stream(P["dim"], P["prefill_samples"], seed)), P["batch"])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    layers = None
    engines = []
    if args.spans:
        from spans import Layers, install_layers

        layers = Layers()
        install = ServingEstimator.install

        def keep_engine(self, snapshot):
            # Every engine ever served, for the cache hit rate across swaps.
            engine = install(self, snapshot)
            engines.append(engine)
            return engine

        ServingEstimator.install = keep_engine
        install_layers(layers)

    est = build_estimator()
    for batch in prefill_batches(args.seed):
        est.ingest_sparse(batch)
    est.refresh()
    server, _ = serve_in_background(est)
    requests: list[tuple[str, float]] = []
    _time_requests(server.RequestHandlerClass, requests, layers)
    print(f"READY {server.port}", flush=True)

    try:
        for line in sys.stdin:
            if line.split()[:1] == ["stop"]:
                break
    finally:
        server.stop(timeout=10)
    out = {"peak_rss_mb": peak_rss_mb(), "swaps": est.swap_count, "requests": requests}
    if layers is not None:
        layers.dump(args.spans)
        hits = sum(e.cache.stats().hits for e in engines)
        misses = sum(e.cache.stats().misses for e in engines)
        out["cache_hits"] = hits
        out["cache_misses"] = misses
    print("DONE " + json.dumps(out), flush=True)


def _time_requests(handler_cls, requests: list, layers) -> None:
    """Time every request server-side; with ``layers``, make it a root
    span carrying the client's ``X-Request-Id``."""
    for attr in ("do_GET", "do_POST"):
        original = getattr(handler_cls, attr)

        def timed(self, _original=original):
            rid = self.headers.get("X-Request-Id") or ""
            started = time.perf_counter()
            if layers is not None and not rid.startswith("u"):
                with layers.root("http.request", rid=rid):
                    _original(self)
            else:
                _original(self)
            requests.append((rid, time.perf_counter() - started))

        setattr(handler_cls, attr, timed)


if __name__ == "__main__":
    main()
