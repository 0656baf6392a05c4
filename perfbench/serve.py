"""The ``serve-mixed`` workload: reads beside writes over HTTP.

One generator process drives a server child process over two HTTP/1.1
keep-alive connections:

* a reader thread in a closed loop over a seeded mix of Zipf-skewed
  ``GET /pair``, 256-key ``POST /query`` and ``GET /top?k=100``;
* a writer thread sending 32-sample ``POST /ingest`` batches on an
  open-loop schedule (fixed rate), each timed from when it was due.

The writer's batches fall into refresh cycles: the server swaps its
snapshot inline in every ``refresh_every / batch``-th ingest, always at
the same place in a cycle.  The ingest timings come from the median cycle
(see ``common.median_round``); set-up is the median of ``setup_repeats``
spawns.

Afterwards a final ``POST /refresh`` is answered, ``POST /query`` answers
are compared with an in-process replay of exactly the acknowledged
batches, and ``GET /top`` is scored against the ground truth of the
ingested stream.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    HERE,
    MISSED_MS,
    PARAMS,
    batched,
    median_round,
    check_keys,
    median,
    percentile,
    read_ops,
    samples_of,
    stream,
    out_dir,
    truth_matrix,
)
from repro.covariance.ground_truth import pair_correlations

P = PARAMS["workloads"]["serve-mixed"]


class Server:
    """The server child process and its control channel."""

    def __init__(self, seed: int, spans_path: str = ""):
        cmd = [sys.executable, str(HERE / "server.py"), "--seed", str(seed)]
        if spans_path:
            cmd += ["--spans", spans_path]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Seconds from spawn until ``GET /health`` first answers ok."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/health")
                resp = conn.getresponse()
                body = json.loads(resp.read())
                if resp.status == 200 and body.get("status") == "ok":
                    return time.perf_counter() - self.started
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.close()
        out = {}
        for line in self.proc.stdout:
            if line.startswith("DONE "):
                out = json.loads(line[5:])
        self.proc.wait(timeout=60)
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


class Client:
    """One keep-alive connection; every call returns ``(status, body, rtt)``.

    A transport error or timeout reconnects and reports status 0.
    """

    def __init__(self, port: int):
        self.port = port
        self.conn = self._connect()

    def _connect(self):
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=P["request_timeout_s"]
        )

    def call(self, method: str, path: str, body: bytes | None, rid: str):
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            return resp.status, data, time.perf_counter() - started
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = self._connect()
            return 0, b"", time.perf_counter() - started

    def close(self) -> None:
        self.conn.close()


def _encode_read(op) -> tuple[str, str, str, bytes | None]:
    kind = op[0]
    if kind == "pair":
        return kind, "GET", f"/pair?i={op[1]}&j={op[2]}", None
    if kind == "query":
        return kind, "POST", "/query", json.dumps({"keys": op[1].tolist()}).encode()
    return kind, "GET", f"/top?k={op[1]}", None


def _encode_ingest(batch) -> bytes:
    return json.dumps(
        {"samples": [[idx.tolist(), val.tolist()] for idx, val in batch]}
    ).encode()


#: Writes per refresh cycle: the server swaps in one of every CYCLE.
CYCLE = P["refresh_every"] // P["batch"]

#: Reads per round of the tracing-overhead measurement, and its rounds.
CALIBRATION_READS = 60
CALIBRATION_ROUNDS = 3


def run(seed: int, seconds: float, layers) -> dict:
    from server import build_estimator, prefill_batches

    rate = P["writer_batches_per_s"]
    # Whole refresh cycles only, so every place in a cycle has as many rounds.
    num_writes = CYCLE * max(1, int(rate * seconds) // CYCLE)
    prefill = P["prefill_samples"]
    source = stream(P["dim"], prefill + num_writes * P["batch"], seed)
    planted = source.planted_pair_keys()
    samples = samples_of(source)
    writes = batched(samples[prefill:], P["batch"])
    write_bodies = [_encode_ingest(b) for b in writes]
    reads = [_encode_read(op) for op in read_ops(np.random.default_rng([seed, 1]), P["dim"], planted)]
    check = check_keys(np.random.default_rng([seed, 2]), P["dim"], planted, P["check_keys"])

    res = {"failed": {}, "attempted": 0, "checks": [], "setup": []}
    res["spans_path"] = spans_path = (
        str(out_dir() / f"spans-serve-mixed-{seed}.jsonl") if layers is not None else ""
    )

    def fail(kind):
        res["failed"][kind] = res["failed"].get(kind, 0) + 1

    # Set-up is measured several times: spawn, prefill, first healthy /health.
    for _ in range(P["setup_repeats"] - 1):
        server = Server(seed)
        try:
            res["setup"].append(server.wait_healthy())
            server.stop()
        finally:
            server.kill()
    server = Server(seed, spans_path)
    reader = writer = None
    try:
        res["setup"].append(server.wait_healthy())
        reader, writer = Client(server.port), Client(server.port)
        if layers is not None:
            # Tracing overhead: the same reads with request ids the server
            # leaves untraced ("u...") and traces ("c..."), in alternating
            # rounds after an untimed warm-up.  Pair reads are left out so
            # the engine cache counts stay those of the session.
            calib = [r for r in reads if r[0] != "pair"][:CALIBRATION_READS]
            for label in ["cal-warm"] + [f"{m}{k}" for k in range(CALIBRATION_ROUNDS) for m in "uc"]:
                for n, (_, method, path, body) in enumerate(calib):
                    reader.call(method, path, body, f"{label}.{n}")
        session = _session(reader, writer, reads, write_bodies, rate, seconds)
        for key in ("reads", "writes", "session_s"):
            res[key] = session[key]
        res["attempted"] += session["reads_attempted"] + len(session["writes"])
        for kind, n in session["failed"].items():
            res["failed"][kind] = res["failed"].get(kind, 0) + n

        # Output checks after timing.
        res["attempted"] += 3
        status, _, _ = writer.call("POST", "/refresh", b"{}", "final-refresh")
        if status != 200:
            fail("refresh")
        status, body, _ = reader.call(
            "POST", "/query", json.dumps({"keys": check.tolist()}).encode(), "check-query"
        )
        served = np.asarray(json.loads(body)["estimates"]) if status == 200 else None
        if served is None:
            fail("check-query")
        status, body, _ = reader.call("GET", f"/top?k={P['top_k_quality']}", None, "check-top")
        top = json.loads(body) if status == 200 else None
        if top is None:
            fail("check-top")
    finally:
        for client in (reader, writer):
            if client is not None:
                client.close()
        try:
            res["server"] = server.stop()
        finally:
            server.kill()

    acked = [w for w in session["writes"] if w["status"] == 200]
    ambiguous = any(w["status"] == 0 for w in session["writes"])
    acked_samples = samples[:prefill] + [s for w in acked for s in writes[w["n"]]]
    # Replay exactly the acknowledged batches in process; the HTTP answers
    # must match bit for bit (JSON floats round-trip exactly).
    replay = build_estimator()
    for batch in prefill_batches(seed):
        replay.ingest_sparse(batch)
    for w in acked:
        replay.ingest_sparse(writes[w["n"]])
    replay.refresh()
    expected = replay.query_keys(check)
    res["checks"].append(
        served is not None and not ambiguous and np.array_equal(served, expected)
    )
    if top is not None and top["i"]:
        truth = pair_correlations(truth_matrix(acked_samples, P["dim"]), top["i"], top["j"])
        res["top_mean_corr"] = float(truth.mean())
    else:
        res["top_mean_corr"] = float("nan")
    res["checks"].append(bool(res["top_mean_corr"] >= 0.5))
    # Server-side time of every acknowledged /ingest request: JSON decode,
    # ingest and any inline snapshot swap.
    server_s = dict(res["server"].get("requests", []))
    res["ingest_server_s"] = [server_s.get(f"w{w['n']}", 0.0) for w in session["writes"]]
    if layers is not None:
        res["trace_overhead"] = median(
            [
                sum(server_s[f"c{k}.{n}"] for n in range(len(calib)))
                / sum(server_s[f"u{k}.{n}"] for n in range(len(calib)))
                for k in range(CALIBRATION_ROUNDS)
            ]
        )
    return res


def _session(reader: Client, writer: Client, reads, write_bodies, rate, seconds) -> dict:
    """Run the reader and the open-loop writer side by side for ``seconds``."""
    out = {"reads": [], "writes": [], "failed": {}, "reads_attempted": 0}
    lock = threading.Lock()

    def fail(kind):
        with lock:
            out["failed"][kind] = out["failed"].get(kind, 0) + 1

    start = time.perf_counter()
    deadline = start + seconds

    def read_loop():
        n = 0
        while time.perf_counter() < deadline:
            kind, method, path, body = reads[n % len(reads)]
            status, _, rtt = reader.call(method, path, body, f"r{n}")
            out["reads"].append((kind, status, rtt, f"r{n}"))
            if status != 200:
                fail("read-" + kind)
            n += 1
        out["reads_attempted"] = n

    def write_loop():
        for n, body in enumerate(write_bodies):
            due = start + n / rate
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            status, _, rtt = writer.call("POST", "/ingest", body, f"w{n}")
            done = time.perf_counter()
            out["writes"].append(
                {"n": n, "status": status, "rtt": rtt, "due": due, "sent": sent, "done": done}
            )
            if status != 200:
                fail("ingest")

    threads = [threading.Thread(target=read_loop), threading.Thread(target=write_loop)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # The session ends when the reader stops or the last write is
    # acknowledged, whichever is later.
    out["session_s"] = max([deadline] + [w["done"] for w in out["writes"]]) - start
    return out


def _cycles(values: list) -> list[list]:
    return [values[k : k + CYCLE] for k in range(0, len(values), CYCLE)]


def end_to_end(res: dict) -> dict:
    """The gated end-to-end metrics of one serve-mixed run (tracing off).

    Each place in the refresh cycle keeps its median over the run's
    cycles.  The writer's rate is fixed, so ``ingest_samples_per_s`` is
    the server's: a cycle's samples over the summed median server-side
    time of its ``/ingest`` requests.  A refused or failed request counts as
    missing every latency limit (``MISSED_MS``).
    """
    acked = [w["status"] == 200 for w in res["writes"]]
    batch_ms = median_round(
        _cycles(
            [(w["done"] - w["due"]) * 1e3 if ok else MISSED_MS for w, ok in zip(res["writes"], acked)]
        )
    )
    server_ms = median_round(
        _cycles([s * 1e3 if ok else MISSED_MS for s, ok in zip(res["ingest_server_s"], acked)])
    )
    return {
        "setup_s": median(res["setup"]),
        "ingest_samples_per_s": CYCLE * P["batch"] / (server_ms.sum() / 1e3),
        "ingest_batch_p50_ms": median(batch_ms),
        "ingest_batch_p99_ms": percentile(batch_ms, 99.0),
        "top_mean_corr": res["top_mean_corr"],
        "peak_rss_mb": res["server"].get("peak_rss_mb", float("nan")),
    }


def reads(res: dict) -> dict:
    """The reader's latency and closed-loop rate (one connection)."""
    read_ms = [rtt * 1e3 if status == 200 else MISSED_MS for _, status, rtt, _ in res["reads"]]
    return {
        "read_p50_ms": median(read_ms),
        "read_p99_ms": percentile(read_ms, 99.0),
        "reads_per_s": len(read_ms) / res["session_s"],
    }
