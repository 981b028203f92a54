"""``serve``: online inference of a 2-layer GAT on a power-law graph.

A ``ServingServer`` with one worker serves exact ego graphs
(``fanouts=None``) through an activation cache half the size of its
working set (two levels of activations per vertex). One generating
thread drives it in two phases:

* an open loop: Poisson arrivals at ``RATE`` of hub-skewed vertex ids
  for ``OPEN_SHARE`` of the run, with an ``apply_feature_delta`` every
  ``DELTA_EVERY`` seconds from the same thread. One op is one request,
  timed from when it was due until its future resolved;
* a saturating phase that submits ``BACKLOG`` requests at once,
  ``SATURATE`` times over; the median of their completion rates is
  ``ops_per_s``, the capacity.

Exact ego graphs never consult the random sampler, and they make every
served row checkable against a full-graph forward.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

from common import Outcome, Spans, median, now
from inputs import in_degree_trace, power_law_graph, to_adjacency
import reference as ref

from repro.models import build_model
from repro.obs.metrics import metrics as registry
from repro.serving import ActivationCache, ServingEngine, ServingServer
from repro.tensor.workspace import workspace_high_water_bytes

NAME = "serve"
TAIL_PCT = 99
N, DEGREE, EXPONENT = 32768, 16, 3.0
CLASSES, FEATURES, HIDDEN, LAYERS = 8, 32, 32, 2
#: Entries of the activation cache: half of two levels per vertex.
CACHE = N
#: Open-loop arrival rate (requests/s): about half the highest rate the
#: open loop sustains on the reference host (between 2000 and 2500).
RATE = 800.0
OPEN_SHARE = 0.7
DELTA_EVERY, DELTA_NODES = 1.5, 4
WARMUP, BACKLOG, SATURATE = 4000, 10000, 3
#: Rounding allowed between a served row and the full-graph row, as a
#: share of the row's largest value (about 80 float32 ulp).
ROW_RTOL = 1e-5
#: Seconds to wait for any one future before it counts as lost.
RESULT_TIMEOUT = 60.0


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 5])
    rows, cols = power_law_graph(N, DEGREE, EXPONENT, rng)
    return {
        "seed": seed, "rows": rows, "cols": cols,
        "features": rng.normal(size=(N, FEATURES)).astype(np.float32),
        "warmup": in_degree_trace(N, cols, WARMUP, rng),
        "backlog": in_degree_trace(N, cols, BACKLOG, rng),
    }


class _Replies:
    """Rows and resolve times of ``count`` requests, from done-callbacks.

    Keeping no future alive after it resolves keeps the benchmark's own
    objects out of the garbage collector's way.
    """

    def __init__(self, count: int) -> None:
        self.done = np.zeros(count)
        self.rows: list[np.ndarray | None] = [None] * count
        self._left = count
        self._lock = threading.Lock()
        self._all = threading.Event()
        if count == 0:
            self._all.set()

    def watch(self, index: int, fut) -> None:
        fut.add_done_callback(functools.partial(self._resolved, index))

    def _resolved(self, index: int, fut) -> None:
        self.done[index] = now()
        try:
            row = fut.result()
            self.rows[index] = row if np.isfinite(row).all() else None
        except Exception:  # noqa: BLE001 - a failed request, counted
            pass
        with self._lock:
            self._left -= 1
            if self._left == 0:
                self._all.set()

    def wait(self) -> None:
        """Wait for every reply; a request still open then counts as lost."""
        self._all.wait(RESULT_TIMEOUT)


def setup(inputs: dict) -> dict:
    a = to_adjacency(N, inputs["rows"], inputs["cols"])
    model = build_model("gat", FEATURES, HIDDEN, CLASSES, LAYERS,
                        seed=inputs["seed"])
    cache = ActivationCache(CACHE)
    engine = ServingEngine(model, a, inputs["features"], fanouts=None,
                           cache=cache, seed=inputs["seed"])
    server = ServingServer(engine, workers=1)
    state = {"inputs": inputs, "a": a, "model": model, "cache": cache,
             "engine": engine, "server": server}
    warm = _Replies(WARMUP)
    for index, fut in enumerate(server.submit_many(inputs["warmup"])):
        warm.watch(index, fut)
    warm.wait()
    return state


def run(state: dict, seconds: float, spans: Spans) -> Outcome:
    inputs, server, engine = state["inputs"], state["server"], state["engine"]
    if spans.enabled:
        engine.serve_unique = spans.wrap("serve_unique", engine.serve_unique)
    rng = np.random.default_rng([inputs["seed"], 6])
    open_s = OPEN_SHARE * seconds
    count = int(RATE * open_s * 1.5) + 100
    due = np.cumsum(rng.exponential(1.0 / RATE, count))
    due = due[due < open_s]
    ids = in_degree_trace(N, inputs["cols"], due.size, rng)
    n_deltas = int(open_s / DELTA_EVERY)
    delta_nodes = [np.sort(rng.choice(N, DELTA_NODES, replace=False))
                   for _ in range(n_deltas)]
    delta_rows = [rng.normal(size=(DELTA_NODES, FEATURES)).astype(np.float32)
                  for _ in range(n_deltas)]

    submitted = np.zeros(due.size)
    replies = _Replies(due.size)
    deltas: list[tuple[float, float]] = []
    hits0, misses0 = state["cache"].hits, state["cache"].misses
    registry().reset()
    outcome = Outcome()
    start = now()
    due = due + start
    for i in range(due.size):
        while (len(deltas) < n_deltas
               and start + (len(deltas) + 1) * DELTA_EVERY <= due[i]):
            k = len(deltas)
            t0 = now()
            with spans.span("apply_feature_delta", k):
                engine.apply_feature_delta(delta_nodes[k], delta_rows[k])
            deltas.append((t0, now()))
        wait = due[i] - now()
        if wait > 0:
            time.sleep(wait)
        fut = server.submit(int(ids[i]))
        submitted[i] = now()
        replies.watch(i, fut)
    replies.wait()
    snap = registry().snapshot()
    state["open"] = {
        "hit_rate": (state["cache"].hits - hits0) / max(
            1, state["cache"].hits - hits0 + state["cache"].misses - misses0),
        "flush_ms": median(spans.ms("serve_unique")) if spans.enabled else 0.0,
        "flush_requests": snap["serving.batch_size"]["mean"],
        "flush_unique_seeds": snap["serving.unique_seeds"]["mean"],
        "queue_wait_ms": snap["serving.queue_wait_ms"]["p50"],
        "lag_ms": float(np.mean(submitted - due)) * 1e3,
        "workspace_mb": workspace_high_water_bytes() / 2**20,
    }
    for i in range(due.size):
        answered = replies.done[i] > 0
        outcome.record((replies.done[i] - due[i]) * 1e3 if answered else None,
                       replies.rows[i] is not None, "open-loop")

    # Saturating phase: the whole backlog at once, SATURATE times; the
    # capacity is the median of their completion rates.
    backlog = inputs["backlog"]
    rates, sat_rows = [], []
    for _ in range(SATURATE):
        sat = _Replies(backlog.size)
        t_sat = now()
        for j, fut in enumerate(server.submit_many(backlog)):
            sat.watch(j, fut)
        sat.wait()
        for row in sat.rows:
            outcome.record(None, row is not None, "saturating")
        ok = sum(row is not None for row in sat.rows)
        rates.append(ok / (sat.done.max() - t_sat))
        sat_rows += sat.rows
    outcome.ops_per_s = median(rates)
    outcome.elapsed_s = now() - start
    state["log"] = {
        "ids": ids, "submitted": submitted, "done": replies.done,
        "rows": replies.rows, "deltas": deltas, "delta_nodes": delta_nodes,
        "delta_rows": delta_rows, "sat_rows": sat_rows,
    }
    return outcome


def served_problems(expected: np.ndarray, nodes, rows) -> list[str]:
    """Served rows equal the full-graph forward's rows of their version.

    The program promises bit-identical rows; today float32 BLAS matmuls
    of the 8-wide output layer round differently for small batches, and
    rows differ by up to about ten ulp (see README). A row from a stale
    version, or wrong in any other way, differs by far more.
    """
    want = expected[np.asarray(nodes, dtype=np.int64)]
    got = np.asarray(rows)
    if got.size == 0:
        return []
    limit = ROW_RTOL * np.abs(want).max(axis=1, keepdims=True)
    bad = int(np.sum(np.any(np.abs(got - want) > limit, axis=1)))
    if bad:
        return [f"{bad} served rows differ from the full-graph forward by "
                f"more than {ROW_RTOL} of their largest value"]
    return []


def check(state: dict, outcome: Outcome) -> list[str]:
    log, inputs, model = state["log"], state["inputs"], state["model"]
    problems: list[str] = []
    if outcome.failures:
        problems.append(f"failed or lost requests: {outcome.failures}")
    # A request submitted after delta k-1 finished and answered before
    # delta k began can only have been served at version k.
    starts = np.array([d[0] for d in log["deltas"]] + [np.inf])
    ends = np.array([d[1] for d in log["deltas"]])
    version = np.searchsorted(ends, log["submitted"], side="right")
    answered = log["done"] < starts[version]
    features = np.array(inputs["features"])
    checked = inexact = 0
    for k in range(len(log["deltas"]) + 1):
        if k:
            features[log["delta_nodes"][k - 1]] = log["delta_rows"][k - 1]
        picked = np.flatnonzero((version == k) & answered)
        picked = [i for i in picked if log["rows"][i] is not None]
        final = k == len(log["deltas"])
        if not picked and not final:
            continue
        expected = model.forward(state["a"], features, training=False)
        nodes = [log["ids"][i] for i in picked]
        rows = [log["rows"][i] for i in picked]
        if final:
            kept = [i for i, r in enumerate(log["sat_rows"]) if r is not None]
            nodes += [inputs["backlog"][i % BACKLOG] for i in kept]
            rows += [log["sat_rows"][i] for i in kept]
        problems += served_problems(expected, nodes, rows)
        checked += len(rows)
        inexact += sum(not np.array_equal(r, expected[v])
                       for v, r in zip(nodes, rows))
        if rows and final:
            problems += ref.self_test(
                "served rows",
                lambda r: served_problems(expected, nodes, r),
                [ref.nudge(rows[0], 1e-4)] + rows[1:])
    print(f"perfbench: serve: {checked} rows checked, {inexact} not "
          "bit-identical to the full-graph forward", file=sys.stderr)
    if checked < 0.9 * outcome.attempted:
        problems.append(f"only {checked} of {outcome.attempted} requests "
                        "could be checked against one version")
    return problems


def per_layer(state: dict, outcome: Outcome, spans: Spans) -> dict[str, float]:
    o = state["open"]
    return {
        "cache_hit_rate": o["hit_rate"],
        "flush_ms": o["flush_ms"],
        "flush_requests": o["flush_requests"],
        "flush_unique_seeds": o["flush_unique_seeds"],
        "queue_wait_ms": o["queue_wait_ms"],
        "delta_ms": median(spans.ms("apply_feature_delta")),
        "generator_lag_ms": o["lag_ms"],
        "workspace_high_water_mb": o["workspace_mb"],
    }


def close(state: dict) -> None:
    state["server"].close()
