"""``train_dist``: 1.5D distributed training on the thread fabric.

One op is one ``distributed_train`` call of ``EPOCHS`` epochs on p=4
ranks, the smallest square grid the 1.5D layers accept. Calls rotate
round-robin over GAT and AGNN, each with its synchronous and its
overlapped schedule. Every call trains from the same initial weights,
so its losses and traffic repeat exactly.
"""

from __future__ import annotations

import numpy as np

from common import Outcome, Spans, median, now
from inputs import planted_partition, to_adjacency
from reference import self_test

from repro.distributed.api import distributed_train
from repro.models import build_model
from repro.training import SGD, SoftmaxCrossEntropyLoss, Trainer

NAME = "train_dist"
TAIL_PCT = 85
N, CLASSES, FEATURES, HIDDEN, LAYERS, DEGREE = 1024, 8, 32, 32, 3, 32
P, EPOCHS, LR = 4, 2, 0.01
#: name -> (model, overlapped schedule)
CONFIGS = {
    "gat.sync": ("gat", False),
    "gat.overlap": ("gat", True),
    "agnn.sync": ("agnn", False),
    "agnn.overlap": ("agnn", True),
}
#: Per-epoch losses must match a single-node run to float32 rounding.
LOSS_RTOL = 1e-5


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    return {"seed": seed,
            "data": planted_partition(N, CLASSES, FEATURES, DEGREE, rng)}


def _call(state, name):
    model, overlap = CONFIGS[name]
    data = state["data"]
    return distributed_train(
        model, state["a"], data.features, data.labels, HIDDEN, CLASSES,
        num_layers=LAYERS, p=P, epochs=EPOCHS, lr=LR, mask=data.train_mask,
        seed=state["seed"], overlap=overlap, backend="thread",
        collect_output=False,
    )


def setup(inputs: dict) -> dict:
    data = inputs["data"]
    state = {"data": data, "seed": inputs["seed"],
             "a": to_adjacency(N, data.rows, data.cols)}
    for name in CONFIGS:
        _call(state, name)
    return state


def run(state: dict, seconds: float, spans: Spans) -> Outcome:
    outcome = Outcome()
    results = state["results"] = {name: [] for name in CONFIGS}
    start = now()
    while now() - start < seconds:
        for name in CONFIGS:
            op = outcome.attempted
            t0 = now()
            try:
                with spans.span("distributed_train." + name, op):
                    result = _call(state, name)
                ok = bool(np.all(np.isfinite(result.losses)))
            except Exception:  # noqa: BLE001 - a failed op, counted
                ok, result = False, None
            outcome.record((now() - t0) * 1e3, ok, name)
            if result is not None:
                results[name].append((result.losses, result.stats))
    outcome.elapsed_s = now() - start
    return outcome


def _traffic(stats) -> tuple[int, int]:
    return (sum(s.bytes_sent for s in stats.per_rank),
            sum(s.messages_sent for s in stats.per_rank))


def single_node_losses(state: dict, model_name: str) -> list[float]:
    """The same training on one node, from the same initial weights."""
    data = state["data"]
    model = build_model(model_name, FEATURES, HIDDEN, CLASSES, LAYERS,
                        seed=state["seed"])
    trainer = Trainer(model, SoftmaxCrossEntropyLoss(data.train_mask),
                      SGD(LR))
    return trainer.fit(state["a"], data.features, data.labels,
                       epochs=EPOCHS).losses


def loss_problems(name, got, want) -> list[str]:
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=LOSS_RTOL,
                                                  atol=0.0):
        return [f"{name}: per-epoch losses {got.tolist()} differ from "
                f"single-node {want.tolist()}"]
    return []


def check(state: dict, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    if outcome.failures:
        problems.append(f"failed calls: {outcome.failures}")
    want = {m: single_node_losses(state, m) for m in ("gat", "agnn")}
    traffic = {}
    for name, (model, _) in CONFIGS.items():
        runs = state["results"][name]
        if not runs:
            problems.append(f"{name}: no completed call")
            continue
        for losses, _ in runs:
            problems += loss_problems(name, losses, want[model])
        seen = {_traffic(stats) for _, stats in runs}
        if len(seen) != 1:
            problems.append(f"{name}: traffic differs between calls {seen}")
        traffic[name] = seen.pop()
    for model in ("gat", "agnn"):
        sync, overlap = traffic.get(f"{model}.sync"), traffic.get(f"{model}.overlap")
        if sync is not None and overlap is not None and sync[0] != overlap[0]:
            problems.append(f"{model}: sync moved {sync[0]} bytes, "
                            f"overlapped {overlap[0]}")
    problems += self_test(
        "distributed losses", lambda x: loss_problems("gat", x, want["gat"]),
        [v * (1 + 1e-4) for v in want["gat"]])
    return problems


def per_layer(state: dict, outcome: Outcome, spans: Spans) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in CONFIGS:
        stats = [s for _, s in state["results"][name]]
        nbytes, messages = _traffic(stats[-1])
        metrics[f"comm_bytes.{name}"] = nbytes / EPOCHS
        metrics[f"comm_messages.{name}"] = messages / EPOCHS
        metrics[f"wait_ms.{name}"] = median([s.max_wait_s * 1e3 for s in stats])
        metrics[f"rank_wall_ms.{name}"] = median(
            [s.max_wall_s * 1e3 for s in stats])
        metrics[f"wait_default_ms.{name}"] = median(
            [s.max_wait_by_phase().get("default", 0.0) * 1e3 for s in stats])
    data = state["data"]
    for model_name in ("gat", "agnn"):
        model = build_model(model_name, FEATURES, HIDDEN, CLASSES, LAYERS,
                            seed=state["seed"])
        trainer = Trainer(model, SoftmaxCrossEntropyLoss(data.train_mask),
                          SGD(LR))
        times = []
        for _ in range(8):
            with spans.span("trainer.fit." + model_name):
                t0 = now()
                trainer.fit(state["a"], data.features, data.labels, epochs=1)
                times.append((now() - t0) * 1e3)
        metrics[f"single_node_ms.{model_name}"] = median(times[1:])
    return metrics


def close(state: dict) -> None:
    pass
