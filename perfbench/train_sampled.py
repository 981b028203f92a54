"""``train_sampled``: sampled mini-batch steps of a 2-layer GAT.

One op is one batch: ``sample_blocks`` with a fixed fan-out per layer
for 512 training targets, then ``train_step``. On a graph eight times
``train_full``'s, the sampler and the backward pass over small blocks
do most of the work.
"""

from __future__ import annotations

import numpy as np

from common import Outcome, Spans, median, now
from inputs import planted_partition, to_adjacency
import reference as ref

from repro.models import build_model
from repro.tensor.csr import CSRMatrix
from repro.tensor.sampling_graph import Block, sample_blocks
from repro.tensor.workspace import workspace_high_water_bytes
from repro.training.loss import SoftmaxCrossEntropyLoss
from repro.training.minibatch import train_step
from repro.training.optim import Adam

NAME = "train_sampled"
TAIL_PCT = 85
N, CLASSES, FEATURES, HIDDEN, LAYERS, DEGREE = 32768, 8, 32, 32, 2, 32
FANOUTS = (10, 10)
BATCH = 512
LR = 0.01
WARMUP_BATCHES = 2
#: Batches whose blocks are kept and checked edge by edge.
CHECKED_BATCHES = 16
#: Batches trained before the accuracy check (topped up untimed).
MIN_BATCHES = 40
ACCURACY_FLOOR = 0.8


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    data = planted_partition(N, CLASSES, FEATURES, DEGREE, rng)
    return {"seed": seed, "data": data}


def setup(inputs: dict) -> dict:
    data, seed = inputs["data"], inputs["seed"]
    state = {
        "data": data,
        "a": to_adjacency(N, data.rows, data.cols),
        "model": build_model("gat", FEATURES, HIDDEN, CLASSES, LAYERS,
                             seed=seed),
        "opt": Adam(LR),
        "loss": SoftmaxCrossEntropyLoss(),
        "train_ids": np.flatnonzero(data.train_mask),
        "rng": np.random.default_rng([seed, 3]),
        "kept": [],
        "batches": 0,
    }
    for _ in range(WARMUP_BATCHES):
        _batch(state)
    return state


def _batch(state, spans: Spans | None = None, op: int = -1):
    """Sample and train one batch; returns (loss, blocks)."""
    rng = state["rng"]
    targets = np.sort(rng.choice(state["train_ids"], BATCH, replace=False))
    data = state["data"]
    if spans is None:
        blocks = sample_blocks(state["a"], targets, FANOUTS, rng)
        value = train_step(state["model"], state["loss"], state["opt"], blocks,
                           data.features, data.labels)
    else:
        with spans.span("sample", op):
            blocks = sample_blocks(state["a"], targets, FANOUTS, rng)
        with spans.span("train_step", op):
            value = train_step(state["model"], state["loss"], state["opt"],
                               blocks, data.features, data.labels)
    state["batches"] += 1
    return value, blocks


def run(state: dict, seconds: float, spans: Spans) -> Outcome:
    outcome = Outcome()
    traced = spans.enabled
    sizes = state.setdefault("sizes", [])
    start = now()
    while now() - start < seconds:
        op = outcome.attempted
        t0 = now()
        try:
            value, blocks = _batch(state, spans if traced else None, op)
            ok = bool(np.isfinite(value))
        except Exception:  # noqa: BLE001 - a failed op, counted
            ok, blocks = False, None
        outcome.record((now() - t0) * 1e3, ok, "batch")
        if blocks is not None and len(state["kept"]) < CHECKED_BATCHES:
            state["kept"].append(blocks)
        if traced and blocks is not None:
            sizes.append((sum(b.sampled_edges for b in blocks),
                          blocks[0].num_src))
    outcome.elapsed_s = now() - start
    state["workspace_mb"] = workspace_high_water_bytes() / 2**20
    return outcome


def block_problems(blocks, edges: ref.EdgeList) -> list[str]:
    """Every sampled edge exists; no destination exceeds its fan-out."""
    problems = []
    for layer, (block, fanout) in enumerate(zip(blocks, FANOUTS)):
        m = block.matrix
        counts = np.diff(m.indptr)
        dst = np.repeat(block.src_nodes, counts)
        src = block.src_nodes[m.indices]
        missing = int(np.sum(~edges.contains(dst, src)))
        if missing:
            problems.append(f"block {layer}: {missing} sampled edges "
                            "are not in the graph")
        over = int(np.sum(counts > fanout))
        if over:
            problems.append(f"block {layer}: {over} destinations have more "
                            f"than {fanout} sampled in-edges")
    return problems


def _perturbed(blocks):
    """The first block with one edge re-pointed and one row over fan-out."""
    b = blocks[0]
    m = b.matrix
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    first = int(rows[0])
    extra = FANOUTS[0] + 1 - int(np.diff(m.indptr)[first])
    indices = np.concatenate([np.full(max(extra, 0), m.indices[0]), m.indices])
    indptr = m.indptr.copy()
    indptr[first + 1:] += max(extra, 0)
    # Re-point one edge at a vertex that is not its neighbour.
    indices[-1] = (indices[-1] + m.shape[0] // 2) % m.shape[0]
    matrix = CSRMatrix(indptr, indices, np.ones(indices.size, np.float32),
                       m.shape)
    return [Block(matrix, b.src_nodes, b.dst_positions, int(indices.size))]


def check(state: dict, outcome: Outcome) -> list[str]:
    data = state["data"]
    edges = ref.EdgeList(N, data.rows, data.cols)
    problems: list[str] = []
    for blocks in state["kept"]:
        problems += block_problems(blocks, edges)
    if state["kept"]:
        problems += ref.self_test(
            "sampled blocks", lambda b: block_problems(b, edges),
            _perturbed(state["kept"][0]))
    else:
        problems.append("no sampled batch was kept for checking")
    if outcome.failures:
        problems.append(f"failed batches: {outcome.failures}")
        return problems
    while state["batches"] < MIN_BATCHES:
        _batch(state)
    logits = state["model"].forward(state["a"], data.features, training=False)
    problems += ref.accuracy_floor("sampled GAT", logits, data.labels,
                                   data.test_mask, ACCURACY_FLOOR)
    problems += ref.self_test(
        "sampled GAT accuracy",
        lambda x: ref.accuracy_floor("sampled GAT", x, data.labels,
                                     data.test_mask, ACCURACY_FLOOR),
        np.roll(logits, 1, axis=1))
    return problems


def per_layer(state: dict, outcome: Outcome, spans: Spans) -> dict[str, float]:
    edges, src = zip(*state["sizes"])
    return {
        "sample_ms": median(spans.ms("sample")),
        "train_step_ms": median(spans.ms("train_step")),
        "block_edges": float(np.mean(edges)),
        "block_src_nodes": float(np.mean(src)),
        "workspace_high_water_mb": state["workspace_mb"],
    }


def close(state: dict) -> None:
    pass
