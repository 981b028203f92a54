"""``train_full``: full-batch training steps over seven configurations.

One op is one step of one configuration: forward, loss, backward and
Adam update, the sequence ``Trainer.fit`` runs. The steps rotate
round-robin over VA, AGNN and GAT built by ``build_model`` (the
hand-written layers), the same three as a ``GnnModel`` of
``DagLayer(fused=True)``, and a 4-head GAT, so a slow drift of the host
hits every configuration alike. A run attempts whole rounds, so VA's
share of failed steps is the same in every run.
"""

from __future__ import annotations

import numpy as np

from common import Outcome, Spans, median, now
from inputs import planted_partition, to_adjacency
import reference as ref

from repro.fusion.layer import DagLayer
from repro.models import GnnModel, build_model
from repro.tensor import kernels, megakernel
from repro.training.loss import SoftmaxCrossEntropyLoss
from repro.training.optim import Adam
from repro.util.counters import FlopCounter, null_counter

NAME = "train_full"
TAIL_PCT = 90
N, CLASSES, FEATURES, HIDDEN, LAYERS, DEGREE = 4096, 8, 32, 32, 3, 32
LR = 0.01
#: Steps each configuration must have taken before the accuracy check;
#: the check tops a configuration up (untimed) if the run was shorter.
MIN_STEPS = 12
ACCURACY_FLOOR = 0.8
#: Largest error of a float32 forward against the float64 reference,
#: as a share of the largest reference value.
RTOL = 2e-5

#: name -> (model, path, hidden activation)
CONFIGS = {
    "va.hand": ("va", "hand", "relu"),
    "va.fused": ("va", "fused", "relu"),
    "agnn.hand": ("agnn", "hand", "relu"),
    "agnn.fused": ("agnn", "fused", "relu"),
    "gat.hand": ("gat", "hand", "elu"),
    "gat.fused": ("gat", "fused", "elu"),
    "gat4.hand": ("gat", "heads4", "elu"),
}


def make_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    data = planted_partition(N, CLASSES, FEATURES, DEGREE, rng)
    return {"seed": seed, "data": data,
            "edges": ref.EdgeList(N, data.rows, data.cols)}


def _build(name: str, seed: int) -> GnnModel:
    model, path, act = CONFIGS[name]
    if path == "hand":
        return build_model(model, FEATURES, HIDDEN, CLASSES, LAYERS, seed=seed)
    if path == "heads4":
        return build_model(model, FEATURES, HIDDEN // 4, CLASSES, LAYERS,
                           heads=4, seed=seed)
    dims = [FEATURES] + [HIDDEN] * (LAYERS - 1) + [CLASSES]
    rng = np.random.default_rng(seed)
    return GnnModel([
        DagLayer(model, dims[i], dims[i + 1], fused=True, seed=rng,
                 activation=act if i + 1 < LAYERS else "identity",
                 dtype=np.float32)
        for i in range(LAYERS)
    ])


def _step(state, name, spans=None, op=-1, counter=null_counter()):
    """One training step; returns (loss, output)."""
    model, opt, loss = state["models"][name], state["opts"][name], state["loss"]
    data = state["data"]
    if spans is None:
        out = model.forward(state["a"], data.features, training=True)
        value = loss.value(out, data.labels)
        grads = model.backward(loss.gradient(out, data.labels))
        opt.step(model, grads)
        return value, out
    with spans.span("fwd." + name, op):
        out = model.forward(state["a"], data.features, counter=counter,
                            training=True)
    with spans.span("loss", op):
        value = loss.value(out, data.labels)
        d_out = loss.gradient(out, data.labels)
    with spans.span("bwd." + name, op):
        grads = model.backward(d_out, counter=counter)
    with spans.span("optim", op):
        opt.step(model, grads)
    return value, out


def _ok(value, out) -> bool:
    return bool(np.isfinite(value)) and bool(np.isfinite(out).all())


def setup(inputs: dict) -> dict:
    data, seed = inputs["data"], inputs["seed"]
    state = {
        "data": data,
        "edges": inputs["edges"],
        "a": to_adjacency(N, data.rows, data.cols),
        "loss": SoftmaxCrossEntropyLoss(data.train_mask),
        "models": {}, "opts": {}, "initial": {}, "first_out": {}, "steps": {},
    }
    for index, name in enumerate(CONFIGS):
        model = _build(name, seed * 8 + index)
        state["models"][name] = model
        state["opts"][name] = Adam(LR)
        state["initial"][name] = [
            {k: np.array(v) for k, v in p.items()} for p in model.parameters()
        ]
    # Warm-up: one step per configuration interns the pattern, fills the
    # workspaces and compiles the DAG programs; its forward output is the
    # one the reference check compares.
    with np.errstate(all="ignore"):
        for name in CONFIGS:
            try:
                _, out = _step(state, name)
                state["first_out"][name] = np.array(out)
            except Exception as exc:  # noqa: BLE001 - reported by check
                state["first_out"][name] = exc
            state["steps"][name] = 1
    return state


def run(state: dict, seconds: float, spans: Spans) -> Outcome:
    outcome = Outcome()
    traced = spans.enabled
    counters = state.setdefault("flops", {name: [] for name in CONFIGS})
    start = now()
    with np.errstate(all="ignore"):
        while now() - start < seconds:
            for name in CONFIGS:
                op = outcome.attempted
                counter = FlopCounter() if traced else null_counter()
                t0 = now()
                try:
                    if traced:
                        with spans.span("step", op):
                            ok = _ok(*_step(state, name, spans, op, counter))
                    else:
                        ok = _ok(*_step(state, name))
                except Exception:  # noqa: BLE001 - a failed op, counted
                    ok = False
                outcome.record((now() - t0) * 1e3, ok, name)
                state["steps"][name] += 1
                if traced:
                    counters[name].append(counter.total)
    outcome.elapsed_s = now() - start
    return outcome


def check(state: dict, outcome: Outcome) -> list[str]:
    problems: list[str] = []
    data, g = state["data"], state["edges"]
    for name, (kind, path, act) in CONFIGS.items():
        first = state["first_out"][name]
        initial = state["initial"][name]
        acts = [act] * (LAYERS - 1) + ["identity"]
        combine = ["concat"] * (LAYERS - 1) + ["mean"]
        finite = isinstance(first, np.ndarray) and np.isfinite(first).all()
        if finite:
            h = data.features
            for params, a, c in zip(initial, acts, combine):
                h = ref.layer_forward(g, kind, params, h, a, c)
            got, label = first, f"{name} first forward"
        else:
            # The output overflowed (VA's known fault): compare the first
            # layer, run again from the initial weights, where it has not.
            model = state["models"][name]
            for params, live in zip(initial, model.parameters()):
                for key, value in params.items():
                    np.copyto(live[key], value)
            with np.errstate(all="ignore"):
                got, _ = model.layers[0].forward(
                    state["a"], data.features, training=False)
            h = ref.layer_forward(g, kind, initial[0], data.features,
                                  acts[0], combine[0])
            label = f"{name} first layer"
        problems += ref.close_rows(label, got, h, RTOL)
        problems += ref.self_test(
            label, lambda x: ref.close_rows(label, x, h, RTOL),
            ref.nudge(got, 1e-2))
        if outcome.failures.get(name):
            continue
        # Accuracy floor for every configuration that never failed.
        with np.errstate(all="ignore"):
            while state["steps"][name] < MIN_STEPS:
                _step(state, name)
                state["steps"][name] += 1
        logits = state["models"][name].forward(
            state["a"], data.features, training=False)
        problems += ref.accuracy_floor(
            name, logits, data.labels, data.test_mask, ACCURACY_FLOOR)
        problems += ref.self_test(
            f"{name} accuracy",
            lambda x: ref.accuracy_floor(name, x, data.labels,
                                         data.test_mask, ACCURACY_FLOOR),
            np.roll(logits, 1, axis=1))
    unexpected = {k: v for k, v in outcome.failures.items()
                  if not k.startswith("va.")}
    if unexpected:
        problems.append(f"unexpected failed steps: {unexpected}")
    return problems


def _kernel_ms(state: dict) -> dict[str, float]:
    """Direct calls into ``tensor`` on this workload's graph and widths."""
    a, rng = state["a"], np.random.default_rng(0)
    h = rng.normal(size=(N, HIDDEN)).astype(np.float32)
    u = rng.normal(size=N).astype(np.float32)
    v = rng.normal(size=N).astype(np.float32)
    s = a.with_data(rng.normal(size=a.nnz).astype(np.float32))
    _, stats = megakernel.attention_forward(a, "add", h, u=u, v=v, softmax=True)
    calls = {
        "spmm": lambda: kernels.spmm(a, h),
        "sddmm_dot": lambda: kernels.sddmm_dot(a, h, h),
        "sddmm_add": lambda: kernels.sddmm_add(a, u, v),
        "sddmm_cosine": lambda: kernels.sddmm_cosine(a, h),
        "softmax": lambda: kernels.masked_row_softmax(s),
        "megakernel_fwd": lambda: megakernel.attention_forward(
            a, "add", h, u=u, v=v, softmax=True),
        "megakernel_bwd": lambda: megakernel.attention_backward(
            a, "add", h, h, stats=stats, u=u, v=v, softmax=True),
    }
    out = {}
    for name, call in calls.items():
        call()
        times = []
        for _ in range(15):
            t0 = now()
            call()
            times.append((now() - t0) * 1e3)
        out[f"kernel_ms.{name}"] = median(times)
    return out


def per_layer(state: dict, outcome: Outcome, spans: Spans) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in CONFIGS:
        metrics[f"fwd_ms.{name}"] = median(spans.ms("fwd." + name))
        metrics[f"bwd_ms.{name}"] = median(spans.ms("bwd." + name))
        metrics[f"flops.{name}"] = float(state["flops"][name][-1])
    metrics["optim_ms"] = median(spans.ms("optim"))
    metrics.update(_kernel_ms(state))
    return metrics


def close(state: dict) -> None:
    pass
