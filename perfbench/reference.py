"""Checks computed apart from the program.

``layer_forward`` evaluates the paper's VA, AGNN and GAT layer formulas
(Figure 1) in float64 over plain NumPy edge lists. It takes the graph
from the benchmark's own generator and the weights from the model under
test, and it calls nothing in ``repro``; the workloads compare the
program's outputs against it.

Every check returns a list of problems (empty when it passes), so a run
can report them all. ``self_test`` feeds a check a perturbed output and
reports a problem if the check does not notice.
"""

from __future__ import annotations

import numpy as np


class EdgeList:
    """A graph's edges ``(dst, src)`` with self loops, sorted by ``dst``.

    Row ``i`` of the attention matrix attends over ``src`` of the edges
    whose ``dst`` is ``i``, matching ``Z_i = sum_j Psi_ij Y_j``.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray) -> None:
        loops = np.arange(n)
        dst = np.concatenate([rows, loops])
        src = np.concatenate([cols, loops])
        keys = np.unique(dst * n + src)
        self.n = n
        self.keys = keys
        self.dst = keys // n
        self.src = keys % n
        self.starts = np.flatnonzero(np.r_[True, np.diff(self.dst) > 0])

    def contains(self, dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        """Whether each ``(dst, src)`` pair is an edge (self loops count)."""
        keys = np.asarray(dst) * self.n + np.asarray(src)
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return self.keys[pos] == keys

    def row_sum(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values, self.starts, axis=0)

    def row_softmax(self, scores: np.ndarray) -> np.ndarray:
        top = np.maximum.reduceat(scores, self.starts, axis=0)[self.dst]
        e = np.exp(scores - top)
        return e / self.row_sum(e)[self.dst]


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "elu":
        return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    if name == "identity":
        return z
    raise ValueError(name)


def layer_forward(
    g: EdgeList, kind: str, params: dict, h: np.ndarray, act: str,
    combine: str = "concat",
) -> np.ndarray:
    """One layer ``sigma(Psi(A, H) H W)`` for VA, AGNN or GAT.

    ``params`` holds the layer's weights under the program's parameter
    names: ``weight`` (and ``a_src``/``a_dst`` for GAT), or
    ``head<i>.*`` for a multi-head GAT layer, whose heads are
    concatenated (``combine="concat"``) or averaged (``"mean"``).
    """
    h = np.asarray(h, dtype=np.float64)
    if kind == "gat" and "head0.weight" in params:
        heads = sum(1 for key in params if key.endswith(".weight"))
        outs = [
            layer_forward(
                g, "gat",
                {k: params[f"head{i}.{k}"] for k in ("weight", "a_src", "a_dst")},
                h, "identity",
            )
            for i in range(heads)
        ]
        z = np.concatenate(outs, axis=1) if combine == "concat" else np.mean(outs, axis=0)
        return _act(act, z)
    y = h @ np.asarray(params["weight"], dtype=np.float64)
    hd, hs = h[g.dst], h[g.src]
    if kind == "va":
        psi = np.einsum("ek,ek->e", hd, hs)
    elif kind == "agnn":
        norms = np.linalg.norm(h, axis=1)
        den = np.maximum(norms[g.dst] * norms[g.src], 1e-12)
        psi = g.row_softmax(np.einsum("ek,ek->e", hd, hs) / den)
    elif kind == "gat":
        u = y @ np.asarray(params["a_src"], dtype=np.float64)
        v = y @ np.asarray(params["a_dst"], dtype=np.float64)
        logits = u[g.dst] + v[g.src]
        psi = g.row_softmax(np.where(logits > 0, logits, 0.2 * logits))
    else:
        raise ValueError(kind)
    return _act(act, g.row_sum(psi[:, None] * y[g.src]))


def close_rows(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> list[str]:
    """``got`` equals ``want`` within ``rtol`` of the largest reference value."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    scale = float(np.max(np.abs(want))) or 1.0
    err = np.abs(got - want)
    bad = ~(err <= rtol * scale)
    if bad.any():
        worst = float(np.nanmax(np.where(np.isfinite(err), err, np.inf)))
        return [
            f"{name}: {int(bad.sum())} values differ from the reference "
            f"(max error {worst:.3g}, allowed {rtol * scale:.3g})"
        ]
    return []


def accuracy_floor(name: str, logits: np.ndarray, labels: np.ndarray,
                   mask: np.ndarray, floor: float) -> list[str]:
    """Test accuracy of ``argmax(logits)`` reaches ``floor``."""
    acc = float(np.mean(np.argmax(logits[mask], axis=1) == labels[mask]))
    if not acc >= floor:
        return [f"{name}: test accuracy {acc:.3f} below floor {floor}"]
    return []


def self_test(name: str, check, perturbed) -> list[str]:
    """A problem unless ``check(perturbed)`` reports one."""
    if check(perturbed):
        return []
    return [f"self-test: {name} accepted a perturbed output"]


def nudge(values: np.ndarray, amount: float) -> np.ndarray:
    """A copy of ``values`` whose first element moved by ``amount`` times
    the array's largest magnitude."""
    out = np.array(values, dtype=np.float64, copy=True)
    flat = out.reshape(-1)
    flat[0] += amount * (float(np.max(np.abs(flat))) or 1.0)
    return out
