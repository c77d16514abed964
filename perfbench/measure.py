"""The benchmark's own arithmetic: percentiles, span self time, tape counts.

Everything here works on plain numbers or on node-like objects with the
`op`, `inputs` and `value` attributes of `ldgm.autodiff.Node`, so the
tests can check it on hand-built inputs.
"""

from __future__ import annotations

import math
import statistics

# ops whose forward value is one (batched) matrix product
MATMUL_OPS = ("matmul", "affine")


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of `statistics.quantiles(n=4)`."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(durations, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    `parents[i]` is the index of span i's parent, or -1 for a root.
    """
    out = list(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= durations[i]
    return out


def live_mask(nodes, output_idx: int) -> list[bool]:
    """Which nodes the output depends on (the output itself included).

    Node ids are topologically ordered, so one reverse sweep suffices.
    """
    live = [False] * len(nodes)
    live[output_idx] = True
    for i in range(output_idx, -1, -1):
        if live[i]:
            for j in nodes[i].inputs:
                live[j] = True
    return live


def matmul_flops(node, nodes) -> int:
    """Multiply-add flops of one matmul/affine node's forward product."""
    a = nodes[node.inputs[0]].value
    flops = 2 * node.value.size * a.shape[-1]
    if node.op == "affine":
        flops += node.value.size
    return flops


def tape_profile(nodes, output_idx: int) -> dict:
    """Counts of one tape: nodes, nodes per op, live share, bytes and flops.

    Backward runs only through live nodes, and each live matmul/affine node
    costs two products there (one per operand), so its backward flops are
    twice the forward product's.
    """
    live = live_mask(nodes, output_idx)
    per_op: dict[str, int] = {}
    nbytes = 0
    flops = 0
    for node, is_live in zip(nodes, live):
        per_op[node.op] = per_op.get(node.op, 0) + 1
        nbytes += node.value.nbytes
        if node.op in MATMUL_OPS:
            f = matmul_flops(node, nodes)
            product = f - (node.value.size if node.op == "affine" else 0)
            flops += f + (2 * product if is_live else 0)
    return {
        "nodes": len(nodes),
        "per_op": per_op,
        "live_ratio": sum(live) / len(nodes),
        "bytes": nbytes,
        "flops": flops,
    }
