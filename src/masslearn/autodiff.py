"""Reverse-mode automatic differentiation on an append-only tape.

Values are dense float64 numpy arrays (scalars are shape-() arrays).  Every
operation appends a Node to a Tape; the tape order is a topological order by
construction, so backward() is a single reverse sweep.

The tape is first order.  A node's backward rule (its VJP) maps the upstream
gradient array to one gradient array per parent (None for a parent that
needs none, such as a constant operand of matmul), computed in numpy, and the
sweep appends nothing to the tape.  Quantities that would need a gradient of
a gradient, such as the log-volume of the network's input Jacobian, are
written as one `first_order` node whose value and VJP are closed-form numpy
(`network.log_jacobian_nodes`, `mixtures.density_nodes`).  A dense layer is
one `linear` node, x @ w^T + b, whose weight gradient g^T x has the weight's
own row-major layout, so optimizer passes over it run at unit stride.

Broadcasting is deliberately narrow: binary elementwise ops accept equal
shapes or a scalar paired with a tensor, and add/sub additionally accept a
rank-1 vector added across the rows of a rank-2 matrix (bias add).  Anything
wider must be spelled out with explicit ops (tile_rows, ...), which keeps
shape bugs loud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "Tape",
    "Node",
    "GradCheckReport",
    "backward",
    "grad_check",
]


def _as_value(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One value in the computation graph."""

    __slots__ = ("tape", "value", "parents", "vjp", "op", "index")

    def __init__(self, tape, value, parents, vjp, op):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp  # callable grad array -> tuple of parent grad arrays (or None each), or None
        self.op = op
        self.index = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        return f"Node({self.op}, shape={self.value.shape}, index={self.index})"


class Tape:
    """Append-only record of nodes; rebuilt for every training step."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value) -> Node:
        return Node(self, _as_value(value), (), None, "leaf")

    def constant(self, value) -> Node:
        return Node(self, _as_value(value), (), None, "const")

    def __len__(self):
        return len(self.nodes)

    def release(self) -> None:
        """After the last backward: cut the node/tape and closure reference
        cycles so the graph is freed at once, not by the cyclic collector."""
        for node in self.nodes:
            node.vjp = None
            node.parents = ()
        self.nodes.clear()


def _binary_kind(a: Node, b: Node, op: str, allow_bias: bool) -> str:
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return "same"
    if sa == ():
        return "scalar_left"
    if sb == ():
        return "scalar_right"
    if allow_bias and len(sa) == 2 and len(sb) == 1 and sa[1] == sb[0]:
        return "bias"
    raise ValueError(f"{op}: incompatible shapes {sa} and {sb}")


def _total(g: np.ndarray) -> np.ndarray:
    """Gradient of a scalar operand that was broadcast against a tensor."""
    return np.asarray(g.sum())


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "add", allow_bias=True)
    out = Node(a.tape, a.value + b.value, (a, b), None, "add")
    if kind == "same":
        out.vjp = lambda g: (g, g)
    elif kind == "scalar_left":
        out.vjp = lambda g: (_total(g), g)
    elif kind == "scalar_right":
        out.vjp = lambda g: (g, _total(g))
    else:  # bias
        out.vjp = lambda g: (g, g.sum(axis=0))
    return out


def sub(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "sub", allow_bias=True)
    out = Node(a.tape, a.value - b.value, (a, b), None, "sub")
    if kind == "same":
        out.vjp = lambda g: (g, -g)
    elif kind == "scalar_left":
        out.vjp = lambda g: (_total(g), -g)
    elif kind == "scalar_right":
        out.vjp = lambda g: (g, -_total(g))
    else:
        out.vjp = lambda g: (g, -g.sum(axis=0))
    return out


def mul(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "mul", allow_bias=False)
    out = Node(a.tape, a.value * b.value, (a, b), None, "mul")
    if kind == "same":
        out.vjp = lambda g: (g * b.value, g * a.value)
    elif kind == "scalar_left":
        out.vjp = lambda g: (_total(g * b.value), g * a.value)
    else:
        out.vjp = lambda g: (g * b.value, _total(g * a.value))
    return out


def div(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "div", allow_bias=False)
    out = Node(a.tape, a.value / b.value, (a, b), None, "div")
    if kind == "same":
        out.vjp = lambda g: (g / b.value, -(g * out.value / b.value))
    elif kind == "scalar_left":
        out.vjp = lambda g: (_total(g / b.value), -(g * out.value / b.value))
    else:
        out.vjp = lambda g: (g / b.value, -_total(g * out.value / b.value))
    return out


def _coerce_pair(a, b):
    """Wrap a non-Node operand (a float, say) as a constant on the other's tape."""
    if isinstance(a, Node):
        return a, b if isinstance(b, Node) else a.tape.constant(b)
    if isinstance(b, Node):
        return b.tape.constant(a), b
    raise TypeError("at least one operand must be a Node")


def neg(a: Node) -> Node:
    out = Node(a.tape, -a.value, (a,), None, "neg")
    out.vjp = lambda g: (-g,)
    return out


# ---------------------------------------------------------------------------
# elementwise unary ops


def exp(a: Node) -> Node:
    out = Node(a.tape, np.exp(a.value), (a,), None, "exp")
    out.vjp = lambda g: (g * out.value,)
    return out


def log(a: Node) -> Node:
    out = Node(a.tape, np.log(a.value), (a,), None, "log")
    out.vjp = lambda g: (g / a.value,)
    return out


def sigmoid(a: Node) -> Node:
    out = Node(a.tape, expit(a.value), (a,), None, "sigmoid")
    out.vjp = lambda g: (g * (out.value * (1.0 - out.value)),)
    return out


def softplus(a: Node) -> Node:
    out = Node(a.tape, np.logaddexp(0.0, a.value), (a,), None, "softplus")
    out.vjp = lambda g: (g * expit(a.value),)
    return out


def _elu_slope(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def elu(a: Node) -> Node:
    """elu(x) = x for x > 0, exp(x) - 1 otherwise; slope at 0 is taken as 1."""
    out = Node(a.tape, np.where(a.value > 0, a.value, np.expm1(a.value)), (a,), None, "elu")
    out.vjp = lambda g: (g * _elu_slope(a.value),)
    return out


def elu_grad(a: Node) -> Node:
    """The slope of elu; its own slope is exp(x) on x <= 0 and 0 beyond."""
    out = Node(a.tape, _elu_slope(a.value), (a,), None, "elu_grad")
    out.vjp = lambda g: (g * np.where(a.value > 0, 0.0, out.value),)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul: expects rank-2 operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.value.shape} @ {b.value.shape}")
    out = Node(a.tape, a.value @ b.value, (a, b), None, "matmul")
    # no gradient product for a tape constant, such as the input batch
    out.vjp = lambda g: (None if a.op == "const" else g @ b.value.T,
                         None if b.op == "const" else a.value.T @ g)
    return out


def linear(x: Node, w: Node, b: Node) -> Node:
    """x @ w^T + b for a (fan_out, fan_in) weight and a (fan_out,) bias.

    One node for a matmul by the transposed weight and a bias add, with the
    same value; the weight gradient g^T x comes back in the weight's own C
    order.
    """
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[1]:
        raise ValueError(f"linear: expects (n, k) inputs and a (m, k) weight, "
                         f"got {x.value.shape} and {w.value.shape}")
    if b.value.shape != w.value.shape[:1]:
        raise ValueError(f"linear: bias shape {b.value.shape} does not match weight {w.value.shape}")
    out = Node(x.tape, x.value @ w.value.T + b.value, (x, w, b), None, "linear")
    out.vjp = lambda g: (None if x.op == "const" else g @ w.value, g.T @ x.value, g.sum(axis=0))
    return out


def dot(a: Node, b: Node) -> Node:
    if a.value.ndim != 1 or b.value.ndim != 1 or a.value.shape != b.value.shape:
        raise ValueError(f"dot: expects equal-length rank-1 operands, got {a.value.shape}, {b.value.shape}")
    out = Node(a.tape, np.asarray(a.value @ b.value), (a, b), None, "dot")
    out.vjp = lambda g: (g * b.value, g * a.value)
    return out


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    out = Node(a.tape, a.value.reshape(shape).copy(), (a,), None, "reshape")
    out.vjp = lambda g: (g.reshape(a.value.shape),)
    return out


def first_order(parents, value, vjp_arrays, op: str) -> Node:
    """A node computed in numpy outside the primitive set; vjp_arrays(g) maps
    the upstream gradient array to one gradient array per parent."""
    return Node(parents[0].tape, _as_value(value), tuple(parents), vjp_arrays, op)


# ---------------------------------------------------------------------------
# reductions and reshuffles


def sum_all(a: Node) -> Node:
    out = Node(a.tape, np.asarray(a.value.sum()), (a,), None, "sum_all")
    out.vjp = lambda g: (np.full(a.value.shape, g),)
    return out


def sum_axis(a: Node, axis: int) -> Node:
    if a.value.ndim != 2 or axis not in (0, 1):
        raise ValueError("sum_axis: expects rank-2 and axis in {0, 1}")
    out = Node(a.tape, a.value.sum(axis=axis), (a,), None, "sum_axis")
    n_rows, n_cols = a.value.shape
    if axis == 0:
        out.vjp = lambda g: (np.tile(g, (n_rows, 1)),)
    else:
        out.vjp = lambda g: (np.tile(g, (n_cols, 1)).T,)
    return out


def mean_all(a: Node) -> Node:
    return mul(1.0 / a.value.size, sum_all(a))


def tile_rows(a: Node, n: int) -> Node:
    """Replicate a rank-1 vector into n identical rows."""
    if a.value.ndim != 1:
        raise ValueError("tile_rows: expects rank-1")
    out = Node(a.tape, np.tile(a.value, (n, 1)), (a,), None, "tile_rows")
    out.vjp = lambda g: (g.sum(axis=0),)
    return out


def take_per_row(a: Node, idx) -> Node:
    """out[i] = a[i, idx[i]] for a fixed integer index vector."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.value.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.value.shape[0]:
        raise ValueError("take_per_row: expects rank-2 input and one index per row")
    rows = np.arange(idx.shape[0])
    out = Node(a.tape, a.value[rows, idx].copy(), (a,), None, "take_per_row")

    def vjp(g):
        d = np.zeros(a.value.shape)
        d[rows, idx] = g
        return (d,)

    out.vjp = vjp
    return out


# ---------------------------------------------------------------------------
# stabilized reductions


def logsumexp_rows(a: Node) -> Node:
    """Row-wise logsumexp of a rank-2 matrix, returns a rank-1 vector."""
    if a.value.ndim != 2:
        raise ValueError("logsumexp_rows: expects rank-2")
    if a.value.shape[1] == 0:
        raise ValueError("empty reduction")
    shift_val = a.value.max(axis=1)
    shift_full = a.tape.constant(np.broadcast_to(shift_val[:, None], a.value.shape).copy())
    shift_vec = a.tape.constant(shift_val)
    return add(log(sum_axis(exp(sub(a, shift_full)), 1)), shift_vec)


# ---------------------------------------------------------------------------
# the backward pass


def backward(output: Node, leaves) -> dict[Node, np.ndarray]:
    """Gradient of a scalar output with respect to each leaf, as numpy arrays.

    One reverse sweep over the nodes up to the output; gradients meeting at a
    node are summed out of place.  Leaves that do not influence the output
    get zero gradients.
    """
    if output.value.shape != ():
        raise ValueError(f"backward: output must be scalar, got shape {output.value.shape}")
    grads: dict[Node, np.ndarray] = {output: np.ones(())}
    for node in reversed(output.tape.nodes[: output.index + 1]):
        g = grads.get(node)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None:
                continue
            held = grads.get(parent)
            grads[parent] = pg if held is None else held + pg
    return {leaf: grads[leaf] if leaf in grads else np.zeros_like(leaf.value) for leaf in leaves}


@dataclass
class GradCheckReport:
    max_abs_error: float
    max_rel_error: float
    n_coordinates: int

    def __str__(self):
        return (
            f"grad_check over {self.n_coordinates} coordinates: "
            f"max abs {self.max_abs_error:.3e}, max rel {self.max_rel_error:.3e}"
        )


def grad_check(builder, points, eps: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    builder(tape, *leaves) must construct a scalar node from leaf nodes made
    out of the arrays in `points`.  The relative error per coordinate is
    |analytic - numeric| / max(1, |analytic|).
    """
    points = [_as_value(p) for p in points]
    tape = Tape()
    leaves = [tape.leaf(p) for p in points]
    out = builder(tape, *leaves)
    analytic = backward(out, leaves)

    def eval_at(arrays):
        t = Tape()
        ls = [t.leaf(a) for a in arrays]
        return float(builder(t, *ls).value)

    max_abs = 0.0
    max_rel = 0.0
    n_coords = 0
    for which, base in enumerate(points):
        grad = analytic[leaves[which]]
        flat = base.reshape(-1)
        for k in range(flat.size):
            bumped = [p.copy() for p in points]
            bumped[which].reshape(-1)[k] = flat[k] + eps
            hi = eval_at(bumped)
            bumped[which].reshape(-1)[k] = flat[k] - eps
            lo = eval_at(bumped)
            numeric = (hi - lo) / (2.0 * eps)
            a = grad.reshape(-1)[k]
            abs_err = abs(a - numeric)
            max_abs = max(max_abs, abs_err)
            max_rel = max(max_rel, abs_err / max(1.0, abs(a)))
            n_coords += 1
    return GradCheckReport(max_abs, max_rel, n_coords)
