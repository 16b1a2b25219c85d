"""Reverse-mode automatic differentiation on an append-only tape.

Values are dense float64 numpy arrays (scalars are shape-() arrays).  Every
operation appends a Node to a Tape; the tape order is a topological order by
construction, so backward() is a single reverse sweep.

The tape is first order.  A node's backward rule (its VJP) maps the upstream
gradient array to one gradient array per parent (None for a parent that
needs none, such as a constant operand of matmul), computed in numpy, and the
sweep appends nothing to the tape.  Larger pieces are one `first_order` node
each, with closed-form numpy value and VJP: a hidden block of the network, its
batch statistics and Jacobian scale (`network.forward_nodes`), the input
Jacobian's log-volume (`network.volume_node`), the mixture densities
(`mixtures.density_nodes`) and `logsumexp_rows`.

The other ops are those the package uses: add, sub, mul, neg, matmul, dot,
sum_all, mean_all, take_per_row, and linear, one node for a dense layer
x @ w^T + b whose weight gradient g^T x keeps the weight's row-major layout,
so optimizer passes over it run at unit stride.

Broadcasting is deliberately narrow: binary elementwise ops take operands
of equal shape, and add also a rank-1 vector added across the rows of a
rank-2 matrix (bias add).  Anything wider is a first-order node, which keeps
shape bugs loud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def release(self) -> None:
        """After the last backward: cut the node/tape and closure reference
        cycles so the graph is freed at once, not by the cyclic collector."""
        for node in self.nodes:
            node.vjp = None
            node.parents = ()
        self.nodes.clear()


def _check_shapes(a: Node, b: Node, op: str, allow_bias: bool = False) -> bool:
    """Raise unless a and b have equal shapes or, when allowed, b is a rank-1
    bias across the rows of a rank-2 a; returns whether it is the bias."""
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return False
    if allow_bias and len(sa) == 2 and len(sb) == 1 and sa[1] == sb[0]:
        return True
    raise ValueError(f"{op}: incompatible shapes {sa} and {sb}")


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    bias = _check_shapes(a, b, "add", allow_bias=True)
    out = Node(a.tape, a.value + b.value, (a, b), None, "add")
    if bias:
        out.vjp = lambda g: (g, g.sum(axis=0))
    else:
        out.vjp = lambda g: (g, g)
    return out


def sub(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    _check_shapes(a, b, "sub")
    out = Node(a.tape, a.value - b.value, (a, b), None, "sub")
    out.vjp = lambda g: (g, -g)
    return out


def mul(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    _check_shapes(a, b, "mul")
    out = Node(a.tape, a.value * b.value, (a, b), None, "mul")
    out.vjp = lambda g: (g * b.value, g * a.value)
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


def mean_all(a: Node) -> Node:
    return mul(1.0 / a.value.size, sum_all(a))


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
    """Row-wise logsumexp of a rank-2 matrix, returns a rank-1 vector.

    log(sum exp(a - shift)) + shift with the row maximum as shift; the VJP
    is (g / total) * exp(a - shift) row by row.
    """
    if a.value.ndim != 2:
        raise ValueError("logsumexp_rows: expects rank-2")
    if a.value.shape[1] == 0:
        raise ValueError("empty reduction")
    shift = a.value.max(axis=1)
    e = np.exp(a.value - shift[:, None])
    total = e.sum(axis=1)
    return first_order((a,), np.log(total) + shift, lambda g: ((g / total)[:, None] * e,),
                       "logsumexp_rows")


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
