"""Reverse-mode automatic differentiation on an append-only tape.

Values are dense float64 numpy arrays (scalars are shape-() arrays).  Every
operation appends a Node to a Tape; the tape order is a topological order by
construction, so backward() is a single reverse sweep.

The one unusual feature: backward rules do not compute raw numpy gradients,
they *emit further tape operations*.  The gradient of any node is therefore
itself a node, and a second backward pass can differentiate through a first
one.  That is what lets a training loss contain per-sample Jacobians of the
network (obtained by reverse passes with respect to the input) while staying
differentiable with respect to the weights.

The one exception is `first_order`, a node whose value and gradients are
computed in numpy outside the tape.  Its backward rule returns constants, so
a second sweep sees those gradients as fixed: the node is first order only.
The mixture density head (`mixtures.density_nodes`) is built that way, and
nothing differentiates through it twice.

Broadcasting is deliberately narrow: binary elementwise ops accept equal
shapes or a scalar paired with a tensor, and add/sub additionally accept a
rank-1 vector added across the rows of a rank-2 matrix (bias add).  Anything
wider must be spelled out with explicit ops (tile_rows, vstack, ...), which
keeps shape bugs loud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

__all__ = [
    "Tape",
    "Node",
    "NotPositiveDefiniteError",
    "GradCheckReport",
    "backward",
    "grad_nodes",
    "grad_check",
]


class NotPositiveDefiniteError(ValueError):
    pass


def _as_value(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return arr


class Node:
    """One value in the computation graph."""

    __slots__ = ("tape", "value", "parents", "vjp", "op", "index")

    def __init__(self, tape, value, parents, vjp, op):
        self.tape = tape
        self.value = value
        self.parents = parents
        self.vjp = vjp  # callable grad_node -> tuple of parent grads, or None
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

    # Arithmetic conveniences; floats are wrapped as constants.
    def __add__(self, other):
        return add(self, _wrap(self.tape, other))

    def __radd__(self, other):
        return add(_wrap(self.tape, other), self)

    def __sub__(self, other):
        return sub(self, _wrap(self.tape, other))

    def __rsub__(self, other):
        return sub(_wrap(self.tape, other), self)

    def __mul__(self, other):
        return mul(self, _wrap(self.tape, other))

    def __rmul__(self, other):
        return mul(_wrap(self.tape, other), self)

    def __truediv__(self, other):
        return div(self, _wrap(self.tape, other))

    def __rtruediv__(self, other):
        return div(_wrap(self.tape, other), self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


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


def _wrap(tape: Tape, x) -> Node:
    if isinstance(x, Node):
        return x
    return tape.constant(x)


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


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "add", allow_bias=True)
    out = Node(a.tape, a.value + b.value, (a, b), None, "add")
    if kind == "same":
        out.vjp = lambda g: (g, g)
    elif kind == "scalar_left":
        out.vjp = lambda g: (sum_all(g) if g.value.shape != () else g, g)
    elif kind == "scalar_right":
        out.vjp = lambda g: (g, sum_all(g) if g.value.shape != () else g)
    else:  # bias
        out.vjp = lambda g: (g, sum_axis(g, 0))
    return out


def sub(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "sub", allow_bias=True)
    out = Node(a.tape, a.value - b.value, (a, b), None, "sub")
    if kind == "same":
        out.vjp = lambda g: (g, neg(g))
    elif kind == "scalar_left":
        out.vjp = lambda g: (sum_all(g) if g.value.shape != () else g, neg(g))
    elif kind == "scalar_right":
        out.vjp = lambda g: (g, neg(sum_all(g)) if g.value.shape != () else neg(g))
    else:
        out.vjp = lambda g: (g, neg(sum_axis(g, 0)))
    return out


def mul(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "mul", allow_bias=False)
    out = Node(a.tape, a.value * b.value, (a, b), None, "mul")
    if kind == "same":
        out.vjp = lambda g: (mul(g, b), mul(g, a))
    elif kind == "scalar_left":
        out.vjp = lambda g: (sum_all(mul(g, b)), mul(g, a))
    else:
        out.vjp = lambda g: (mul(g, b), sum_all(mul(g, a)))
    return out


def div(a: Node, b: Node) -> Node:
    a, b = _coerce_pair(a, b)
    kind = _binary_kind(a, b, "div", allow_bias=False)
    out = Node(a.tape, a.value / b.value, (a, b), None, "div")
    if kind == "same":
        out.vjp = lambda g: (div(g, b), neg(div(mul(g, out), b)))
    elif kind == "scalar_left":
        out.vjp = lambda g: (sum_all(div(g, b)), neg(div(mul(g, out), b)))
    else:
        out.vjp = lambda g: (div(g, b), neg(sum_all(div(mul(g, out), b))))
    return out


def _coerce_pair(a, b):
    if isinstance(a, Node):
        return a, _wrap(a.tape, b)
    if isinstance(b, Node):
        return _wrap(b.tape, a), b
    raise TypeError("at least one operand must be a Node")


def neg(a: Node) -> Node:
    out = Node(a.tape, -a.value, (a,), None, "neg")
    out.vjp = lambda g: (neg(g),)
    return out


# ---------------------------------------------------------------------------
# elementwise unary ops


def exp(a: Node) -> Node:
    out = Node(a.tape, np.exp(a.value), (a,), None, "exp")
    out.vjp = lambda g: (mul(g, out),)
    return out


def log(a: Node) -> Node:
    out = Node(a.tape, np.log(a.value), (a,), None, "log")
    out.vjp = lambda g: (div(g, a),)
    return out


def sigmoid(a: Node) -> Node:
    out = Node(a.tape, expit(a.value), (a,), None, "sigmoid")
    out.vjp = lambda g: (mul(g, mul(out, sub(1.0, out))),)
    return out


def softplus(a: Node) -> Node:
    out = Node(a.tape, np.logaddexp(0.0, a.value), (a,), None, "softplus")
    out.vjp = lambda g: (mul(g, sigmoid(a)),)
    return out


def elu(a: Node) -> Node:
    """elu(x) = x for x > 0, exp(x) - 1 otherwise; slope at 0 is taken as 1."""
    out = Node(a.tape, np.where(a.value > 0, a.value, np.expm1(a.value)), (a,), None, "elu")
    out.vjp = lambda g: (mul(g, elu_grad(a)),)
    return out


def elu_grad(a: Node) -> Node:
    out = Node(a.tape, np.where(a.value > 0, 1.0, np.exp(np.minimum(a.value, 0.0))), (a,), None, "elu_grad")
    out.vjp = lambda g: (mul(g, elu_curv(a)),)
    return out


def elu_curv(a: Node) -> Node:
    # Second (and every higher) derivative of elu on the x <= 0 branch.
    out = Node(a.tape, np.where(a.value > 0, 0.0, np.exp(np.minimum(a.value, 0.0))), (a,), None, "elu_curv")
    out.vjp = lambda g: (mul(g, elu_curv(a)),)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul: expects rank-2 operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.value.shape} @ {b.value.shape}")
    out = Node(a.tape, a.value @ b.value, (a, b), None, "matmul")
    out.vjp = lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g))
    return out


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ValueError("transpose: expects rank-2")
    out = Node(a.tape, a.value.T.copy(), (a,), None, "transpose")
    out.vjp = lambda g: (transpose(g),)
    return out


def dot(a: Node, b: Node) -> Node:
    if a.value.ndim != 1 or b.value.ndim != 1 or a.value.shape != b.value.shape:
        raise ValueError(f"dot: expects equal-length rank-1 operands, got {a.value.shape}, {b.value.shape}")
    out = Node(a.tape, np.asarray(a.value @ b.value), (a, b), None, "dot")
    out.vjp = lambda g: (mul(g, b), mul(g, a))
    return out


def reshape(a: Node, shape) -> Node:
    shape = tuple(shape)
    out = Node(a.tape, a.value.reshape(shape).copy(), (a,), None, "reshape")
    out.vjp = lambda g: (reshape(g, a.value.shape),)
    return out


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def logdet_spd(a: Node) -> Node:
    """log det of a symmetric positive definite matrix, via Cholesky.

    The input is symmetrized first, so the gradient is the symmetric
    (M + M.T)/2 inverse and matches finite differences coordinate-wise.
    """
    m = a.value
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("logdet_spd: expects square rank-2")
    try:
        chol = np.linalg.cholesky(_sym(m))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("not positive definite") from None
    val = 2.0 * np.sum(np.log(np.diagonal(chol)))
    out = Node(a.tape, np.asarray(val), (a,), None, "logdet_spd")
    out.vjp = lambda g: (mul(g, inv_spd(a)),)
    return out


def inv_spd(a: Node) -> Node:
    """Inverse of a symmetric positive definite matrix (symmetrized input)."""
    m = a.value
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("inv_spd: expects square rank-2")
    try:
        chol = np.linalg.cholesky(_sym(m))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("not positive definite") from None
    inv = scipy.linalg.cho_solve((chol, True), np.eye(m.shape[0]), check_finite=False)
    out = Node(a.tape, _sym(inv), (a,), None, "inv_spd")

    def vjp(g):
        p = neg(matmul(matmul(out, g), out))
        return (mul(0.5, add(p, transpose(p))),)

    out.vjp = vjp
    return out


def first_order(parents, value, vjp_arrays, op: str) -> Node:
    """A node computed in numpy; vjp_arrays(g) maps the upstream gradient
    array to one gradient array per parent, which enter the tape as constants."""
    tape = parents[0].tape
    out = Node(tape, _as_value(value), tuple(parents), None, op)
    out.vjp = lambda g: tuple(tape.constant(d) for d in vjp_arrays(g.value))
    return out


# ---------------------------------------------------------------------------
# reductions and reshuffles


def sum_all(a: Node) -> Node:
    out = Node(a.tape, np.asarray(a.value.sum()), (a,), None, "sum_all")
    out.vjp = lambda g: (mul(g, out.tape.constant(np.ones_like(a.value))),)
    return out


def sum_axis(a: Node, axis: int) -> Node:
    if a.value.ndim != 2 or axis not in (0, 1):
        raise ValueError("sum_axis: expects rank-2 and axis in {0, 1}")
    out = Node(a.tape, a.value.sum(axis=axis), (a,), None, "sum_axis")
    n_rows, n_cols = a.value.shape
    if axis == 0:
        out.vjp = lambda g: (tile_rows(g, n_rows),)
    else:
        out.vjp = lambda g: (transpose(tile_rows(g, n_cols)),)
    return out


def mean_all(a: Node) -> Node:
    return mul(1.0 / a.value.size, sum_all(a))


def tile_rows(a: Node, n: int) -> Node:
    """Replicate a rank-1 vector into n identical rows."""
    if a.value.ndim != 1:
        raise ValueError("tile_rows: expects rank-1")
    out = Node(a.tape, np.tile(a.value, (n, 1)), (a,), None, "tile_rows")
    out.vjp = lambda g: (sum_axis(g, 0),)
    return out


def vstack(rows) -> Node:
    rows = tuple(rows)
    if not rows:
        raise ValueError("vstack: empty input")
    width = rows[0].value.shape
    if any(r.value.ndim != 1 or r.value.shape != width for r in rows):
        raise ValueError("vstack: expects equal-length rank-1 rows")
    out = Node(rows[0].tape, np.stack([r.value for r in rows]), rows, None, "vstack")
    out.vjp = lambda g: tuple(row(g, i) for i in range(len(rows)))
    return out


def row(a: Node, i: int) -> Node:
    if a.value.ndim != 2:
        raise ValueError("row: expects rank-2")
    n_rows = a.value.shape[0]
    out = Node(a.tape, a.value[i].copy(), (a,), None, "row")
    out.vjp = lambda g: (row_embed(g, i, n_rows),)
    return out


def row_embed(a: Node, i: int, n_rows: int) -> Node:
    if a.value.ndim != 1:
        raise ValueError("row_embed: expects rank-1")
    val = np.zeros((n_rows, a.value.shape[0]))
    val[i] = a.value
    out = Node(a.tape, val, (a,), None, "row_embed")
    out.vjp = lambda g: (row(g, i),)
    return out


def col(a: Node, j: int) -> Node:
    if a.value.ndim != 2:
        raise ValueError("col: expects rank-2")
    n_cols = a.value.shape[1]
    out = Node(a.tape, a.value[:, j].copy(), (a,), None, "col")
    out.vjp = lambda g: (col_embed(g, j, n_cols),)
    return out


def col_embed(a: Node, j: int, n_cols: int) -> Node:
    if a.value.ndim != 1:
        raise ValueError("col_embed: expects rank-1")
    val = np.zeros((a.value.shape[0], n_cols))
    val[:, j] = a.value
    out = Node(a.tape, val, (a,), None, "col_embed")
    out.vjp = lambda g: (col(g, j),)
    return out


def at(a: Node, i: int, j: int) -> Node:
    if a.value.ndim != 2:
        raise ValueError("at: expects rank-2")
    shape = a.value.shape
    out = Node(a.tape, np.asarray(a.value[i, j]), (a,), None, "at")
    out.vjp = lambda g: (at_embed(g, i, j, shape),)
    return out


def at_embed(a: Node, i: int, j: int, shape) -> Node:
    if a.value.ndim != 0:
        raise ValueError("at_embed: expects scalar")
    val = np.zeros(shape)
    val[i, j] = a.value
    out = Node(a.tape, val, (a,), None, "at_embed")
    out.vjp = lambda g: (at(g, i, j),)
    return out


def take_per_row(a: Node, idx) -> Node:
    """out[i] = a[i, idx[i]] for a fixed integer index vector."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.value.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.value.shape[0]:
        raise ValueError("take_per_row: expects rank-2 input and one index per row")
    n_cols = a.value.shape[1]
    out = Node(a.tape, a.value[np.arange(idx.shape[0]), idx].copy(), (a,), None, "take_per_row")
    out.vjp = lambda g: (scatter_per_row(g, idx, n_cols),)
    return out


def scatter_per_row(a: Node, idx, n_cols: int) -> Node:
    idx = np.asarray(idx, dtype=np.int64)
    if a.value.ndim != 1 or idx.shape != a.value.shape:
        raise ValueError("scatter_per_row: expects rank-1 values and matching indices")
    val = np.zeros((a.value.shape[0], n_cols))
    val[np.arange(idx.shape[0]), idx] = a.value
    out = Node(a.tape, val, (a,), None, "scatter_per_row")
    out.vjp = lambda g: (take_per_row(g, idx),)
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
# backward passes


def grad_nodes(output: Node, wrt) -> list[Node | None]:
    """Reverse sweep from a scalar output; gradients are returned as nodes.

    The sweep appends its intermediate computations to the same tape, so the
    returned nodes can be differentiated again by a later sweep.  Leaves that
    do not influence the output map to None.
    """
    if output.value.shape != ():
        raise ValueError(f"backward: output must be scalar, got shape {output.value.shape}")
    grads: dict[Node, Node] = {output: output.tape.constant(1.0)}
    upstream = output.tape.nodes[: output.index + 1]
    for node in reversed(upstream):
        g = grads.get(node)
        if g is None or node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            held = grads.get(parent)
            grads[parent] = pg if held is None else add(held, pg)
    return [grads.get(w) for w in wrt]


def backward(output: Node, leaves) -> dict[Node, np.ndarray]:
    """Gradient of a scalar output with respect to each leaf, as numpy arrays.

    Leaves that do not influence the output get zero gradients.
    """
    leaves = list(leaves)
    nodes = grad_nodes(output, leaves)
    result = {}
    for leaf, g in zip(leaves, nodes):
        result[leaf] = np.zeros_like(leaf.value) if g is None else g.value.copy()
    return result


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
