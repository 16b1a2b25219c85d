"""A tour of the reverse-mode tape: build a graph, pull gradients, check them.

Everything in masslearn that trains or differentiates runs through this tape.
The demo fits nothing; it just shows the three moves you need: create leaves,
compose ops, call backward.
"""

import numpy as np

from masslearn import autodiff as ad

rng = np.random.default_rng(0)

# A tiny least-squares-with-ridge expression, gradient by hand vs by tape.
X = rng.normal(size=(40, 3))
y = rng.normal(size=40)
w0 = rng.normal(size=3)
b0 = 0.3
lam = 0.1

tape = ad.Tape()
w = tape.leaf(w0.reshape(1, 3))          # leaves are what backward differentiates
b = tape.leaf(np.array([b0]))
pred = ad.linear(tape.constant(X), w, b)  # X @ w^T + b, one dense-layer node
resid = ad.sub(pred, tape.constant(y.reshape(-1, 1)))
loss = ad.add(ad.mean_all(ad.mul(resid, resid)),
              ad.mul(lam, ad.sum_all(ad.mul(w, w))))
grads = ad.backward(loss, [w, b])

r = X @ w0 + b0 - y
grad_w_manual = 2.0 * X.T @ r / len(y) + 2.0 * lam * w0
grad_b_manual = 2.0 * r.mean()

print("loss value          ", loss.value)
print("tape grad w         ", grads[w].ravel())
print("closed-form grad w  ", grad_w_manual)
print("tape grad b          %.12f" % grads[b][0])
print("closed-form grad b   %.12f" % grad_b_manual)
print("max deviation        %.2e" % max(np.abs(grads[w].ravel() - grad_w_manual).max(),
                                        abs(grads[b][0] - grad_b_manual)))

# The same check, automated: grad_check drives central finite differences
# over every coordinate of every leaf and reports the worst relative error.


def builder(tape, u, v):
    p = ad.matmul(u, v)
    return ad.sum_all(ad.logsumexp_rows(ad.sub(ad.mul(p, p), p)))


points = [rng.normal(size=(4, 5)), rng.normal(size=(5, 2))]
report = ad.grad_check(builder, points)
print()
print(f"grad_check over {report.n_coordinates} coordinates: "
      f"max abs err {report.max_abs_error:.2e}, max rel err {report.max_rel_error:.2e}")
