"""Dense float64 tensors with define-by-run reverse-mode differentiation.

A ``Tape`` records every operation as it executes; ``backward`` walks the
record in reverse append order (which is already topological) and leaves a
gradient for every leaf in the tape's gradient table.  Tensors are immutable
values: each op allocates a fresh result and never mutates its inputs.
numpy supplies the array storage and kernels, the differentiation rules live
here.

Unattached tensors (no tape) run through the exact same forward kernels, so
inference costs no bookkeeping.
"""

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .rng import Rng

_STRICT_FINITE = False


def set_strict_finite(flag: bool):
    """When on, every op validates that its output is finite. Slow; tests use it."""
    global _STRICT_FINITE
    _STRICT_FINITE = bool(flag)


class Tensor:
    """Immutable dense float64 value, optionally attached to a tape node."""

    __slots__ = ("array", "tape", "node_id")

    def __init__(self, array, tape=None, node_id=None):
        arr = np.asarray(array, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.array = arr
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise DimensionError("item() requires a single-element tensor")
        return float(self.array.reshape(())[()])

    def __repr__(self):
        tag = "" if self.tape is None else f", node={self.node_id}"
        return f"Tensor(shape={self.shape}{tag})"


class Node:
    """One recorded operation: kind, input node ids and saved forward values."""

    __slots__ = ("kind", "inputs", "saved", "shape")

    def __init__(self, kind, inputs, saved, shape):
        self.kind = kind
        self.inputs = inputs
        self.saved = saved
        self.shape = shape


class Tape:
    """Append-only operation record; append order doubles as topological order.

    With record=False the tape threads through ops without storing nodes, so
    long evaluation rollouts run in O(live tensors) memory; backward is then
    unavailable.
    """

    __slots__ = ("nodes", "gradients", "record")

    def __init__(self, record: bool = True):
        self.nodes = []
        self.gradients = None
        self.record = record

    def _append(self, kind, inputs, saved, shape):
        if not self.record:
            return None
        self.nodes.append(Node(kind, inputs, saved, shape))
        return len(self.nodes) - 1

    def watch(self, value) -> Tensor:
        """Register a leaf (parameter or differentiable input) on this tape."""
        arr = np.asarray(value.array if isinstance(value, Tensor) else value,
                         dtype=np.float64)
        nid = self._append("leaf", (), (), arr.shape)
        return Tensor(arr, self, nid)

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of a leaf after backward (non-leaf gradients are not kept)."""
        if self.gradients is None:
            raise ContractError("backward has not been run on this tape")
        if t.tape is not self or t.node_id is None:
            raise ContractError("tensor is not attached to this tape")
        g = self.gradients.get(t.node_id)
        if g is None:
            raise ContractError("no gradient recorded for this node")
        return g


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _tape_of(tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is None:
                tape = t.tape
            elif tape is not t.tape:
                raise ContractError("operands belong to different tapes")
    return tape


def _emit(kind, inputs, saved, out_array) -> Tensor:
    if _STRICT_FINITE and not np.all(np.isfinite(out_array)):
        raise DomainError(f"{kind} produced non-finite values")
    tape = _tape_of(inputs)
    if tape is None:
        return Tensor(out_array)
    ids = tuple(
        t.node_id if (t.tape is tape and t.node_id is not None) else -1
        for t in inputs
    )
    nid = tape._append(kind, ids, saved, out_array.shape)
    return Tensor(out_array, tape, nid)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) never
    # overflowing: one division of the picked numerator, e made in place
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num)


# ---------------------------------------------------------------------------
# backward rules, keyed by node kind


# The binary rules skip (return None for) an operand without a tape node:
# `backward` would discard a constant's gradient.


def _bw_add(g, saved):
    sa, sb, (need_a, need_b) = saved
    return (_unbroadcast(g, sa) if need_a else None,
            _unbroadcast(g, sb) if need_b else None)


def _bw_sub(g, saved):
    sa, sb, (need_a, need_b) = saved
    return (_unbroadcast(g, sa) if need_a else None,
            _unbroadcast(-g, sb) if need_b else None)


def _bw_mul(g, saved):
    a, b, (need_a, need_b) = saved
    return (_unbroadcast(g * b, a.shape) if need_a else None,
            _unbroadcast(g * a, b.shape) if need_b else None)


def _bw_div(g, saved):
    a, b, (need_a, need_b) = saved
    return (_unbroadcast(g / b, a.shape) if need_a else None,
            _unbroadcast(-g * a / (b * b), b.shape) if need_b else None)


def _bw_neg(g, saved):
    return (-g,)


def _bw_exp(g, saved):
    (out,) = saved
    return (g * out,)


def _bw_log(g, saved):
    (x,) = saved
    return (g / x,)


def _bw_sqrt(g, saved):
    (out,) = saved
    return (g / (2.0 * out),)


def _bw_square(g, saved):
    (x,) = saved
    return (2.0 * g * x,)


def _bw_tanh(g, saved):
    (out,) = saved
    return (g * (1.0 - out * out),)


def _bw_sigmoid(g, saved):
    (out,) = saved
    return (g * out * (1.0 - out),)


def _bw_softplus(g, saved):
    (x,) = saved
    return (g * _stable_sigmoid(x),)


def _bw_sin(g, saved):
    (x,) = saved
    return (g * np.cos(x),)


def _bw_cos(g, saved):
    (x,) = saved
    return (-g * np.sin(x),)


def _bw_abs(g, saved):
    (sign,) = saved
    return (g * sign,)


def _bw_clip(g, saved):
    (mask,) = saved
    return (g * mask,)


def _bw_atan2(g, saved):
    y, x = saved
    denom = x * x + y * y
    return (_unbroadcast(g * x / denom, y.shape), _unbroadcast(-g * y / denom, x.shape))


def _bw_matmul(g, saved):
    a, b, (need_a, need_b) = saved
    g_rows = g.reshape(-1, g.shape[-1])
    return ((g_rows @ b.T).reshape(a.shape) if need_a else None,
            a.reshape(-1, a.shape[-1]).T @ g_rows if need_b else None)


def _bw_sum(g, saved):
    (shape,) = saved
    return (np.broadcast_to(g, shape),)


def _bw_sum_axis(g, saved):
    shape, axis, keepdims = saved
    if not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, shape),)


def _bw_reshape(g, saved):
    (shape,) = saved
    return (g.reshape(shape),)


def _bw_concat(g, saved):
    axis, offsets = saved
    pieces = []
    index = [slice(None)] * g.ndim
    for start, stop in offsets:
        index[axis] = slice(start, stop)
        pieces.append(g[tuple(index)])
    return tuple(pieces)


def _bw_slice(g, saved):
    shape, axis, start = saved
    out = np.zeros(shape, dtype=np.float64)
    index = [slice(None)] * len(shape)
    index[axis] = slice(start, start + g.shape[axis])
    out[tuple(index)] = g
    return (out,)


def _bw_grad_reverse(g, saved):
    (scale,) = saved
    return (-scale * g,)


def _bw_gaussian_sample(g, saved):
    (eps,) = saved
    return (g, g * eps)


def _bw_pair_tanh_sum(g, saved):
    pk, pj, bias = saved
    d = _pair_tanh(pk, pj, bias)
    d *= d
    np.subtract(1.0, d, out=d)
    d *= g[:, :, None, :]
    # the zeroed diagonal of the tanh values would pass 1 - 0**2 = 1 through
    diag = np.arange(pk.shape[1])
    d[:, diag, diag, :] = 0.0
    g_k = np.einsum("bkjm->bkm", d)
    return (g_k, d.sum(axis=1), g_k.sum(axis=(0, 1)))


BACKWARD = {
    "add": _bw_add,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "div": _bw_div,
    "neg": _bw_neg,
    "exp": _bw_exp,
    "log": _bw_log,
    "sqrt": _bw_sqrt,
    "square": _bw_square,
    "tanh": _bw_tanh,
    "sigmoid": _bw_sigmoid,
    "softplus": _bw_softplus,
    "sin": _bw_sin,
    "cos": _bw_cos,
    "abs": _bw_abs,
    "clip": _bw_clip,
    "atan2": _bw_atan2,
    "matmul": _bw_matmul,
    "sum": _bw_sum,
    "sum_axis": _bw_sum_axis,
    "reshape": _bw_reshape,
    "concat": _bw_concat,
    "slice": _bw_slice,
    "grad_reverse": _bw_grad_reverse,
    "gaussian_sample": _bw_gaussian_sample,
    "pair_tanh_sum": _bw_pair_tanh_sum,
}


# ---------------------------------------------------------------------------
# elementwise and shape ops


def _has_node(a: Tensor, b: Tensor):
    return (a.node_id is not None, b.node_id is not None)


def add(a, b):
    a, b = _lift(a), _lift(b)
    return _emit("add", (a, b), (a.array.shape, b.array.shape, _has_node(a, b)),
                 a.array + b.array)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    return _emit("sub", (a, b), (a.array.shape, b.array.shape, _has_node(a, b)),
                 a.array - b.array)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    return _emit("mul", (a, b), (a.array, b.array, _has_node(a, b)),
                 a.array * b.array)


def div(a, b):
    a, b = _lift(a), _lift(b)
    if np.any(b.array == 0.0):
        raise DomainError("division by zero")
    return _emit("div", (a, b), (a.array, b.array, _has_node(a, b)),
                 a.array / b.array)


def neg(a):
    a = _lift(a)
    return _emit("neg", (a,), (), -a.array)


def exp(a):
    a = _lift(a)
    out = np.exp(a.array)
    return _emit("exp", (a,), (out,), out)


def log(a):
    a = _lift(a)
    if np.any(a.array <= 0.0):
        raise DomainError("log requires strictly positive entries")
    return _emit("log", (a,), (a.array,), np.log(a.array))


def sqrt(a):
    a = _lift(a)
    if np.any(a.array <= 0.0):
        raise DomainError("sqrt requires strictly positive entries")
    out = np.sqrt(a.array)
    return _emit("sqrt", (a,), (out,), out)


def square(a):
    a = _lift(a)
    return _emit("square", (a,), (a.array,), a.array * a.array)


def tanh(a):
    a = _lift(a)
    out = np.tanh(a.array)
    return _emit("tanh", (a,), (out,), out)


def sigmoid(a):
    a = _lift(a)
    out = _stable_sigmoid(a.array)
    return _emit("sigmoid", (a,), (out,), out)


def softplus(a):
    a = _lift(a)
    return _emit("softplus", (a,), (a.array,), np.logaddexp(0.0, a.array))


def sin(a):
    a = _lift(a)
    return _emit("sin", (a,), (a.array,), np.sin(a.array))


def cos(a):
    a = _lift(a)
    return _emit("cos", (a,), (a.array,), np.cos(a.array))


def absolute(a):
    a = _lift(a)
    return _emit("abs", (a,), (np.sign(a.array),), np.absolute(a.array))


def clip(a, lo: float, hi: float):
    a = _lift(a)
    mask = ((a.array >= lo) & (a.array <= hi)).astype(np.float64)
    return _emit("clip", (a,), (mask,), np.clip(a.array, lo, hi))


def atan2(y, x):
    y, x = _lift(y), _lift(x)
    if np.any((y.array == 0.0) & (x.array == 0.0)):
        raise DomainError("atan2 undefined at the origin")
    return _emit("atan2", (y, x), (y.array, x.array), np.arctan2(y.array, x.array))


def matmul(a, b):
    """(..., n) @ (n, m) -> (..., m): the leading axes of a fold into the
    rows of one (rows, n) @ (n, m) product."""
    a, b = _lift(a), _lift(b)
    if a.array.ndim < 2 or b.array.ndim != 2:
        raise DimensionError("matmul expects (..., n) @ (n, m) operands")
    if a.array.shape[-1] != b.array.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.array.shape} @ {b.array.shape}")
    out = a.array.reshape(-1, b.array.shape[0]) @ b.array
    return _emit("matmul", (a, b), (a.array, b.array, _has_node(a, b)),
                 out.reshape(a.array.shape[:-1] + b.array.shape[1:]))


def tsum(a):
    a = _lift(a)
    return _emit("sum", (a,), (a.array.shape,), np.asarray(a.array.sum()))


def sum_axis(a, axis: int, keepdims: bool = False):
    a = _lift(a)
    out = a.array.sum(axis=axis, keepdims=keepdims)
    return _emit("sum_axis", (a,), (a.array.shape, axis, keepdims), np.asarray(out))


def mean(a):
    a = _lift(a)
    n = a.array.size
    if n == 0:
        raise DimensionError("mean of an empty tensor")
    return mul(tsum(a), 1.0 / n)


def reshape(a, shape):
    a = _lift(a)
    return _emit("reshape", (a,), (a.array.shape,), a.array.reshape(shape))


def concat(tensors, axis: int = 0):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of an empty list")
    arrays = [t.array for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    offsets = []
    start = 0
    for arr in arrays:
        stop = start + arr.shape[axis]
        offsets.append((start, stop))
        start = stop
    return _emit("concat", tuple(tensors), (axis, offsets), out)


def slice_axis(a, axis: int, start: int, stop: int):
    a = _lift(a)
    index = [slice(None)] * a.array.ndim
    index[axis] = slice(start, stop)
    out = np.ascontiguousarray(a.array[tuple(index)])
    return _emit("slice", (a,), (a.array.shape, axis, start), out)


def _pair_tanh(pk, pj, bias):
    """tanh(pk[:, k] + pj[:, j] + bias) as a fresh (B, K, K, m) array, with
    the k = j diagonal zeroed."""
    b, k, m = pk.shape
    # pk[:, k] + (pj + bias)[:, j] summed the other way round, which is the
    # same float add: filling in the j rows first copies K*m values per
    # inner loop instead of m, about a quarter faster
    hidden = np.empty((b, k, k, m))
    hidden[...] = (pj + bias)[:, None, :, :]
    hidden += pk[:, :, None, :]
    np.tanh(hidden, out=hidden)
    diag = np.arange(k)
    hidden[:, diag, diag, :] = 0.0
    return hidden


def pair_tanh_sum(proj_k, proj_j, b0):
    """Neighbour sum of a pairwise tanh layer.

    out[:, k] = sum over j != k of tanh(proj_k[:, k] + proj_j[:, j] + b0).
    proj_k and proj_j are (B, K, m), b0 is (m,); the result is (B, K, m) and
    is zero when K = 1.  Only the three inputs are saved: backward rebuilds
    the (B, K, K, m) tanh values with the forward's own code, so the tape
    holds no pair-sized array, and every gradient is bitwise the one that
    saving the tanh values gave.
    """
    proj_k, proj_j, b0 = _lift(proj_k), _lift(proj_j), _lift(b0)
    pk, pj, bias = proj_k.array, proj_j.array, b0.array
    if pk.ndim != 3 or pk.shape != pj.shape or bias.shape != pk.shape[-1:]:
        raise DimensionError(
            f"pair_tanh_sum expects (B, K, m), (B, K, m), (m,): "
            f"got {pk.shape}, {pj.shape}, {bias.shape}")
    # einsum reduces the middle axis about twice as fast as sum(axis=2)
    return _emit("pair_tanh_sum", (proj_k, proj_j, b0), (pk, pj, bias),
                 np.einsum("bkjm->bkm", _pair_tanh(pk, pj, bias)))


# ---------------------------------------------------------------------------
# stochastic / adversarial ops


def grad_reverse(a, scale: float = 1.0):
    """Identity in the forward pass; multiplies the gradient by -scale."""
    a = _lift(a)
    if scale <= 0.0:
        raise ContractError("grad_reverse scale must be positive")
    # forward value shares the input buffer, so it is bitwise identical
    return _emit("grad_reverse", (a,), (float(scale),), a.array)


def gaussian_sample(mu, sigma, rng: Rng):
    """Reparameterized draw mu + sigma * eps with eps ~ N(0, I) from rng."""
    mu, sigma = _lift(mu), _lift(sigma)
    if mu.array.shape != sigma.array.shape:
        raise DimensionError("gaussian_sample requires identical mu/sigma shapes")
    if np.any(sigma.array <= 0.0):
        raise DomainError("sigma must be strictly positive")
    eps = rng.normal_array(mu.array.shape)
    out = mu.array + sigma.array * eps
    return _emit("gaussian_sample", (mu, sigma), (eps,), out)


def gaussian_nll(mu, sigma, target):
    """Diagonal Gaussian negative log-likelihood, summed over all entries.

    Per entry: 0.5 ((x - mu)/sigma)^2 + log sigma + 0.5 log(2 pi).  The target
    is treated as a constant.
    """
    mu, sigma = _lift(mu), _lift(sigma)
    target = np.asarray(target.array if isinstance(target, Tensor) else target,
                        dtype=np.float64)
    if mu.array.shape != sigma.array.shape or mu.array.shape != target.shape:
        raise DimensionError("gaussian_nll requires identically shaped arrays")
    if np.any(sigma.array <= 0.0):
        raise DomainError("gaussian_nll requires positive sigmas")
    resid = div(sub(target, mu), sigma)
    per = add(add(mul(square(resid), 0.5), log(sigma)),
              0.5 * np.log(2.0 * np.pi))
    return tsum(per)


def kl_diag_gauss(mu_q, sigma_q, mu_p, sigma_p):
    """KL(q || p) for diagonal Gaussians, summed over all entries.

    Per entry: log(sp/sq) + (sq^2 + (mq - mp)^2) / (2 sp^2) - 1/2.
    Zero exactly when the parameter arrays coincide.
    """
    mu_q, sigma_q = _lift(mu_q), _lift(sigma_q)
    mu_p, sigma_p = _lift(mu_p), _lift(sigma_p)
    for s in (sigma_q, sigma_p):
        if np.any(s.array <= 0.0):
            raise DomainError("kl_diag_gauss requires positive sigmas")
    if not (mu_q.array.shape == sigma_q.array.shape
            == mu_p.array.shape == sigma_p.array.shape):
        raise DimensionError("kl_diag_gauss requires four identically shaped arrays")
    term = log(div(sigma_p, sigma_q))
    dmu = sub(mu_q, mu_p)
    quad = div(add(square(sigma_q), square(dmu)), mul(square(sigma_p), 2.0))
    return tsum(sub(add(term, quad), 0.5))


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor):
    """Populate loss.tape.gradients from a scalar loss.

    The table keeps leaf gradients only: every leaf ends up with one (zeros
    when unused), so optimizers can rely on full coverage after a single
    call.  A non-leaf gradient is dropped as soon as its rule has consumed
    it, which bounds the table by the live frontier of the reverse pass.
    """
    if not isinstance(loss, Tensor) or loss.tape is None or loss.node_id is None:
        raise ContractError("backward requires a tape-attached tensor")
    if loss.array.size != 1:
        raise ContractError("backward requires a scalar loss")
    tape = loss.tape
    grads = {loss.node_id: np.ones(tape.nodes[loss.node_id].shape, dtype=np.float64)}
    # ids whose gradient is a sum this pass allocated; only those are added
    # into in place.  Any other entry may be a rule's saved forward array, a
    # broadcast, a view, or the same array another input received.
    owned = set()
    for nid in range(loss.node_id, -1, -1):
        g = grads.get(nid)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.kind == "leaf":
            continue
        del grads[nid]
        contributions = BACKWARD[node.kind](g, node.saved)
        for input_id, contrib in zip(node.inputs, contributions):
            if input_id < 0 or contrib is None:
                continue
            prev = grads.get(input_id)
            if prev is None:
                grads[input_id] = (contrib if contrib.shape == tape.nodes[input_id].shape
                                   else np.broadcast_to(contrib, tape.nodes[input_id].shape).copy())
            elif input_id in owned:
                np.add(prev, contrib, out=prev)
            else:
                grads[input_id] = prev + contrib
                owned.add(input_id)
    for nid, node in enumerate(tape.nodes):
        if node.kind == "leaf" and nid not in grads:
            grads[nid] = np.zeros(node.shape, dtype=np.float64)
    tape.gradients = grads
    return grads
