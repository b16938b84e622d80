"""Neural building blocks: MLPs, a GRU cell, message-passing GNNs and
Gaussian output heads.

Blocks own no arrays; they register named parameters in a ParamStore and
evaluate against a `leaves` dict (name -> Tensor), which is either the
store's raw parameters (inference) or tape-attached copies (training).
"""

from . import tensor as T
from .errors import ContractError, DimensionError
from .optim import ParamStore
from .rng import Rng

SIGMA_FLOOR = 1e-4


class Mlp:
    """Dense stack with tanh hidden activations.

    `sizes` lists [input, hidden..., output]; the output activation is
    "identity" or "sigmoid".  Weights init uniform +-1/sqrt(fan_in), biases 0.
    """

    def __init__(self, name: str, sizes, out_activation: str = "identity"):
        if len(sizes) < 2:
            raise ContractError("an Mlp needs at least input and output sizes")
        if out_activation not in ("identity", "sigmoid"):
            raise ContractError(f"unsupported output activation {out_activation!r}")
        self.name = name
        self.sizes = [int(s) for s in sizes]
        self.out_activation = out_activation

    def register(self, store: ParamStore, rng: Rng) -> None:
        for i, (n_in, n_out) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            store.add_uniform(f"{self.name}.w{i}", (n_in, n_out), n_in, rng)
            store.add_uniform(f"{self.name}.b{i}", (n_out,), 0, rng)

    def forward(self, leaves, x):
        x = T._lift(x)
        if x.array.shape[-1] != self.sizes[0]:
            raise DimensionError(
                f"{self.name}: expected trailing dim {self.sizes[0]}, "
                f"got {x.array.shape}")
        last = len(self.sizes) - 2
        for i in range(last + 1):
            x = T.add(T.matmul(x, leaves[f"{self.name}.w{i}"]),
                      leaves[f"{self.name}.b{i}"])
            if i < last:
                x = T.tanh(x)
            elif self.out_activation == "sigmoid":
                x = T.sigmoid(x)
        return x

    __call__ = forward


class GruCell:
    """Single-step GRU: h' = (1 - z) * h + z * htilde."""

    def __init__(self, name: str, n_in: int, n_hidden: int):
        self.name = name
        self.n_in = int(n_in)
        self.n_hidden = int(n_hidden)

    def register(self, store: ParamStore, rng: Rng) -> None:
        for gate in ("z", "r", "h"):
            store.add_uniform(f"{self.name}.w{gate}", (self.n_in, self.n_hidden),
                              self.n_in, rng)
            store.add_uniform(f"{self.name}.u{gate}", (self.n_hidden, self.n_hidden),
                              self.n_hidden, rng)
            store.add_uniform(f"{self.name}.b{gate}", (self.n_hidden,), 0, rng)

    def step(self, leaves, x, h):
        x, h = T._lift(x), T._lift(h)
        if x.array.shape[-1] != self.n_in or h.array.shape[-1] != self.n_hidden:
            raise DimensionError(f"{self.name}: bad GRU input widths")
        name = self.name
        z = T.sigmoid(T.add(T.add(T.matmul(x, leaves[f"{name}.wz"]),
                                  T.matmul(h, leaves[f"{name}.uz"])),
                            leaves[f"{name}.bz"]))
        r = T.sigmoid(T.add(T.add(T.matmul(x, leaves[f"{name}.wr"]),
                                  T.matmul(h, leaves[f"{name}.ur"])),
                            leaves[f"{name}.br"]))
        cand = T.tanh(T.add(T.add(T.matmul(x, leaves[f"{name}.wh"]),
                                  T.matmul(T.mul(r, h), leaves[f"{name}.uh"])),
                            leaves[f"{name}.bh"]))
        return T.add(T.mul(T.sub(1.0, z), h), T.mul(z, cand))

    __call__ = step


class GnnBlock:
    """One round of message passing on the complete directed graph.

    Edge network f_e maps the concatenated ordered pair [v_k, v_j] to an edge
    vector; node network f_v maps the sum over j != k of incoming edges to the
    output.  With a single node there are no edges and f_v sees a zero vector.

    f_e's output layer is affine, so it commutes with the neighbour sum:
    sum_j (h_kj W1 + b1) = (sum_j h_kj) W1 + (K - 1) b1.  The block therefore
    sums f_e's hidden layer over neighbours first (edge -> aggregate -> node,
    as in Battaglia et al. 2018) and applies W1 once per node, so no
    per-edge output vector is ever formed.  The per-edge hidden layer is
    not kept for backward either: pair_tanh_sum recomputes it there.
    """

    def __init__(self, name: str, n_in: int, n_hidden: int, n_edge: int, n_out: int):
        self.name = name
        self.n_in = int(n_in)
        self.n_edge = int(n_edge)
        self.n_out = int(n_out)
        self.f_e = Mlp(f"{name}.fe", [2 * n_in, n_hidden, n_edge])
        self.f_v = Mlp(f"{name}.fv", [n_edge, n_hidden, n_out])

    def register(self, store: ParamStore, rng: Rng) -> None:
        self.f_e.register(store, rng)
        self.f_v.register(store, rng)

    def forward(self, leaves, nodes):
        """nodes (B, K, F) -> (B, K, n_out)."""
        nodes = T._lift(nodes)
        if nodes.array.ndim != 3 or nodes.array.shape[-1] != self.n_in:
            raise DimensionError(f"{self.name}: expected (B, K, {self.n_in}) nodes")
        _, k, f = nodes.array.shape
        # f_e's first layer over [v_k, v_j] splits into two node projections,
        # which avoids materializing the K*(K-1) pair concatenation
        w0 = leaves[f"{self.name}.fe.w0"]
        top = T.slice_axis(w0, 0, 0, f)
        bot = T.slice_axis(w0, 0, f, 2 * f)
        h_sum = T.pair_tanh_sum(T.matmul(nodes, top), T.matmul(nodes, bot),
                                leaves[f"{self.name}.fe.b0"])
        agg = T.add(T.matmul(h_sum, leaves[f"{self.name}.fe.w1"]),
                    T.mul(leaves[f"{self.name}.fe.b1"], float(k - 1)))
        return self.f_v(leaves, agg)

    __call__ = forward


class FlatBlock:
    """MLP over flattened K x F input, reshaped back to per-agent outputs.

    Drop-in replacement for GnnBlock when graph structure is ablated; it is
    not permutation equivariant by design.
    """

    def __init__(self, name: str, n_agents: int, n_in: int, n_hidden: int, n_out: int):
        self.name = name
        self.n_agents = int(n_agents)
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.mlp = Mlp(f"{name}.flat", [n_agents * n_in, n_hidden, n_agents * n_out])

    def register(self, store: ParamStore, rng: Rng) -> None:
        self.mlp.register(store, rng)

    def forward(self, leaves, nodes):
        """nodes (B, K, F) -> (B, K, n_out)."""
        nodes = T._lift(nodes)
        if nodes.array.shape[1:] != (self.n_agents, self.n_in):
            raise DimensionError(f"{self.name}: expected (B, {self.n_agents}, {self.n_in})")
        b, k, f = nodes.array.shape
        out = self.mlp(leaves, T.reshape(nodes, (b, k * f)))
        return T.reshape(out, (b, k, self.n_out))

    __call__ = forward


class GaussianHead:
    """Linear mu head and a softplus-floored sigma head.

    `forward(leaves, x, with_sigma=True)` returns (mu, sigma).  The sigma
    half (matmul, add, softplus, floor) costs as much as mu; a caller that
    reads only mu passes with_sigma=False and gets (mu, None), and mu is
    bitwise the same either way.
    """

    def __init__(self, name: str, n_in: int, n_out: int):
        self.name = name
        self.n_in = int(n_in)
        self.n_out = int(n_out)

    def register(self, store: ParamStore, rng: Rng) -> None:
        store.add_uniform(f"{self.name}.wmu", (self.n_in, self.n_out), self.n_in, rng)
        store.add_uniform(f"{self.name}.bmu", (self.n_out,), 0, rng)
        store.add_uniform(f"{self.name}.wsig", (self.n_in, self.n_out), self.n_in, rng)
        store.add_uniform(f"{self.name}.bsig", (self.n_out,), 0, rng)

    def forward(self, leaves, x, with_sigma: bool = True):
        mu = T.add(T.matmul(x, leaves[f"{self.name}.wmu"]), leaves[f"{self.name}.bmu"])
        if not with_sigma:
            return mu, None
        raw = T.add(T.matmul(x, leaves[f"{self.name}.wsig"]), leaves[f"{self.name}.bsig"])
        return mu, T.add(T.softplus(raw), SIGMA_FLOOR)

    __call__ = forward


def treatment_head(mlp: Mlp, leaves, z):
    """Propensity probability from a gradient-reversed representation.

    Returns (probability, logits).  The reversal is an identity forward and
    negates the gradient flowing back into z.
    """
    logits = mlp.forward(leaves, T.grad_reverse(z))
    return T.sigmoid(logits), logits
