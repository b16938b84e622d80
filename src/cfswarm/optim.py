"""Named parameter storage, Adam updates and bit-exact checkpoints.

A checkpoint (format ``paramstore-v3``) is one ``<stem>.npz`` (see
``artifact``) of three packed float64 arrays: ``param``, ``adam_m`` and
``adam_v``, each every parameter's values raveled in C order and
concatenated in store order.  The metadata holds the parameter names and
shapes that cut them apart, ``step_count`` and the string ``meta`` map.
Loading reads four zip entries however many parameters there are.
"""

import numpy as np

from . import artifact
from .errors import ContractError, DimensionError
from .rng import Rng
from .tensor import Tensor, Tape

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParamStore:
    """Map of named parameters plus Adam moment buffers.

    Parameters are immutable Tensors; an update replaces the entry.  ``bind``
    attaches every parameter to a tape as a leaf and remembers the binding so
    ``gradients`` can look them up after ``backward``; pass those to
    ``adam_step_grads``.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.meta: dict[str, str] = {}
        self._bound_tape: Tape | None = None
        self._bound: dict[str, Tensor] = {}

    def add(self, name: str, array) -> None:
        if name in self.params:
            raise ContractError(f"duplicate parameter {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        self.params[name] = Tensor(arr)
        self.adam_m[name] = np.zeros_like(arr)
        self.adam_v[name] = np.zeros_like(arr)

    def add_uniform(self, name: str, shape, fan_in: int, rng: Rng) -> None:
        """Uniform +-1/sqrt(fan_in) weights; pass fan_in=0 for a zero init."""
        if fan_in <= 0:
            self.add(name, np.zeros(shape, dtype=np.float64))
        else:
            bound = 1.0 / np.sqrt(float(fan_in))
            self.add(name, rng.uniform_array(shape, -bound, bound))

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        """Watch every parameter on the tape; returns name -> leaf tensor."""
        leaves = {name: tape.watch(t.array) for name, t in self.params.items()}
        self._bound_tape = tape
        self._bound = leaves
        return leaves

    def gradients(self) -> dict[str, np.ndarray]:
        tape = self._bound_tape
        if tape is None or tape.gradients is None:
            raise ContractError("no tape bound or backward not run")
        return {name: tape.grad(leaf) for name, leaf in self._bound.items()}

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self.params.items():
            out.params[name] = Tensor(t.array.copy())
            out.adam_m[name] = self.adam_m[name].copy()
            out.adam_v[name] = self.adam_v[name].copy()
        out.step_count = self.step_count
        out.meta = dict(self.meta)
        return out


def adam_step_grads(store: ParamStore, grads: dict[str, np.ndarray],
                    lr: float) -> None:
    """Bias-corrected Adam update from an explicit gradient dict."""
    for name in store.params:
        if name not in grads:
            raise ContractError(f"missing gradient for parameter {name!r}")
        if grads[name].shape != store.params[name].shape:
            raise DimensionError(f"gradient shape mismatch for {name!r}")
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, param in store.params.items():
        g = grads[name]
        m = store.adam_m[name] = (ADAM_BETA1 * store.adam_m[name]
                                  + (1.0 - ADAM_BETA1) * g)
        v = store.adam_v[name] = (ADAM_BETA2 * store.adam_v[name]
                                  + (1.0 - ADAM_BETA2) * (g * g))
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        store.params[name] = Tensor(param.array - lr * update)


# ---------------------------------------------------------------------------
# checkpoint format: one <stem>.npz of three packed float64 arrays

CHECKPOINT_FORMAT = "paramstore-v3"
_PACKED = ("param", "adam_m", "adam_v")


def save_checkpoint(store: ParamStore, stem: str) -> list[str]:
    """Write <stem>.npz; round-trips bit-exactly.  Returns [path]."""
    names = list(store.params)
    columns = ([store.params[n].array for n in names],
               [store.adam_m[n] for n in names],
               [store.adam_v[n] for n in names])
    arrays = {key: np.concatenate([np.ravel(a) for a in arrs] or [[]])
              for key, arrs in zip(_PACKED, columns)}
    path = stem + ".npz"
    artifact.save(path, arrays, {
        "format": CHECKPOINT_FORMAT, "step_count": store.step_count,
        "params": names, "shapes": [list(store.params[n].shape) for n in names],
        "meta": store.meta})
    return [path]


def load_checkpoint(stem: str) -> ParamStore:
    """Read <stem>.npz; any other format, or packed arrays that disagree
    with the stored names and shapes, is a ContractError."""
    path = stem + ".npz"
    arrays, meta = artifact.load(path, _PACKED, CHECKPOINT_FORMAT, {
        "step_count": int, "meta": {str: str}, "params": [str],
        "shapes": [[int]]})
    if meta["step_count"] < 0:
        raise ContractError(f"checkpoint {path!r} has a negative step_count")
    names, shapes = meta["params"], [tuple(sh) for sh in meta["shapes"]]
    if len(shapes) != len(names) or any(d < 0 for sh in shapes for d in sh):
        raise ContractError(f"checkpoint {path!r} has bad shapes")
    if len(set(names)) != len(names):
        raise ContractError(f"checkpoint {path!r} repeats a parameter name")
    ends = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    for key in _PACKED:
        if arrays[key].dtype != np.float64 or arrays[key].shape != (ends[-1],):
            raise ContractError(
                f"checkpoint {path!r}: {key} holds {arrays[key].shape} "
                f"{arrays[key].dtype}, the shapes need ({ends[-1]},) float64")
    store = ParamStore()
    store.step_count = meta["step_count"]
    store.meta = meta["meta"]
    for name, shape, lo, hi in zip(names, shapes, ends[:-1], ends[1:]):
        store.params[name] = Tensor(arrays["param"][lo:hi].reshape(shape))
        store.adam_m[name] = arrays["adam_m"][lo:hi].reshape(shape)
        store.adam_v[name] = arrays["adam_v"][lo:hi].reshape(shape)
    return store
