"""Named parameter storage, Adam updates and bit-exact checkpoints."""

import os

import numpy as np

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
    ``adam_step`` can look gradients up after ``backward``.
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

    def unbound(self) -> dict[str, Tensor]:
        """Plain parameter view for inference (no tape, no gradients)."""
        return dict(self.params)

    def gradients(self) -> dict[str, np.ndarray]:
        tape = self._bound_tape
        if tape is None or tape.gradients is None:
            raise ContractError("no tape bound or backward not run")
        return {name: tape.grad(leaf) for name, leaf in self._bound.items()}

    def n_values(self) -> int:
        return sum(t.size for t in self.params.values())

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
                    lr: float, beta1: float = ADAM_BETA1,
                    beta2: float = ADAM_BETA2, eps: float = ADAM_EPS) -> None:
    """Bias-corrected Adam update from an explicit gradient dict."""
    for name in store.params:
        if name not in grads:
            raise ContractError(f"missing gradient for parameter {name!r}")
        if grads[name].shape != store.params[name].shape:
            raise DimensionError(f"gradient shape mismatch for {name!r}")
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, param in store.params.items():
        g = grads[name]
        m = store.adam_m[name] = beta1 * store.adam_m[name] + (1.0 - beta1) * g
        v = store.adam_v[name] = beta2 * store.adam_v[name] + (1.0 - beta2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        store.params[name] = Tensor(param.array - lr * update)


def adam_step(store: ParamStore, lr: float, beta1: float = ADAM_BETA1,
              beta2: float = ADAM_BETA2, eps: float = ADAM_EPS) -> None:
    """Adam update using the gradients of the store's bound tape."""
    adam_step_grads(store, store.gradients(), lr, beta1, beta2, eps)


# ---------------------------------------------------------------------------
# checkpoint format: text manifest + little-endian float64 blob


def save_checkpoint(store: ParamStore, stem: str) -> tuple[str, str]:
    """Write <stem>.manifest and <stem>.blob; round-trips bit-exactly."""
    names = list(store.params)
    entries = []
    blob = bytearray()
    offset = 0

    def put(tag, name, arr):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append((tag, name, arr.shape, offset))
        blob.extend(raw)
        offset += arr.size

    for name in names:
        put("param", name, store.params[name].array)
    for name in names:
        put("adam_m", name, store.adam_m[name])
    for name in names:
        put("adam_v", name, store.adam_v[name])

    manifest_path = stem + ".manifest"
    blob_path = stem + ".blob"
    lines = ["paramstore-v1", f"step_count={store.step_count}"]
    for key, value in sorted(store.meta.items()):
        lines.append(f"meta:{key}={value}")
    for tag, name, shape, off in entries:
        shape_txt = ",".join(str(s) for s in shape) if shape else ""
        lines.append(f"{tag}\t{name}\t{shape_txt}\t{off}")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(blob_path, "wb") as fh:
        fh.write(bytes(blob))
    return manifest_path, blob_path


def load_checkpoint(stem: str) -> ParamStore:
    manifest_path = stem + ".manifest"
    blob_path = stem + ".blob"
    if not (os.path.exists(manifest_path) and os.path.exists(blob_path)):
        raise ContractError(f"checkpoint {stem!r} not found")
    with open(manifest_path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != "paramstore-v1":
        raise ContractError("unrecognized checkpoint manifest header")
    raw = np.fromfile(blob_path, dtype="<f8")
    store = ParamStore()
    for line in lines[1:]:
        if line.startswith("step_count="):
            store.step_count = int(line.split("=", 1)[1])
            continue
        if line.startswith("meta:"):
            key, value = line[len("meta:"):].split("=", 1)
            store.meta[key] = value
            continue
        tag, name, shape_txt, off_txt = line.split("\t")
        shape = tuple(int(s) for s in shape_txt.split(",")) if shape_txt else ()
        size = int(np.prod(shape)) if shape else 1
        off = int(off_txt)
        if off < 0 or off + size > raw.size:
            raise ContractError(
                f"checkpoint blob {blob_path!r} is truncated: {name!r} needs "
                f"values [{off}, {off + size}) of {raw.size}")
        arr = raw[off:off + size].reshape(shape).astype(np.float64)
        if tag == "param":
            store.params[name] = Tensor(arr)
        elif tag == "adam_m":
            store.adam_m[name] = arr
        elif tag == "adam_v":
            store.adam_v[name] = arr
        else:
            raise ContractError(f"unknown checkpoint entry tag {tag!r}")
    for name in store.params:
        if name not in store.adam_m or name not in store.adam_v:
            raise ContractError(f"checkpoint missing moments for {name!r}")
    return store
