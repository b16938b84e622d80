"""Counter-based pseudo-random numbers with bitwise reproducibility.

The generator is a splitmix64 stream evaluated at ``mix(seed) + counter``.
Because each output is a pure function of (seed, counter), identical seeds
and call sequences produce identical bits on every platform, and sub-streams
can be derived by hashing without sharing mutable state.  Normal deviates
come from the Box-Muller transform.
"""

import numpy as np

from .errors import ContractError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix64(x: int) -> int:
    """Scalar splitmix64 finalizer on python ints."""
    x &= _MASK
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D9ECF9AEBD7CEB) & _MASK
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def derive_seed(root: int, purpose: str, index: int = 0) -> int:
    """Stable sub-seed for (purpose, index) under a root seed.

    Used everywhere a component needs its own stream: episode generation,
    weight init, epoch shuffling.  Derivation is order-free, so work can be
    sharded without changing results.
    """
    h = _mix64(root ^ _fnv1a(purpose))
    return _mix64(h ^ ((index & _MASK) * _GOLDEN) & _MASK)


def _splitmix64(base: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Words `idx` of the splitmix64 streams starting at `base`; both are
    uint64 and broadcast against each other."""
    with np.errstate(over="ignore"):
        x = base + idx * np.uint64(_GOLDEN)
        z = x + np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D9ECF9AEBD7CEB)
        return z ^ (z >> np.uint64(31))


def _words(values) -> np.ndarray:
    """Integers as uint64 words, taken mod 2**64 as `derive_seed` takes them."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.asarray(np.asarray(values, dtype=object) & _MASK, dtype=np.uint64)


def derive_seeds(roots, purpose: str, index=0) -> np.ndarray:
    """`derive_seed` over uint64 words: roots and indices broadcast, and each
    word equals derive_seed(root, purpose, index).  Hashes `purpose` once;
    `_splitmix64(x, 0)` is `_mix64(x)`."""
    zero = np.uint64(0)
    with np.errstate(over="ignore"):
        h = _splitmix64(_words(roots) ^ np.uint64(_fnv1a(purpose)), zero)
        return _splitmix64(h ^ _words(index) * np.uint64(_GOLDEN), zero)


def _unit_doubles(words: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word as a double in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_rows(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) uniforms drawn in one pass; row i is bitwise
    Rng(seeds[i]).uniforms(n).  `seeds` are ints or uint64 words."""
    base = _splitmix64(_words(seeds), np.uint64(0))
    return _unit_doubles(_splitmix64(base[:, None],
                                     np.arange(n, dtype=np.uint64)))


class Rng:
    """Deterministic stream of uniforms and normals.

    Fields are just the 64-bit seed and a draw counter; state never depends
    on numpy's global generator.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise ContractError("seed must be an int")
        self.seed = seed & _MASK
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        """Next n splitmix64 words as uint64."""
        idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return _splitmix64(np.uint64(_mix64(self.seed)), idx)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return _unit_doubles(self._raw(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        # u1 shifted into (0, 1] so the log is finite
        u1 = 1.0 - u[:pairs]
        u2 = u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal_array(self, shape) -> np.ndarray:
        size = int(np.prod(shape)) if len(shape) else 1
        return self.normals(size).reshape(shape)

    def uniform_array(self, shape, low=0.0, high=1.0) -> np.ndarray:
        size = int(np.prod(shape)) if len(shape) else 1
        return (low + (high - low) * self.uniforms(size)).reshape(shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound). Bias ~ bound / 2**53, negligible here."""
        if bound <= 0:
            raise ContractError("bound must be positive")
        return np.minimum((self.uniforms(n) * bound).astype(np.int64), bound - 1)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic shuffle of range(n) by sorting one uniform per slot."""
        keys = self.uniforms(n)
        return np.argsort(keys, kind="stable")

    def fork(self, purpose: str, index: int = 0) -> "Rng":
        return Rng(derive_seed(self.seed, purpose, index))
