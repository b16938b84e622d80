import numpy as np
import pytest

from cfswarm.errors import ContractError
from cfswarm.rng import Rng, derive_seed, derive_seeds, uniform_rows


def test_same_seed_same_bits():
    a = Rng(12345).uniforms(64)
    b = Rng(12345).uniforms(64)
    assert np.array_equal(a, b)
    assert np.array_equal(Rng(7).normals(33), Rng(7).normals(33))


def test_counter_advances_stream():
    r = Rng(3)
    first = r.uniforms(10)
    second = r.uniforms(10)
    assert not np.array_equal(first, second)
    # one call for 20 equals two calls for 10 each
    merged = Rng(3).uniforms(20)
    assert np.array_equal(merged, np.concatenate([first, second]))


def test_uniforms_in_unit_interval():
    u = Rng(99).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = Rng(42).normals(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_derive_seed_is_stable_and_separates_purposes():
    assert derive_seed(5, "init", 0) == derive_seed(5, "init", 0)
    assert derive_seed(5, "init", 0) != derive_seed(5, "init", 1)
    assert derive_seed(5, "init", 0) != derive_seed(5, "shuffle", 0)
    assert derive_seed(5, "init", 0) != derive_seed(6, "init", 0)


def test_vector_derivation_equals_scalar_derive_seed():
    draw = Rng(31).integers(2, 2**62)
    roots = [0, 1, 2**63, 2**64 - 1, int(draw[0]) * 3, -1]
    indices = [0, 1, 2**63, int(draw[1]) * 2]
    want = np.array([[derive_seed(r, "episode/train", i) for i in indices]
                     for r in roots], dtype=np.uint64)
    # python-int roots and indices, each root alone, and uint64 words
    for row, root in enumerate(roots):
        got = derive_seeds(root, "episode/train", indices)
        assert got.dtype == np.uint64 and np.array_equal(got, want[row])
        assert int(derive_seeds(root, "episode/train", indices[-1])) \
            == want[row, -1]
    words = np.array([r % 2**64 for r in roots], dtype=np.uint64)
    index_words = np.array(indices, dtype=np.uint64)
    assert np.array_equal(
        derive_seeds(words[:, None], "episode/train", index_words), want)
    assert np.array_equal(derive_seeds(words, "boid-init"),
                          [derive_seed(r, "boid-init") for r in roots])


def test_uniform_rows_equal_per_seed_streams():
    roots = [0, 1, 2**63, 2**64 - 1, 123456789, -1]
    for seeds in (roots, np.array([r % 2**64 for r in roots],
                                  dtype=np.uint64)):
        rows = uniform_rows(seeds, 7)
        for row, root in zip(rows, roots):
            assert np.array_equal(row, Rng(root).uniforms(7))


def test_fork_matches_derive_seed():
    r = Rng(17)
    assert np.array_equal(r.fork("x", 2).uniforms(5),
                          Rng(derive_seed(17, "x", 2)).uniforms(5))


def test_permutation_is_a_permutation():
    p = Rng(0).permutation(100)
    assert np.array_equal(np.sort(p), np.arange(100))
    assert not np.array_equal(p, np.arange(100))


def test_integers_bounds():
    v = Rng(8).integers(1000, 7)
    assert v.min() >= 0 and v.max() <= 6
    with pytest.raises(ContractError):
        Rng(8).integers(5, 0)


def test_uniform_array_range_and_shape():
    a = Rng(1).uniform_array((3, 4), low=-2.0, high=2.0)
    assert a.shape == (3, 4)
    assert a.min() >= -2.0 and a.max() < 2.0


def test_seed_type_checked():
    with pytest.raises(ContractError):
        Rng("not an int")
