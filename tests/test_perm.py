import random

import pytest

from hurwitz.errors import PreconditionError
from hurwitz.perm import Permutation, compose, transposition_product


def test_identity():
    e = Permutation.identity(4)
    assert e.images == (1, 2, 3, 4)
    assert e.is_identity()
    assert all(e(i) == i for i in range(1, 5))


def test_transposition():
    t = Permutation.transposition(5, 2, 4)
    assert t(2) == 4 and t(4) == 2
    assert all(t(i) == i for i in (1, 3, 5))
    assert Permutation.transposition(5, 4, 2) == t


def test_transposition_rejects_bad_points():
    with pytest.raises(PreconditionError):
        Permutation.transposition(3, 0, 2)
    with pytest.raises(PreconditionError):
        Permutation.transposition(3, 1, 4)
    with pytest.raises(PreconditionError):
        Permutation.transposition(3, 2, 2)


def test_images_must_be_bijection():
    with pytest.raises(PreconditionError):
        Permutation(3, (1, 1, 2))
    with pytest.raises(PreconditionError):
        Permutation(3, (1, 2))
    with pytest.raises(PreconditionError):
        Permutation(0, ())


def test_compose_is_left_to_right():
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    # apply t12 first: 1 -> 2 -> 3
    assert compose(t12, t23).images == (3, 1, 2)
    assert compose(t23, t12).images == (2, 3, 1)


def test_compose_degree_mismatch():
    with pytest.raises(PreconditionError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_inverse():
    p = Permutation(4, (3, 1, 4, 2))
    assert compose(p, p.inverse()).is_identity()
    assert compose(p.inverse(), p).is_identity()


def test_transposition_product_matches_compose_fold():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(2, 9)
        m = rng.randint(0, 12)
        factors = []
        for _ in range(m):
            if rng.random() < 0.15:
                factors.append(None)
            else:
                a, b = rng.sample(range(1, n + 1), 2)
                factors.append((min(a, b), max(a, b)))
        fast = transposition_product(n, factors)
        slow = Permutation.identity(n)
        for f in factors:
            if f is not None:
                slow = compose(slow, Permutation.transposition(n, *f))
        assert fast == slow


def test_transposition_product_empty_and_identity_factors():
    assert transposition_product(4, []).is_identity()
    assert transposition_product(4, [None, None]).is_identity()
    assert transposition_product(2, [(1, 2), (1, 2)]).is_identity()
