import random

import pytest

from hurwitz.errors import PreconditionError
from hurwitz.perm import Permutation, transposition_product


def compose(p, q):
    """Reference left-to-right product of two permutations: p first, then q."""
    return Permutation(p.degree, tuple(q.images[i - 1] for i in p.images))


def test_identity():
    assert Permutation.identity(4).images == (1, 2, 3, 4)


def test_transposition():
    t = Permutation.transposition(5, 2, 4)
    assert t.images == (1, 4, 3, 2, 5)
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
    # apply (1,2) first: 1 -> 2 -> 3
    assert transposition_product(3, [(1, 2), (2, 3)]).images == (3, 1, 2)
    assert transposition_product(3, [(2, 3), (1, 2)]).images == (2, 3, 1)


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
    assert transposition_product(4, []) == Permutation.identity(4)
    assert transposition_product(4, [None, None]) == Permutation.identity(4)
    assert transposition_product(2, [(1, 2), (1, 2)]) == Permutation.identity(2)
