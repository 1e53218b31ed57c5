"""Arithmetic for permutations of the points {1, ..., n}.

Permutations are stored in image form: `images[i]` is the image of the point
i+1 (points are 1-based throughout, images are a tuple of length n).
Products are read left to right: in `transposition_product(n, [s, t])` the
transposition s is applied first, then t.  This matches the way
factorizations are written as ordered products of factors.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable

from .errors import PreconditionError

Pair = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in image form.

    >>> Permutation.transposition(3, 1, 2)
    Permutation(degree=3, images=(2, 1, 3))
    """

    degree: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise PreconditionError(f"degree must be >= 1, got {self.degree}")
        if len(self.images) != self.degree or sorted(self.images) != list(range(1, self.degree + 1)):
            raise PreconditionError(f"images {self.images!r} is not a bijection of 1..{self.degree}")

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(n, tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> Permutation:
        """The transposition exchanging the distinct points a and b."""
        if not (1 <= a <= n and 1 <= b <= n):
            raise PreconditionError(f"points ({a},{b}) out of range 1..{n}")
        if a == b:
            raise PreconditionError(f"a transposition needs two distinct points, got ({a},{b})")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return Permutation(n, tuple(images))


def product_images(n: int, factors: Iterable["Pair | None"]) -> list[int]:
    """Image array of the left-to-right product of transposition factors
    (None factors are the identity): entry x is the image of the point x,
    and entry 0 is 0.

    Maintains the running product's image and preimage arrays so each factor
    costs O(1); the whole product is O(n + number of factors).

    >>> product_images(3, [(1, 2), (2, 3)])
    [0, 3, 1, 2]
    """
    img = list(range(n + 1))   # img[x] = image of x under the product so far
    pre = list(range(n + 1))   # pre[y] = preimage of y
    for factor in factors:
        if factor is None:
            continue
        a, b = factor
        # appending (a,b) post-composes: only the preimages of a and b change
        xa, xb = pre[a], pre[b]
        img[xa], img[xb] = b, a
        pre[a], pre[b] = xb, xa
    return img


def transposition_product(n: int, factors: Iterable["Pair | None"]) -> Permutation:
    """Left-to-right product of transposition factors (None factors are the identity).

    >>> transposition_product(3, [(1, 2), (2, 3)]).images
    (3, 1, 2)
    >>> transposition_product(5, []) == Permutation.identity(5)
    True
    """
    return Permutation(n, tuple(product_images(n, factors)[1:]))
