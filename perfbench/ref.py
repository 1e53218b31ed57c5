"""Reference arithmetic the benchmark trusts instead of the package.

Nothing here imports ``hurwitz``.  The generator uses these functions to
build inputs and their expected answers, and the checker uses them to judge
the package's responses, so a change to the package can change neither the
inputs nor the verdicts.  Each function states its rule directly, without
the package's shortcuts.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import cache
from itertools import chain
from math import comb, factorial

# -- factorization text -------------------------------------------------------

_FACTORIZATION_RE = re.compile(r"n=(\d+); \[(.*)\]")
_ITEM_RE = re.compile(r"e|\((\d+),(\d+)\)")


def format_factorization(n, factors):
    """The package's canonical text form: ``n=3; [(1,2),e,(1,3)]``."""
    items = ["e" if f is None else "(%d,%d)" % f for f in factors]
    return f"n={n}; [{','.join(items)}]"


def parse_factorization(text):
    """Parse the canonical text form (no optional whitespace) into (n, factors).

    Raises ValueError on anything else, so a malformed response is caught.
    """
    match = _FACTORIZATION_RE.fullmatch(text.strip())
    if not match:
        raise ValueError("not a factorization in canonical text form")
    n, body = int(match.group(1)), match.group(2)
    factors = []
    if body:
        for token in re.split(r",(?=[e(])", body):
            tm = _ITEM_RE.fullmatch(token)
            if not tm:
                raise ValueError(f"bad factor {token!r}")
            if token == "e":
                factors.append(None)
            else:
                a, b = int(tm.group(1)), int(tm.group(2))
                if not 1 <= a < b <= n:
                    raise ValueError(f"factor {token} is not normalized for n={n}")
                factors.append((a, b))
    return n, factors


# -- the move rule ------------------------------------------------------------


def conjugate(s, t):
    """The factor s t s^-1: relabel t's points through the transposition s."""
    if s is None or t is None:
        return t
    swap = {s[0]: s[1], s[1]: s[0]}
    c, d = swap.get(t[0], t[0]), swap.get(t[1], t[1])
    return (min(c, d), max(c, d))


def apply_move(factors, direction, k):
    """Apply ``F@k`` or ``I@k`` in place on a list of factors."""
    s, t = factors[k], factors[k + 1]
    if direction == "F":
        factors[k], factors[k + 1] = conjugate(s, t), s
    else:
        factors[k], factors[k + 1] = t, conjugate(t, s)


def parse_moves(text):
    """Certificate lines ``F@3`` / ``I@0`` into (direction, position) pairs."""
    moves = []
    for line in text.splitlines():
        if not line:
            continue
        if line[0] not in "FI" or line[1] != "@" or not line[2:].isdigit():
            raise ValueError(f"bad move line {line!r}")
        moves.append((line[0], int(line[2:])))
    return moves


def replay(factors, moves):
    """Replay moves over a copy of factors; raises ValueError if one is out of range."""
    out = list(factors)
    for direction, k in moves:
        if not 0 <= k < len(out) - 1:
            raise ValueError(f"move {direction}@{k} out of range for length {len(out)}")
        apply_move(out, direction, k)
    return out


def is_identity_product(n, factors):
    return _product_images(n, factors) == list(range(n + 1))


def _product_images(n, factors):
    """Image array of the left-to-right product; each factor costs O(1)
    because the preimage array says where a and b currently come from."""
    img = list(range(n + 1))
    pre = list(range(n + 1))
    for f in factors:
        if f is None:
            continue
        a, b = f
        xa, xb = pre[a], pre[b]
        img[xa], img[xb] = b, a
        pre[a], pre[b] = xb, xa
    return img


# -- the signature --------------------------------------------------------------


def signature(n, factors):
    """(m, e, components) with components sorted (vertex tuple, weight) pairs."""
    weights = Counter(factors)
    e = weights.pop(None, 0)
    parent = list(range(n + 1))
    for a, b in weights:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[max(a, b)] = min(a, b)
    # with min-root unions, the root of a component is its smallest vertex
    root = {}
    for v in sorted(set(chain.from_iterable(weights))):
        r = v
        while parent[r] != r:
            r = parent[r]
        root[v] = r
    totals = {}
    members = {}
    for v, r in root.items():
        members.setdefault(r, []).append(v)
    for (a, _), w in weights.items():
        r = root[a]
        totals[r] = totals.get(r, 0) + w
    components = [(tuple(members[r]), totals[r]) for r in sorted(totals)]
    return len(factors), e, components


def format_signature(n, sig):
    m, e, components = sig
    parts = ["{" + ",".join(map(str, vs)) + "}:" + str(w) for vs, w in components]
    return f"n={n}; m={m}; e={e}; [{','.join(parts)}]"


def canonical_shape(sig):
    """Identity factors, then per component the doubled ascending path and
    the leftover copies of its first edge."""
    _, e, components = sig
    out = [None] * e
    for vs, w in components:
        for a, b in zip(vs, vs[1:]):
            out += [(a, b), (a, b)]
        leftover = w - 2 * (len(vs) - 1)
        if leftover < 0 or leftover % 2:
            raise ValueError(f"component {vs} with weight {w} has no identity shape")
        out += [(vs[0], vs[1])] * leftover
    return out


# -- exact counting -------------------------------------------------------------


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _dimension(shape):
    """Standard Young tableaux of this shape, by the hook length formula."""
    n = sum(shape)
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (columns[j] - i - 1) + 1
    return factorial(n) // hooks


@cache
def identity_tuples(n, w):
    """w-tuples of transpositions of S_n with identity product (Frobenius)."""
    if n == 0:
        return 1 if w == 0 else 0
    total = 0
    for shape in _partitions(n):
        content = sum(j - i for i, row in enumerate(shape) for j in range(row))
        total += _dimension(shape) ** 2 * content**w
    return total // factorial(n)


@cache
def connected_tuples(l, w):
    """Tuples counted by identity_tuples whose graph connects all l points.

    The component of point 1 takes l' points and w' of the w slots; what is
    left is any identity tuple on the other points.
    """
    total = identity_tuples(l, w)
    for lp in range(1, l + 1):
        for wp in range(0, w + 1):
            if (lp, wp) == (l, w):
                continue
            rest = identity_tuples(l - lp, w - wp)
            if rest:
                total -= comb(l - 1, lp - 1) * comb(w, wp) * connected_tuples(lp, wp) * rest
    return total


def class_size(sig):
    """Factorizations sharing this signature; by the theorem, its orbit size."""
    m, e, components = sig
    size = factorial(m) // factorial(e)
    for vs, w in components:
        size = size // factorial(w) * connected_tuples(len(vs), w)
    return size


def genus_zero_count(n):
    """Hurwitz: transitive factorizations of length 2n-2 in S_n number (2n-2)! n^(n-3)."""
    return factorial(2 * n - 2) * n ** (n - 3)


# -- braid words ------------------------------------------------------------------


def project_word(n, word):
    """The factor a word of generator indices maps to, or raise if none."""
    img = _product_images(n, [(abs(x), abs(x) + 1) for x in word])
    moved = [i for i in range(1, n + 1) if img[i] != i]
    if not moved:
        return None
    if len(moved) == 2:
        return tuple(moved)
    raise ValueError("word does not project to a transposition or the identity")


def invert_word(word):
    return [-x for x in reversed(word)]


def braid_move(words, direction, k):
    """The word-level move in place: F gives (u v u^-1, u), I gives (v, v^-1 u v)."""
    u, v = words[k], words[k + 1]
    if direction == "F":
        words[k], words[k + 1] = u + v + invert_word(u), u
    else:
        words[k], words[k + 1] = v, invert_word(v) + u + v


def format_braid_tuple(n, words):
    return f"n={n}; [{' | '.join(' '.join(map(str, w)) for w in words)}]"


# -- host speed calibration -------------------------------------------------------

def _calibration_text():
    factors = []
    for i in range(400):
        a = 1 + 7 * i % 199
        factors.append((a, min(200, a + 1 + i % 13)))
    return format_factorization(200, factors)


_CALIBRATION_TEXT = _calibration_text()


def calibration_work():
    """A fixed piece of interpreter work like the package's own (parse a
    text, hash tuples, union-find), timed next to every request so that
    latencies can be scaled to a fixed host speed."""
    n, factors = parse_factorization(_CALIBRATION_TEXT)
    return signature(n, factors)
