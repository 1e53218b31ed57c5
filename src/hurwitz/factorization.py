"""Transposition factorizations and the Hurwitz move calculus.

A factorization of degree ``n`` is a finite sequence of factors, each either
a transposition ``(a, b)`` with ``1 <= a < b <= n`` or the identity marker
``None`` (written ``e`` in text form).  The product is taken left to right.

The two elementary rewrites are indexed by the left slot of the pair they
touch (0-based):

* forward at ``k``:   ``..., s, t, ...  ->  ..., s t s^-1, s, ...``
* inverse at ``k``:   ``..., s, t, ...  ->  ..., t, t^-1 s t, ...``

Both preserve the left-to-right product.  Conjugating a transposition by a
transposition yields a transposition, and the identity marker conjugates to
whatever it is conjugated against, so the factor alphabet is closed under
both moves.

``_replay`` is the one move kernel: it applies moves to a factor list in
place, and every move in the package, single or in a run, goes through it.
``product_images`` is the one product kernel: a product is an image list,
entry ``x`` the image of the point ``x``.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Iterable, Iterator, NoReturn, Optional, Sequence

from .errors import FormatError, MoveRangeError, PreconditionError

# A factor: a normalized transposition (a < b) or None for the identity.
Factor = Optional[tuple[int, int]]

# The largest degree the package accepts, in the parsers and at construction:
# products, signatures and DOT output allocate arrays of size degree.
MAX_DEGREE = 10**6

# The default state cap of an orbit search, here so the CLI parser can use it
# without importing the oracle.
DEFAULT_CAP = 10**6

# Frozen objects are made and set up through these.
_new = object.__new__
_setattr = object.__setattr__


def _require_int(
    value: object, rule: str, low: int, high: float = float("inf")
) -> None:
    """Raise PreconditionError "<rule>, got <value>" unless ``value`` is an
    int (a bool is not) in ``low..high``."""
    if type(value) is not int or not low <= value <= high:
        raise PreconditionError(f"{rule}, got {value!r}")


def _require_type(value: object, cls: type, what: str) -> None:
    """Raise PreconditionError "<what> must be a <cls>, got <type>" unless
    ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise PreconditionError(
            f"{what} must be a {cls.__name__}, got {type(value).__name__}"
        )


def _require_iterable(values: Iterable, what: str) -> Iterable:
    """``values`` itself, so a tuple is not copied; PreconditionError if it
    is not iterable."""
    try:
        iter(values)
    except TypeError:
        raise PreconditionError(
            f"{what} must be iterable, got {type(values).__name__}"
        ) from None
    return values


def normalize_factor(factor: Factor, degree: int) -> Factor:
    """Validate a single factor against ``degree`` and order its entries.

    >>> normalize_factor((5, 2), 6)
    (2, 5)
    >>> normalize_factor(None, 6) is None
    True
    """
    if factor is None:
        return None
    try:
        a, b = factor
    except (TypeError, ValueError):
        a = b = None
    if type(a) is not int or type(b) is not int:
        raise PreconditionError(f"factor {factor!r} is not a pair of int points")
    if not (0 < a <= degree and 0 < b <= degree):
        raise PreconditionError(
            f"factor ({a},{b}) out of range for degree {degree}"
        )
    if a == b:
        raise PreconditionError(f"factor ({a},{b}) is not a transposition")
    return (a, b) if a < b else (b, a)


def product_images(n: int, factors: Iterable[Factor]) -> list[int]:
    """Image list of the left-to-right product of transposition factors
    (None factors are the identity): entry x is the image of the point x,
    and entry 0 is 0.

    Maintains the running product's preimage array, where appending a
    factor ``(a, b)`` swaps the preimages of a and b, so each factor costs
    O(1); the image list is its inverse, built in one pass at the end.  The
    whole product is O(n + number of factors).  A pair ``(0, 0)`` swaps
    entry 0 with itself, so endpoint arrays can be zipped in.

    >>> product_images(3, [(1, 2), (2, 3)])
    [0, 3, 1, 2]
    """
    pre = list(range(n + 1))   # pre[y] = preimage of y under the product so far
    # filter drops None in C, and each pair is unpacked and released, so a
    # zip of endpoint arrays reuses one result tuple
    for a, b in filter(None, factors):
        pre[a], pre[b] = pre[b], pre[a]
    img = pre[:]
    for y, x in enumerate(pre):
        img[x] = y
    return img


class Factorization:
    """An immutable factor sequence over the points ``1..degree``.

    The factors are stored once, in two parallel ``array('i')`` of
    endpoints: factor k is ``(lo[k], hi[k])`` with ``lo[k] < hi[k]``, and an
    identity is ``0, 0``.  That is 8 bytes a factor; a tuple a factor would
    take about 64.  ``len``, ``product``, ``signature``, ``to_dot`` and
    ``format_factorization`` read the arrays.

    ``factors`` is a read-only view of the same sequence: a tuple of
    normalized transpositions (smaller entry first) and ``None`` for the
    identity.  The parser builds it on first access and caches it; the
    constructor keeps the tuple it normalized as the view.  Two
    factorizations are equal when their degrees and factors are.

    A degree outside ``1..MAX_DEGREE``, or a factor that is not ``None`` or
    a pair of distinct int points in range, raises PreconditionError.
    """

    __slots__ = ("degree", "_lo", "_hi", "_view")

    degree: int

    def __init__(self, degree: int, factors: Iterable[Factor]):
        _require_int(degree, "degree must be a positive int", 1)
        _require_int(
            degree, f"degree must be at most {MAX_DEGREE}", 1, MAX_DEGREE
        )
        normalized = tuple(
            normalize_factor(f, degree)
            for f in _require_iterable(factors, "factors")
        )
        _fill(self, degree, *_endpoints(normalized), normalized)

    @classmethod
    def _trusted(cls, degree: int, factors: tuple[Factor, ...]) -> "Factorization":
        """Wrap factors that are already normalized and range-checked; the
        tuple is kept as the view."""
        return _fill(_new(cls), degree, *_endpoints(factors), factors)

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors as a tuple, built from the arrays on first access."""
        view = self._view
        if view is None:
            view = _as_factors(self._lo, self._hi)
            _setattr(self, "_view", view)
        return view

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.degree == other.degree
            and self._lo == other._lo
            and self._hi == other._hi
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._lo.tobytes(), self._hi.tobytes()))

    def __repr__(self) -> str:
        return f"Factorization(degree={self.degree!r}, factors={self.factors!r})"

    def __reduce__(self) -> tuple:
        return Factorization, (self.degree, self.factors)

    def __len__(self) -> int:
        return len(self._lo)

    def __iter__(self) -> Iterator[Factor]:
        return iter(self.factors)

    def __getitem__(self, i: int) -> Factor:
        return self.factors[i]

    def product(self) -> list[int]:
        """Image list of the left-to-right product (see product_images)."""
        return product_images(self.degree, zip(self._lo, self._hi))

    def is_identity_factorization(self) -> bool:
        """True when the product is the identity permutation."""
        return self.product() == list(range(self.degree + 1))

    def __str__(self) -> str:
        return format_factorization(self)


def _fill(
    f: Factorization, degree: int, lo: array, hi: array, view: Optional[tuple]
) -> Factorization:
    """Set the fields of a new Factorization, from endpoint arrays already
    checked against ``degree`` and, if built, their view; return it."""
    _setattr(f, "degree", degree)
    _setattr(f, "_lo", lo)
    _setattr(f, "_hi", hi)
    _setattr(f, "_view", view)
    return f


def _endpoints(factors: Sequence[Factor]) -> tuple[array, array]:
    """The endpoint arrays of normalized factors: ``0, 0`` for None."""
    return (
        array("i", [f[0] if f else 0 for f in factors]),
        array("i", [f[1] if f else 0 for f in factors]),
    )


def _as_factors(lo: array, hi: array) -> tuple[Factor, ...]:
    """The factor tuple of endpoint arrays: the pairs zipped, then each
    identity slot, found with ``index``, set to None."""
    factors: list[Factor] = list(zip(lo, hi))
    slot = -1
    for _ in range(lo.count(0)):
        slot = lo.index(0, slot + 1)
        factors[slot] = None
    return tuple(factors)


class Direction(Enum):
    """Orientation of an elementary move."""

    FORWARD = "F"
    INVERSE = "I"


# A move's attributes are set through this global and _setattr: on Python
# 3.11, reading a member off an Enum class, or a method off ``object``, costs
# more.
_FORWARD = Direction.FORWARD

# A slot past the end of every list: both slots of a move at a negative
# position.
_NO_SLOT = sys.maxsize


@dataclass(frozen=True)
class HurwitzMove:
    """An elementary move: direction plus the 0-based left slot it acts on.

    Instances are immutable and may be shared: the canonicalizer emits one
    object per (direction, slot) and ``parse_certificate`` one per distinct
    line.  Compare moves with ``==``, never ``is``.  The text form and the
    two slots the move kernel reads are built once, at construction,
    outside the fields, so ``==``, ``hash`` and ``repr`` see only direction
    and position.  A direction that is not a Direction, or a position that
    is not an int, raises PreconditionError.
    """

    direction: Direction
    position: int

    def __init__(self, direction: Direction, position: int):
        if type(direction) is not Direction or type(position) is not int:
            raise PreconditionError(
                f"a move is a Direction and an int position, got "
                f"{direction!r}, {position!r}"
            )
        # Set like the generated __init__ of a frozen dataclass: touching
        # self.__dict__ would build a dict per instance and slow every later
        # attribute read.  _value_ is a plain attribute; on Python 3.11 the
        # ``value`` property costs more than the rest.
        _setattr(self, "direction", direction)
        _setattr(self, "position", position)
        _setattr(self, "_text", f"{direction._value_}@{position}")
        # the slot of the conjugating factor c, where the conjugate lands,
        # and the slot of the conjugated factor x, as two ints: a tuple per
        # move raised the certify worker's peak RSS.  A negative position
        # gets a slot no list has, so the kernel's read fails as it should.
        if position < 0:
            c_slot = x_slot = _NO_SLOT
        elif direction is _FORWARD:
            c_slot, x_slot = position, position + 1
        else:
            c_slot, x_slot = position + 1, position
        _setattr(self, "_c_slot", c_slot)
        _setattr(self, "_x_slot", x_slot)

    def inverted(self) -> "HurwitzMove":
        flip = Direction.INVERSE if self.direction is Direction.FORWARD else Direction.FORWARD
        return HurwitzMove(flip, self.position)

    def __str__(self) -> str:
        return self._text


# A replayable move sequence; positions are relative to the evolving
# factorization, standard replay semantics.
MoveCertificate = tuple[HurwitzMove, ...]


def _replay(factors: list[Factor], moves: Sequence[HurwitzMove]) -> None:
    """Apply ``moves`` to ``factors`` in place, left to right.

    Forward at k gives ``s t s^-1, s``; inverse gives ``t, t^-1 s t``.  This
    is the only code that applies a move.  Transpositions are involutions,
    so conjugating ``x`` by ``c`` fixes ``x`` when the two are equal or
    disjoint, and otherwise swaps the point they share for the other point
    of ``c``; conjugating by or against the identity changes nothing.  A
    move whose position falls outside the list raises MoveRangeError naming
    its index within ``moves``; a move that is not a HurwitzMove raises
    PreconditionError naming it.  Moves before the bad one stay applied.
    """
    try:
        for move in moves:
            if type(move) is not HurwitzMove:
                _reject_move(move)
            # forward conjugates the right factor by the left, inverse the
            # left by the right, and the conjugate takes the other's slot
            i = move._c_slot
            j = move._x_slot
            c = factors[i]
            x = factors[j]
            if c is not None and x is not None:
                # c = (a, b) and x = (p, q) are ascending, so when they share
                # one point, only two of the four results need ordering
                a, b = c
                p, q = x
                if p == a:
                    if q != b:
                        x = (b, q) if b < q else (q, b)
                elif p == b:
                    x = (a, q)
                elif q == a:
                    x = (p, b)
                elif q == b:
                    x = (p, a) if p < a else (a, p)
            factors[i] = x
            factors[j] = c
    except IndexError:
        # only the two reads index, so the move wrote nothing; the first
        # move equal to it is out of range too
        raise MoveRangeError(
            f"move {moves.index(move)} ({move}) out of range for "
            f"length {len(factors)}"
        ) from None


def _reject_move(move: object) -> NoReturn:
    """Raise the PreconditionError for an item of a move sequence that is
    not a HurwitzMove."""
    raise PreconditionError(f"moves must be HurwitzMoves, got {move!r}")


_PAIR_MOVES = {
    True: (HurwitzMove(Direction.FORWARD, 0),),
    False: (HurwitzMove(Direction.INVERSE, 0),),
}


def move_pair(s: Factor, t: Factor, forward: bool) -> tuple[Factor, Factor]:
    """The pair that replaces the adjacent factors ``s, t`` under one move:
    the kernel run on the two slots."""
    pair = [s, t]
    _replay(pair, _PAIR_MOVES[forward])
    return pair[0], pair[1]


def conjugate_factor(s: Factor, t: Factor) -> Factor:
    """Return ``s t s^-1`` as a normalized factor.

    >>> conjugate_factor((1, 2), (2, 3))
    (1, 3)
    >>> conjugate_factor((1, 2), (3, 4))
    (3, 4)
    >>> conjugate_factor((1, 2), (1, 2))
    (1, 2)
    """
    return move_pair(s, t, True)[0]


def apply_move(factorization: Factorization, move: HurwitzMove) -> Factorization:
    """Apply one elementary move, returning a new factorization.

    >>> f = Factorization(3, [(1, 2), (2, 3)])
    >>> apply_move(f, HurwitzMove(Direction.FORWARD, 0)).factors
    ((1, 3), (1, 2))
    >>> apply_move(f, HurwitzMove(Direction.INVERSE, 0)).factors
    ((2, 3), (1, 3))
    """
    return apply_certificate(factorization, (move,))


def apply_certificate(
    factorization: Factorization, moves: Sequence[HurwitzMove]
) -> Factorization:
    """Replay a move sequence left to right on a copy of the factors.

    A move whose position falls outside the current length raises
    MoveRangeError naming the offending index within ``moves``; a move that
    is not a HurwitzMove raises PreconditionError.
    """
    _require_type(factorization, Factorization, "factorization")
    if not isinstance(moves, (list, tuple)):
        moves = list(_require_iterable(moves, "moves"))
    factors = list(factorization.factors)
    _replay(factors, moves)
    return Factorization._trusted(factorization.degree, tuple(factors))


def invert_certificate(moves: Iterable[HurwitzMove]) -> MoveCertificate:
    """Reverse the sequence and flip each move's direction.

    Replaying the result undoes the original certificate exactly.  An item
    that is not a HurwitzMove raises PreconditionError naming it.
    """
    return tuple([
        move.inverted() if type(move) is HurwitzMove else _reject_move(move)
        for move in reversed(list(_require_iterable(moves, "moves")))
    ])


# Digit runs are length-checked before int(), which refuses runs longer than
# 4,300 digits.  A factor entry with more significant digits than the largest
# degree is out of range for every degree; a move position with more digits
# than sys.maxsize can address no list.
_DEGREE_DIGITS = len(str(MAX_DEGREE))
_POSITION_DIGITS = len(str(sys.maxsize))


def _parse_degree(match: re.Match[str]) -> int:
    """The degree in group 1 of a header match; FormatError outside
    1..MAX_DEGREE, at the degree token."""
    digits = match.group(1).lstrip("0")
    if not digits or len(digits) > _DEGREE_DIGITS or int(digits) > MAX_DEGREE:
        raise FormatError(
            f"degree must be in 1..{MAX_DEGREE}", position=match.start(1)
        )
    return int(digits)


# Text form: "n=6; [(2,6),(1,4),e,(4,5)]".  Whitespace is insignificant
# everywhere outside tokens; the factor list may be empty, which group 2 of
# the header matches.  Numbers are ASCII digits: ``\d`` in a str pattern and
# int() would also take other Unicode digits, and int() underscores.

_HEADER_RE = re.compile(r"\s*n\s*=\s*([0-9]+)\s*;\s*\[(\s*\])?")
# One factor and the separator after it.  Leading zeros are skipped, so a
# point has at most as many digits as MAX_DEGREE; a longer entry is left to
# _reject_factor.
_TOKEN_RE = re.compile(
    r"\s*(?:\(\s*0*([0-9]{1,%d})\s*,\s*0*([0-9]{1,%d})\s*\)|e)\s*([,\]])"
    % (_DEGREE_DIGITS, _DEGREE_DIGITS)
)


def parse_factorization(text: str) -> Factorization:
    """Parse the textual factorization form.

    A factor list without whitespace, the form format_factorization writes,
    is parsed in bulk by string methods.  A list with whitespace, and any
    list the bulk checks refuse, is read token by token, and only that loop
    raises for a bad factor: a text gives the same factors, or the same
    FormatError message and position, whichever path reads it.

    >>> parse_factorization("n=3; [(1,2), e, (3,1)]").factors
    ((1, 2), None, (1, 3))
    """
    _require_type(text, str, "text")
    header = _HEADER_RE.match(text)
    if not header:
        raise FormatError(
            "expected factorization of the form 'n=<int>; [...]'", position=0
        )
    degree = _parse_degree(header)
    pos = header.end()
    lo, hi = array("i"), array("i")
    if header.group(2) is None:
        lo, hi, pos = _parse_bulk(text, pos, degree) or _parse_tokens(
            text, pos, degree
        )
    tail = text[pos:].strip()
    if tail:
        raise FormatError(
            f"unexpected trailing content {tail!r}",
            position=len(text) - len(text[pos:].lstrip()),
        )
    return _fill(_new(Factorization), degree, lo, hi, None)


# The bulk path takes the list a chunk of about _CHUNK characters at a time,
# so its scratch lists stay small beside the endpoint arrays it fills.  An
# "e" is two characters and its scratch outweighs its 8 bytes of endpoints:
# at 16K characters an all-identity list of 10^5 factors peaks at under 2
# times the arrays.
_CHUNK = 1 << 14
# Distinct left fields "(a" and right fields "b)", joined by commas.  A
# point is leading zeros, then a nonzero digit and at most MAX_DEGREE's
# other digits: a field matches in one way only, so a failed match
# backtracks in linear time, and a point is at least 1.  A zero point is
# out of range for every degree and is left to the token loop.
_POINT = r"0*[1-9][0-9]{0,%d}" % (_DEGREE_DIGITS - 1)
_LEFT_FIELDS_RE = re.compile(r"\(%s(?:,\(%s)*" % (_POINT, _POINT))
_RIGHT_FIELDS_RE = re.compile(r"%s\)(?:,%s\))*" % (_POINT, _POINT))
_NO_PARENS = str.maketrans("", "", "()")


def _parse_bulk(
    text: str, pos: int, degree: int
) -> Optional[tuple[array, array, int]]:
    """The endpoint arrays of a whitespace-free list from ``pos`` to the
    first ']' and the offset after it, or None where the token loop must
    decide.

    Every factor of a chunk becomes two comma-separated fields, "(a" and
    "b)", or "e" and "e" once each "e" is doubled.  Each distinct field is
    checked and converted once per call, into a table of its point: 0 for a
    left "e" and 1 for a right one, so a pair passes ``x < y`` only when it
    is an ascending transposition in range or "e", "e".  None is returned,
    never an error raised, for whitespace, a pair not in ascending order, a
    field out of range or malformed, or a list without ']'.
    """
    close = text.find("]", pos)
    if close < 0:
        return None
    left = {"e": 0}
    right = {"e": 1}
    lo, hi = array("i"), array("i")
    while True:
        # cut at a comma after ')' or 'e': a pair has one comma inside it
        cut = text.find(",", pos + _CHUNK, close)
        if cut >= 0 and text[cut - 1] not in ")e":
            cut = text.find(",", cut + 1, close)
            if cut >= 0 and text[cut - 1] not in ")e":
                return None
        if cut < 0:
            cut = close
        fields = text[pos:cut].replace("e", "e,e").split(",")
        xs = fields[0::2]
        ys = fields[1::2]
        del fields
        if not (
            len(xs) == len(ys)
            and _add_fields(left, xs, _LEFT_FIELDS_RE, degree)
            and _add_fields(right, ys, _RIGHT_FIELDS_RE, degree)
        ):
            return None
        xv = list(map(left.__getitem__, xs))
        yv = list(map(right.__getitem__, ys))
        # a right "e" passes only after a left "e", so equal counts pair them
        identities = xs.count("e")
        if not all(map(operator.lt, xv, yv)) or ys.count("e") != identities:
            return None
        base = len(hi)
        lo.fromlist(xv)
        hi.fromlist(yv)
        slot = -1
        for _ in range(identities):
            slot = xs.index("e", slot + 1)
            hi[base + slot] = 0
        if cut == close:
            return lo, hi, close + 1
        pos = cut + 1


def _add_fields(
    table: dict[str, int],
    fields: list[str],
    pattern: re.Pattern[str],
    degree: int,
) -> bool:
    """Enter the fields not yet in ``table`` with their points; False if one
    does not match ``pattern`` or its point is above ``degree``."""
    new = list(set(fields).difference(table))
    if not new:
        return True
    joined = ",".join(new)
    if not pattern.fullmatch(joined):
        return False
    points = list(map(int, joined.translate(_NO_PARENS).split(",")))
    if max(points) > degree:
        return False
    table.update(zip(new, points))
    return True


def _parse_tokens(text: str, pos: int, degree: int) -> tuple[array, array, int]:
    """The endpoint arrays of the list from ``pos``, read with _TOKEN_RE,
    and the offset after its ']'; FormatError at the first bad factor."""
    # Each distinct digit string is converted and range-checked once, so
    # a factor costs two lookups; 0 marks a point out of range.
    points: dict[str, int] = {}
    get = points.get

    def point(digits: str) -> int:
        value = int(digits)
        if not 0 < value <= degree:
            return 0
        points[digits] = value
        return value

    match = _TOKEN_RE.match
    lo, hi = array("i"), array("i")
    append_lo, append_hi = lo.append, hi.append
    while True:
        token = match(text, pos)
        if token is None:
            _reject_factor(text, pos, degree)
        a, b, separator = token.groups()
        if a is None:
            x = y = 0
        else:
            x = get(a) or point(a)
            y = get(b) or point(b)
            if not (x and y and x != y):
                _reject_factor(text, pos, degree)
            if y < x:
                x, y = y, x
        append_lo(x)
        append_hi(y)
        pos = token.end()
        if separator == "]":
            return lo, hi, pos


def _reject_factor(text: str, pos: int, degree: int) -> NoReturn:
    """Raise the FormatError for the factor after '[' or ',' at ``pos`` that
    _TOKEN_RE refused or whose points failed their checks.

    The factor is read again piece by piece, so each kind of mistake gets
    its own message, at the offending character: the '(' of a bad pair, the
    separator that is missing, or the end of the text.
    """
    start = len(text) - len(text[pos:].lstrip())
    if start == len(text):
        raise FormatError("unterminated factor list", position=start)
    ch = text[start]
    if ch == "]":
        raise FormatError("trailing comma in factor list", position=start)
    if ch == "e":
        end = start + 1
    elif ch == "(":
        # a pair with digit runs of any length, counted before int()
        pair = re.compile(r"\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)").match(text, start)
        if not pair:
            raise FormatError("malformed transposition", position=start)
        if max(len(d.lstrip("0")) for d in pair.groups()) > _DEGREE_DIGITS:
            raise FormatError(
                f"factor entry out of range for degree {degree}", position=start
            )
        try:
            normalize_factor((int(pair.group(1)), int(pair.group(2))), degree)
        except PreconditionError as exc:
            raise FormatError(str(exc), position=start) from exc
        end = pair.end()
    else:
        raise FormatError(
            f"expected '(', 'e', or ']' but found {ch!r}", position=start
        )
    end = len(text) - len(text[end:].lstrip())
    if end == len(text):
        raise FormatError("unterminated factor list", position=end)
    raise FormatError(f"expected ',' or ']' but found {text[end]!r}", position=end)


def format_factorization(factorization: Factorization) -> str:
    """Render the canonical text form, inverse to parse_factorization.

    >>> format_factorization(Factorization(3, [(1, 2), None, (1, 3)]))
    'n=3; [(1,2),e,(1,3)]'
    """
    _require_type(factorization, Factorization, "factorization")
    parts = [
        f"({a},{b})" if a else "e"
        for a, b in zip(factorization._lo, factorization._hi)
    ]
    return f"n={factorization.degree}; [{','.join(parts)}]"


_MOVE_RE = re.compile(r"([FI])\s*@\s*([0-9]+)$")


def parse_certificate(text: str) -> list[HurwitzMove]:
    """Parse a certificate: one move per line, blank lines and '#' comments
    are skipped.

    Certificates repeat their lines, so each distinct raw line is stripped
    and read with _MOVE_RE once, in order of first occurrence: the first
    malformed line in the text raises FormatError at its first non-blank
    character.

    >>> [str(m) for m in parse_certificate("F@0\\n# comment\\nI@2\\n")]
    ['F@0', 'I@2']
    """
    _require_type(text, str, "text")
    raw_lines = text.splitlines()
    table: dict[str, Optional[HurwitzMove]] = dict.fromkeys(raw_lines)
    for raw in table:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _MOVE_RE.match(line)
        if m and len(m[2].lstrip("0")) <= _POSITION_DIGITS:
            table[raw] = HurwitzMove(Direction(m[1]), int(m[2]))
            continue
        i = raw_lines.index(raw)
        start = sum(map(len, text.splitlines(keepends=True)[:i]))
        problem = f"malformed move {line!r}" if not m else "move position out of range"
        raise FormatError(
            f"{problem} on line {i + 1}",
            position=start + len(raw) - len(raw.lstrip()),
        )
    # a move is always true, so the filter drops only the skipped lines
    return list(filter(None, map(table.__getitem__, raw_lines)))


def format_certificate(moves: Iterable[HurwitzMove]) -> str:
    """One move per line; empty sequence renders as the empty string.

    An item that is not a HurwitzMove raises PreconditionError naming it.
    """
    return "\n".join([
        move._text if type(move) is HurwitzMove else _reject_move(move)
        for move in _require_iterable(moves, "moves")
    ])
