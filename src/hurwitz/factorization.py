"""Transposition factorizations and the Hurwitz move calculus.

A factorization of degree ``n`` is a finite sequence of factors, each either
a transposition ``(a, b)`` with ``1 <= a < b <= n`` or the identity (written
``e`` in text form).  The product is taken left to right.  The public form of
a factor spells the identity ``None``; inside the package a factor is an
endpoint pair, the identity ``(0, 0)``, which is what a Factorization stores.

The two elementary rewrites are indexed by the left slot of the pair they
touch (0-based):

* forward at ``k``:   ``..., s, t, ...  ->  ..., s t s^-1, s, ...``
* inverse at ``k``:   ``..., s, t, ...  ->  ..., t, t^-1 s t, ...``

Both preserve the left-to-right product.  Conjugating a transposition by a
transposition yields a transposition, and conjugating by or against the
identity changes nothing, so the factor alphabet is closed under both moves.

``_replay`` is the one move kernel: it applies moves to a list of endpoint
pairs in place, and every move in the package, single or in a run, goes
through it.
``product_images`` is the one product kernel: a product is an image list,
entry ``x`` the image of the point ``x``, built from the factors last first
with one swap each and no inverse.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from itertools import compress, count
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .errors import FormatError, MoveRangeError, PreconditionError

# A factor: a normalized transposition (a < b) or None for the identity.
Factor = Optional[tuple[int, int]]
# A factor inside the package: a normalized transposition or (0, 0).
_Pair = tuple[int, int]

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


def product_images(n: int, pairs_last_first: Iterable[_Pair]) -> list[int]:
    """Image list of the left-to-right product of endpoint pairs, given
    last pair first: entry x is the image of the point x, and entry 0 is 0.

    Putting a factor ``(a, b)`` in front of a product swaps the images of
    a and b, so the list starts as the identity and each factor, last
    first, costs one swap: O(n + number of factors), and no inverse is
    built.  The identity ``(0, 0)`` swaps entry 0 with itself.

    >>> product_images(3, reversed([(1, 2), (2, 3)]))
    [0, 3, 1, 2]
    """
    img = list(range(n + 1))
    # each pair is unpacked and released, so a zip of endpoint arrays
    # reuses one result tuple
    for a, b in pairs_last_first:
        img[a], img[b] = img[b], img[a]
    return img


class Factorization:
    """An immutable factor sequence over the points ``1..degree``.

    The factors are stored once, in two parallel ``array('i')`` of
    endpoints and nothing else: factor k is ``(lo[k], hi[k])`` with
    ``lo[k] < hi[k]``, and an identity is ``0, 0``.  That is 8 bytes a
    factor; a tuple a factor would take about 64.  The package reads the
    arrays, or their pairs as a list through ``_pairs``.

    ``factors`` is the public form, built on each access, as iteration and
    slicing are: a tuple of normalized transpositions (smaller entry first)
    and ``None`` for the identity.  Two factorizations are equal when their
    degrees and factors are.

    A degree outside ``1..MAX_DEGREE``, or a factor that is not ``None`` or
    a pair of distinct int points in range, raises PreconditionError.
    """

    __slots__ = ("degree", "_lo", "_hi")

    degree: int

    def __init__(self, degree: int, factors: Iterable[Factor]):
        _require_int(degree, "degree must be a positive int", 1)
        _require_int(
            degree, f"degree must be at most {MAX_DEGREE}", 1, MAX_DEGREE
        )
        lo, hi = array("i"), array("i")
        append_lo, append_hi = lo.append, hi.append
        for f in _require_iterable(factors, "factors"):
            a, b = normalize_factor(f, degree) or (0, 0)
            append_lo(a)
            append_hi(b)
        _fill(self, degree, lo, hi)

    @classmethod
    def _trusted(cls, degree: int, pairs: Sequence[_Pair]) -> "Factorization":
        """Wrap endpoint pairs already normalized and range-checked."""
        lo = array("i", [p[0] for p in pairs])
        return _fill(_new(cls), degree, lo, array("i", [p[1] for p in pairs]))

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors as a tuple, built from the arrays on each access."""
        return _as_factors(zip(self._lo, self._hi))

    def _pairs(self) -> list[_Pair]:
        """The endpoint pairs as a new list, zipped in C."""
        return list(zip(self._lo, self._hi))

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
        # an int in range reads the arrays; a slice or a bad index, the tuple
        if type(i) is int and -len(self._lo) <= i < len(self._lo):
            return (self._lo[i], self._hi[i]) if self._lo[i] else None
        return self.factors[i]

    def product(self) -> list[int]:
        """Image list of the left-to-right product (see product_images)."""
        return product_images(
            self.degree, zip(reversed(self._lo), reversed(self._hi))
        )

    def is_identity_factorization(self) -> bool:
        """True when the product is the identity permutation."""
        return self.product() == list(range(self.degree + 1))

    def __str__(self) -> str:
        return format_factorization(self)


def _fill(f: Factorization, degree: int, lo: array, hi: array) -> Factorization:
    """Set the fields of a new Factorization, from endpoint arrays already
    checked against ``degree``; return it."""
    _setattr(f, "degree", degree)
    _setattr(f, "_lo", lo)
    _setattr(f, "_hi", hi)
    return f


def _as_factors(pairs: Iterable[_Pair]) -> tuple[Factor, ...]:
    """The public factor tuple of endpoint pairs: ``(0, 0)`` as None."""
    return tuple([p if p[0] else None for p in pairs])


class Direction(Enum):
    """Orientation of an elementary move."""

    FORWARD = "F"
    INVERSE = "I"


# A move's attributes are set through these globals and _setattr: on Python
# 3.11, reading a member off an Enum class, or a method off ``object``, costs
# more.
_FORWARD = Direction.FORWARD
_INVERSE = Direction.INVERSE

# A slot past the end of every list: both slots of a move at a negative
# position.
_NO_SLOT = sys.maxsize


@dataclass(frozen=True)
class HurwitzMove:
    """An elementary move: direction plus the 0-based left slot it acts on.

    Instances are immutable and may be shared.  The package makes its moves
    through ``_move``: below slot 1,024 the process has one object per
    (direction, slot), made on first use, which the canonicalizer,
    ``parse_certificate`` and inversion all return; from slot 1,024 up each
    call shares its own, the canonicalizer one per (direction, slot),
    ``parse_certificate`` one per distinct line and ``invert_certificate``
    one per distinct move.  The constructor always makes a new object.
    Compare moves with ``==``, never ``is``.  The text form and the two
    slots the move kernel reads are built once, at construction, outside
    the fields, so ``==``, ``hash`` and ``repr`` see only direction and
    position.  A direction that is not a Direction, or a position that is
    not an int, raises PreconditionError.
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
        return _move(2 * self.position + (self.direction is _FORWARD))

    def __str__(self) -> str:
        return self._text


# The codes below which the process keeps one move each: slots 0..1,023 in
# both directions, a list of 16 KB, filled on first use, and at most about
# 0.45 MB of moves.
_SHARED_CODES = 2048
_SHARED_MOVES: list[Optional[HurwitzMove]] = [None] * _SHARED_CODES


def _move(code: int) -> HurwitzMove:
    """The move with code ``code``: 2k is forward at slot k, 2k + 1 inverse.

    For 0 <= code < _SHARED_CODES it is the process's one object for that
    code; any other code, a negative one included, gets a new object.
    Every move the package makes is made here.
    """
    shared = 0 <= code < _SHARED_CODES
    move = _SHARED_MOVES[code] if shared else None
    if move is None:
        move = HurwitzMove(_INVERSE if code & 1 else _FORWARD, code >> 1)
        if shared:
            _SHARED_MOVES[code] = move
    return move


# A replayable move sequence; positions are relative to the evolving
# factorization, standard replay semantics.
MoveCertificate = tuple[HurwitzMove, ...]


def _replay(pairs: list[_Pair], moves: Sequence[HurwitzMove]) -> None:
    """Apply ``moves`` to the endpoint pairs in place, left to right.

    Forward at k gives ``s t s^-1, s``; inverse gives ``t, t^-1 s t``.  This
    is the only code that applies a move.  Transpositions are involutions,
    so conjugating ``x`` by ``c`` fixes ``x`` when the two are equal or
    disjoint, and otherwise swaps the point they share for the other point
    of ``c``.  The identity ``(0, 0)`` shares no point with a transposition
    and equals itself, so conjugating by or against it changes nothing.  A
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
            c = pairs[i]
            x = pairs[j]
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
            pairs[i] = x
            pairs[j] = c
    except IndexError:
        # only the two reads index, so the move wrote nothing; the first
        # move equal to it is out of range too
        raise MoveRangeError(
            f"move {moves.index(move)} ({move}) out of range for "
            f"length {len(pairs)}"
        ) from None


def _reject_move(move: object) -> NoReturn:
    """Raise the PreconditionError for an item of a move sequence that is
    not a HurwitzMove."""
    raise PreconditionError(f"moves must be HurwitzMoves, got {move!r}")


# The one move `conjugate_factor` replays: forward at slot 0.
_CONJUGATE_MOVES = (_move(0),)


def conjugate_factor(s: _Pair, t: _Pair) -> _Pair:
    """Return ``s t s^-1`` as a normalized endpoint pair.

    >>> conjugate_factor((1, 2), (2, 3))
    (1, 3)
    >>> conjugate_factor((1, 2), (3, 4))
    (3, 4)
    >>> conjugate_factor((1, 2), (1, 2))
    (1, 2)
    """
    pair = [s, t]
    _replay(pair, _CONJUGATE_MOVES)
    return pair[0]


def apply_move(factorization: Factorization, move: HurwitzMove) -> Factorization:
    """Apply one elementary move, returning a new factorization.

    >>> f = Factorization(3, [(1, 2), (2, 3)])
    >>> apply_move(f, HurwitzMove(Direction.FORWARD, 0)).factors
    ((1, 3), (1, 2))
    >>> apply_move(f, HurwitzMove(Direction.INVERSE, 0)).factors
    ((2, 3), (1, 3))

    The move reaches two slots, so only their pairs are replayed, by the
    same move at slot 0, and written into copies of the endpoint arrays.
    Its errors are apply_certificate's for the one-move sequence.
    """
    _require_type(factorization, Factorization, "factorization")
    if type(move) is not HurwitzMove:
        _reject_move(move)
    k = move.position
    lo = factorization._lo
    if not 0 <= k < len(lo) - 1:
        raise MoveRangeError(f"move 0 ({move}) out of range for length {len(lo)}")
    lo = lo[:]
    hi = factorization._hi[:]
    pairs = [(lo[k], hi[k]), (lo[k + 1], hi[k + 1])]
    _replay(pairs, (_move(0 if move.direction is _FORWARD else 1),))
    (lo[k], hi[k]), (lo[k + 1], hi[k + 1]) = pairs
    return _fill(_new(Factorization), factorization.degree, lo, hi)


def apply_certificate(
    factorization: Factorization, moves: Sequence[HurwitzMove]
) -> Factorization:
    """Replay a move sequence left to right on a copy of the factors.

    The moves are replayed on the input's endpoint pairs, and the result's
    endpoint arrays are copies of the input's with only the slots the moves
    rewrote set again: the kernel stores a new pair object in a slot whose
    value it changes, so an identity test against the input's pairs finds
    them, in C.

    A move whose position falls outside the current length raises
    MoveRangeError naming the offending index within ``moves``; a move that
    is not a HurwitzMove raises PreconditionError.
    """
    _require_type(factorization, Factorization, "factorization")
    if not isinstance(moves, (list, tuple)):
        moves = list(_require_iterable(moves, "moves"))
    before = factorization._pairs()
    pairs = before[:]
    _replay(pairs, moves)
    lo = factorization._lo[:]
    hi = factorization._hi[:]
    for k in compress(count(), map(operator.is_not, pairs, before)):
        lo[k], hi[k] = pairs[k]
    return _fill(_new(Factorization), factorization.degree, lo, hi)


def invert_certificate(moves: Iterable[HurwitzMove]) -> MoveCertificate:
    """Reverse the sequence and flip each move's direction.

    Replaying the result undoes the original certificate exactly.  An item
    that is not a HurwitzMove raises PreconditionError naming it.  Equal
    moves share one inverse, so the result costs a slot a move.
    """
    inverses: dict[str, HurwitzMove] = {}
    result = []
    for move in reversed(list(_require_iterable(moves, "moves"))):
        if type(move) is not HurwitzMove:
            _reject_move(move)
        inverse = inverses.get(move._text)
        if inverse is None:
            inverse = inverses[move._text] = move.inverted()
        result.append(inverse)
    return tuple(result)


# Digit runs are length-checked before int(), which refuses runs longer than
# 4,300 digits.  Any number of leading zeros is allowed, and _TOKEN_RE,
# lstrip or the bulk path skips them, so only significant digits are
# converted.  A pattern never puts an unbounded zero run before an
# unbounded digit run: the two could split a run in quadratically many ways
# before a match fails.  A factor entry with more significant digits than
# the largest degree is out of range for every degree; a move position with
# more digits than sys.maxsize can address no list.
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


# An error message shows at most this many characters of the text it names,
# so its length does not grow with the input's.
_QUOTE_CHARS = 200


def _quote(text: str, form: Callable[[str], str] = repr) -> str:
    """``form(text)``; a longer text than _QUOTE_CHARS shows only its first
    _QUOTE_CHARS characters, followed by ``...``."""
    if len(text) <= _QUOTE_CHARS:
        return form(text)
    return form(text[:_QUOTE_CHARS]) + "..."


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
    is parsed in bulk by a pattern match and the JSON reader.  A list with
    whitespace, and any list the bulk checks refuse, is read token by
    token, and only that loop raises for a bad factor: a text gives the
    same factors, or the same FormatError message and position, whichever
    path reads it.

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
            f"unexpected trailing content {_quote(tail)}",
            position=len(text) - len(text[pos:].lstrip()),
        )
    return _fill(_new(Factorization), degree, lo, hi)


# The bulk path takes the list a chunk of about _CHUNK characters at a time,
# so its scratch stays small beside the endpoint arrays it fills.  An "e" is
# two characters and its scratch outweighs its 8 bytes of endpoints: a
# chunk's list of points holds two 8-byte slots a factor, and at 8K
# characters an all-identity list of 10^5 factors peaks at under 2 times
# the arrays.  parse_certificate reads its text in chunks of the same size:
# a line string of each move of the text would take about 50 bytes, the
# move itself 8.
_CHUNK = 1 << 13
# A point is a nonzero digit and at most MAX_DEGREE's other digits, so it
# is at least 1 and is a JSON number.  A padded point has up to 600 leading
# zeros before that, stripped before the JSON reader, which refuses them: a
# point matches in one way only, so a failed match backtracks in linear
# time.  A zero point, or a longer run of zeros, is left to the token loop.
_PLAIN_POINT = r"[1-9][0-9]{0,%d}" % (_DEGREE_DIGITS - 1)
_POINT = r"0{0,600}" + _PLAIN_POINT


def _list_re(point: str) -> re.Pattern[str]:
    """Factors "(a,b)", each point matching ``point``, or "e", joined by
    commas."""
    factor = r"(?:\(%s,%s\)|e)" % (point, point)
    return re.compile(r"%s(?:,%s)*" % (factor, factor))


_PLAIN_LIST_RE = _list_re(_PLAIN_POINT)
_PADDED_LIST_RE = _list_re(_POINT)
_LEADING_ZEROS_RE = re.compile(r"(?<=[(,])0+")
_NO_PARENS = str.maketrans("", "", "()")


def _parse_bulk(
    text: str, pos: int, degree: int
) -> Optional[tuple[array, array, int]]:
    """The endpoint arrays of a whitespace-free list from ``pos`` to the
    first ']' and the offset after it, or None where the token loop must
    decide.

    A chunk must match the list grammar, with or without leading zeros,
    before the standard library's JSON reader converts its points in C:
    each "e" is read as the points 0 and 1, so a pair passes ``x < y`` only
    when it is an ascending transposition or an "e".  None is returned,
    never an error raised, for whitespace, a pair not in ascending order, a
    point out of range or malformed, or a list without ']'.
    """
    # imported here: the import takes about 1.5 ms, which commands that
    # read no factor list need not pay
    import json

    close = text.find("]", pos)
    if close < 0:
        return None
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
        chunk = text[pos:cut]
        if not _PLAIN_LIST_RE.fullmatch(chunk):
            if not _PADDED_LIST_RE.fullmatch(chunk):
                return None
            chunk = _LEADING_ZEROS_RE.sub("", chunk)
        points = json.loads("[" + chunk.replace("e", "0,1").translate(_NO_PARENS) + "]")
        xs = points[0::2]
        ys = points[1::2]
        del points
        if max(ys) > degree or not all(map(operator.lt, xs, ys)):
            return None
        base = len(hi)
        lo.fromlist(xs)
        hi.fromlist(ys)
        slot = -1
        for _ in range(xs.count(0)):
            slot = xs.index(0, slot + 1)
            hi[base + slot] = 0
        if cut == close:
            return lo, hi, close + 1
        pos = cut + 1


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
        digits = [d.lstrip("0") or "0" for d in pair.groups()]
        if max(map(len, digits)) > _DEGREE_DIGITS:
            raise FormatError(
                f"factor entry out of range for degree {degree}", position=start
            )
        try:
            normalize_factor((int(digits[0]), int(digits[1])), degree)
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

    The text is read a chunk of about _CHUNK characters at a time, each cut
    right after a "\\n", so a "\\r\\n" is never split and the chunks' lines
    are the text's lines; a text without "\\n" is one chunk.  Only the
    move list, an 8-byte slot a line, and one entry per distinct line
    outlive a chunk.
    Certificates repeat their lines, so a table kept across the chunks
    strips each distinct raw line and reads it with _MOVE_RE once, in order
    of first occurrence: the first malformed line in the text raises
    FormatError naming its line number, at its first non-blank character.

    >>> [str(m) for m in parse_certificate("F@0\\n# comment\\nI@2\\n")]
    ['F@0', 'I@2']
    """
    _require_type(text, str, "text")
    table: dict[str, Optional[HurwitzMove]] = {}
    # one slot a "\n", allocated once and written over: a list grown by
    # appends is reallocated as it grows, and on glibc the blocks it left
    # behind kept a 2.5 million move replay 14 MB larger in some runs
    moves: list = [None] * text.count("\n")
    filled = 0
    start = lines_before = 0  # the chunk's offset and the lines before it
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        raw_lines = chunk.splitlines()
        for raw in dict.fromkeys(raw_lines):
            if raw in table:
                continue
            line = raw.strip()
            if not line or line.startswith("#"):
                table[raw] = None
                continue
            m = _MOVE_RE.match(line)
            if m and len(m[2].lstrip("0")) <= _POSITION_DIGITS:
                position = int(m[2].lstrip("0") or "0")
                table[raw] = _move(2 * position + (m[1] == "I"))
                continue
            i = raw_lines.index(raw)
            offset = start + sum(map(len, chunk.splitlines(keepends=True)[:i]))
            problem = f"malformed move {_quote(line)}" if not m else "move position out of range"
            raise FormatError(
                f"{problem} on line {lines_before + i + 1}",
                position=offset + len(raw) - len(raw.lstrip()),
            )
        # a move is always true, so the filter drops only the skipped lines
        part = list(filter(None, map(table.__getitem__, raw_lines)))
        moves[filled:filled + len(part)] = part
        filled += len(part)
        lines_before += len(raw_lines)
        start = end
    del moves[filled:]
    return moves


def format_certificate(moves: Iterable[HurwitzMove]) -> str:
    """One move per line; empty sequence renders as the empty string.

    An item that is not a HurwitzMove raises PreconditionError naming it.
    """
    return "\n".join([
        move._text if type(move) is HurwitzMove else _reject_move(move)
        for move in _require_iterable(moves, "moves")
    ])
