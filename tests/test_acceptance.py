"""End-to-end acceptance gates.

One test per shipping criterion; each prints a single PASS line with its
headline numbers when it holds, and fails loudly otherwise.  Budgets are
asserted, not just reported.
"""

import functools
import random
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from hurwitz.braid import BraidTuple, BraidWord, braid_hurwitz_move, project_tuple
from hurwitz.canonical import canonical_form, hurwitz_equivalent
from hurwitz.cli import main
from hurwitz.factorization import (
    Direction,
    Factorization,
    HurwitzMove,
    apply_certificate,
    apply_move,
    parse_factorization,
)
from hurwitz.graph import signature
from hurwitz.oracle import enumerate_identity_factorizations, enumerate_orbit

F1 = parse_factorization("n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]")
F2 = parse_factorization("n=6; [(2,6),(1,5),(3,6),(3,6),(2,6),(1,5),(1,4),(1,4)]")
CANONICAL_6 = "n=6; [(1,4),(1,4),(4,5),(4,5),(2,3),(2,3),(3,6),(3,6)]"

_DIRECTIONS = (Direction.FORWARD, Direction.INVERSE)


def test_criterion_1_worked_example_under_10ms():
    def pipeline():
        s1, s2 = signature(F1), signature(F2)
        assert s1.components == (((1, 4, 5), 4), ((2, 3, 6), 4))
        assert s1 == s2
        assert hurwitz_equivalent(F1, F2)
        r1, r2 = canonical_form(F1), canonical_form(F2)
        assert r1.canonical == r2.canonical
        assert apply_certificate(F1, r1.certificate) == r1.canonical
        assert apply_certificate(F2, r2.certificate) == r2.canonical

    best = min(_timed(pipeline) for _ in range(5))
    assert best < 0.010
    print(f"PASS criterion 1: worked example reproduced in {best * 1e3:.2f} ms")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_orbits_match_signatures_at_desk_scale():
    matrix = [(2, 2), (2, 4), (3, 2), (3, 4), (3, 6), (4, 2), (4, 4)]
    t0 = time.perf_counter()
    checked = 0
    for n, m in matrix:
        assigned = {}
        orbit_sizes = []
        signatures_seen = set()
        total = 0
        for f in enumerate_identity_factorizations(n, m):
            total += 1
            if f.factors in assigned:
                continue
            report = enumerate_orbit(f, keep_members=True)
            assert not report.truncated
            # same orbit -> same signature, checked member by member
            member_sigs = {
                signature(Factorization(n, s)) for s in report.members
            }
            assert len(member_sigs) == 1, (n, m, f.factors)
            sig = member_sigs.pop()
            # same signature -> same orbit: a second orbit with a seen
            # signature would be a counterexample
            assert sig not in signatures_seen, (n, m, f.factors)
            signatures_seen.add(sig)
            orbit_sizes.append(report.orbit_size)
            for s in report.members:
                assigned[s] = f.factors
        assert sum(orbit_sizes) == total
        checked += total
        if (n, m) == (3, 4):
            assert total == 27
            assert len(signatures_seen) == 4
            assert sorted(orbit_sizes) == [1, 1, 1, 24]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 2: {checked} factorizations across {len(matrix)} "
        f"sizes, orbits = signature classes, in {elapsed:.1f} s"
    )


@functools.lru_cache(maxsize=1)
def _fuzz_corpus():
    """10,000 identity factorizations scrambled from canonical starts.

    Every single move is checked for the three invariants; violations are
    counted, not raised, so the reporting test owns the verdict.
    """
    rng = random.Random(0x5EED)
    corpus = []
    bad_signature = bad_product = bad_length = 0
    moves_applied = 0
    for _ in range(10_000):
        n = rng.randint(2, 8)
        factors = [None] * rng.randint(0, 2)
        verts = list(range(1, n + 1))
        rng.shuffle(verts)
        pos = 0
        blocks = []
        for _ in range(rng.randint(1, 2)):
            if n - pos < 2:
                break
            size = rng.randint(2, min(4, n - pos))
            blocks.append(sorted(verts[pos:pos + size]))
            pos += size
        blocks.sort()
        for block in blocks:
            for a, b in zip(block, block[1:]):
                factors += [(a, b), (a, b)]
            factors += [(block[0], block[1])] * (2 * rng.randint(0, 2))
        f = Factorization(n, factors)
        m = len(f)
        sig0 = signature(f)
        for _ in range(rng.randint(0, 200)):
            mv = HurwitzMove(rng.choice(_DIRECTIONS), rng.randrange(m - 1))
            f = apply_move(f, mv)
            moves_applied += 1
            if len(f) != m:
                bad_length += 1
            if signature(f) != sig0:
                bad_signature += 1
            if not f.is_identity_factorization():
                bad_product += 1
        corpus.append(f)
    return SimpleNamespace(
        corpus=corpus,
        moves_applied=moves_applied,
        bad_signature=bad_signature,
        bad_product=bad_product,
        bad_length=bad_length,
    )


def _traced_orbit(f, cap):
    """The orbit report and the traced peak of its search, in bytes."""
    tracemalloc.start()
    try:
        report = enumerate_orbit(f, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_criterion_2_orbit_states_stay_compact():
    # a palindromic n=6, m=200 seed: a state held 1,754 B as a tuple of codes
    rng = random.Random(0)
    word = [tuple(sorted(rng.sample(range(1, 7), 2))) for _ in range(100)]
    report, peak = _traced_orbit(Factorization(6, word + word[::-1]), 20_000)
    assert (report.orbit_size, report.truncated) == (20_000, True)
    long_bytes = peak / report.orbit_size
    assert long_bytes <= 600
    # the connected n=4, m=8 class: 143 B a state as a tuple of codes
    seed = [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4), (1, 2), (1, 2)]
    report, peak = _traced_orbit(Factorization(4, seed), 10**6)
    assert (report.orbit_size, report.truncated) == (131_040, False)
    short_bytes = peak / report.orbit_size
    assert short_bytes <= 110
    print(
        f"PASS criterion 2: orbit search peaks at {long_bytes:.0f} B a state "
        f"at m=200 and {short_bytes:.0f} B a state at m=8"
    )


def test_criterion_3_move_invariants_over_10k_scrambles():
    fuzz = _fuzz_corpus()
    assert len(fuzz.corpus) == 10_000
    assert fuzz.bad_signature == 0
    assert fuzz.bad_product == 0
    assert fuzz.bad_length == 0
    print(
        f"PASS criterion 3: {fuzz.moves_applied} moves over 10000 scrambles, "
        f"signature/product/length violations 0/0/0"
    )


def _assert_canonical_shape(canonical, original):
    """Independent statement of the shape rule, no library shortcuts."""
    sig = signature(original)
    factors = list(canonical.factors)
    e = sig.identity_factor_count
    assert all(x is None for x in factors[:e])
    rest = factors[e:]
    assert all(x is not None for x in rest)
    idx = 0
    for vertices, weight in sig.components:
        vs = list(vertices)
        expected = []
        for a, b in zip(vs, vs[1:]):
            expected += [(a, b), (a, b)]
        leftover = weight - 2 * (len(vs) - 1)
        assert leftover >= 0 and leftover % 2 == 0
        expected += [(vs[0], vs[1])] * leftover
        assert rest[idx:idx + len(expected)] == expected
        idx += len(expected)
    assert idx == len(rest)


def test_criterion_4_canonicalizer_sound_on_the_fuzz_corpus():
    fuzz = _fuzz_corpus()
    for f in fuzz.corpus:
        result = canonical_form(f)
        assert apply_certificate(f, result.certificate) == result.canonical
        _assert_canonical_shape(result.canonical, f)
        again = canonical_form(result.canonical)
        assert again.canonical == result.canonical
        assert again.certificate == ()
    print(
        "PASS criterion 4: 10000 canonicalizations replayed exactly, "
        "matched the shape rule, idempotent"
    )


def _random_projectable_word(rng, n):
    kind = rng.random()
    if kind < 0.15:
        return BraidWord(n, [])
    if kind < 0.30:
        half = [
            rng.choice([1, -1]) * rng.randint(1, n - 1)
            for _ in range(rng.randint(1, 4))
        ]
        return BraidWord(n, half + [-x for x in reversed(half)])
    conj = [
        rng.choice([1, -1]) * rng.randint(1, n - 1)
        for _ in range(rng.randint(0, 3))
    ]
    core = [rng.choice([1, -1]) * rng.randint(1, n - 1)]
    return BraidWord(n, conj + core + [-x for x in reversed(conj)])


def _word_permutation(word):
    """Reference image tuple of a braid word (entry i - 1 is the image of
    the point i): its letters' transpositions (|x|, |x|+1) applied left to
    right over all its degree."""
    return _fold(word.degree, [(abs(x), abs(x) + 1) for x in word.letters])


def _factor_permutation(factor, degree):
    return _fold(degree, [] if factor is None else [factor])


def _fold(n, transpositions):
    """Applying (a, b) after the product so far exchanges its images a and b:
    the values a and b trade places in the image list, found in O(1) through
    a where-is list."""
    images = list(range(1, n + 1))
    where = list(range(-1, n))  # where[v] is the index of the value v
    for a, b in transpositions:
        i, j = where[a], where[b]
        images[i], images[j] = b, a
        where[a], where[b] = j, i
    return tuple(images)


def test_criterion_5_projection_commutes_with_moves():
    # words grow multiplicatively under moves, so a per-trial letter budget
    # stops extending a trial that would blow past it; the square itself is
    # length-independent and every applied move is still checked
    budget = 100_000
    rng = random.Random(0xB1A1D)
    trials, moves_checked = 1000, 0
    for _ in range(trials):
        n = rng.randint(2, 5)
        m = rng.randint(2, 6)
        b = BraidTuple(n, [_random_projectable_word(rng, n) for _ in range(m)])
        f = project_tuple(b)
        for _ in range(rng.randint(1, 20)):
            k = rng.randrange(m - 1)
            mv = HurwitzMove(rng.choice(_DIRECTIONS), k)
            nxt = braid_hurwitz_move(b, mv)
            if sum(len(w) for w in nxt.words) > budget:
                break
            b, f = nxt, apply_move(f, mv)
            moves_checked += 1
            if sum(len(w) for w in b.words) <= 4000:
                assert project_tuple(b) == f
            else:
                for j in (k, k + 1):
                    assert _word_permutation(b.words[j]) == _factor_permutation(f[j], n)
        assert project_tuple(b) == f
    print(
        f"PASS criterion 5: projection commuted with {moves_checked} moves "
        f"over {trials} braid tuples"
    )


def test_criterion_6_signature_scales_to_a_million_factors():
    n, m = 10_000, 1_000_000
    rng = random.Random(0xFA57)
    factors = []
    for _ in range(m):
        a = rng.randint(1, n)
        b = rng.randint(1, n - 1)
        if b >= a:
            b += 1
        factors.append((a, b) if a < b else (b, a))
    f = Factorization(n, factors)
    best = min(_timed(lambda: signature(f)) for _ in range(3))
    assert best < 1.0
    # the component weights account for every factor of every edge
    edges = Counter(f.factors)
    assert sum(w for _, w in signature(f).components) == sum(edges.values()) == m
    print(
        f"PASS criterion 6: signature of m=10^6, n=10^4 in {best * 1e3:.0f} ms"
    )


def test_criterion_7_cli_golden_bytes_and_exit_codes(tmp_path, capsys):
    f1 = tmp_path / "f1.txt"
    f1.write_text("n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]")
    f2 = tmp_path / "f2.txt"
    f2.write_text("n=6; [(2,6),(1,5),(3,6),(3,6),(2,6),(1,5),(1,4),(1,4)]")
    other = tmp_path / "other.txt"
    other.write_text("n=6; [(1,2),(1,2),(1,2),(1,2),(1,2),(1,2),(1,2),(1,2)]")
    bad = tmp_path / "bad.txt"
    bad.write_text("n=6; [(1,2,")

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, _ = run("sig", str(f1))
    assert (code, out) == (0, "n=6; m=8; e=0; [{1,4,5}:4,{2,3,6}:4]\n")

    code, out, _ = run("canon", str(f1))
    assert (code, out) == (0, CANONICAL_6 + "\n")

    code, out, _ = run("dot", str(f1))
    assert code == 0
    assert out == (
        "graph factorization {\n"
        "  1;\n  2;\n  3;\n  4;\n  5;\n  6;\n"
        '  1 -- 4 [label="w=1"];\n'
        '  1 -- 5 [label="w=2"];\n'
        '  2 -- 3 [label="w=1"];\n'
        '  2 -- 6 [label="w=1"];\n'
        '  3 -- 6 [label="w=2"];\n'
        '  4 -- 5 [label="w=1"];\n'
        "}\n"
    )

    code, out, _ = run("equiv", str(f1), str(f2))
    assert (code, out) == (0, "EQUIVALENT\n")

    code, out, _ = run("equiv", str(f1), str(other))
    assert (code, out) == (1, "NOT EQUIVALENT\n")

    code, out, err = run("sig", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")

    print("PASS criterion 7: CLI outputs byte-stable, exit codes 0/1/2 honored")
