"""Seeded inputs for the benchmark, with their expected answers.

    python3 perfbench/gen.py --workload decide --seed 1 --out DIR

writes one text file per input into DIR and ``DIR/manifest.json``.  The
manifest lists every request with its files, its properties (m, n,
distinct-edge ratio, components, shape) and the answer the program must
give, plus why the workload exists and a SHA-256 of all input bytes.

This module never imports ``hurwitz``: moves, products and signatures come
from ``ref``, so a change to the package cannot change the inputs.  The same
workload and seed always give the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
from pathlib import Path

import ref

WORKLOADS = {
    "decide": (
        "sig and equiv at m 10^3..10^5 plus one 10^6 sig: parse, product and "
        "signature are the whole cost; the control for canonical and oracle changes, "
        "which move only its coverage-set cert_moves_per_factor"
    ),
    "certify": (
        "canon --cert then replay at m 16..400 in dense, tree and multi shapes: "
        "the only workload that runs canonical_form and parses certificates"
    ),
    "validate": (
        "orbit BFS capped at 20000, census and braid projection checks: "
        "exercises oracle and braid and many tiny signatures, no canonical work"
    ),
}

ORBIT_CAP = 20_000
CENSUS_SIZES = [(3, 4), (3, 6), (4, 4), (5, 4), (3, 8), (4, 6)]
DECIDE_DEGREE = 10_000
DECIDE_BASES = 50          # each base gives one sig and one equiv request
BIG_M = 1_000_000
CERTIFY_REQUESTS = 100
BRAID_CHECKS = 64
COVERAGE_CERTIFY = 72
BRAID_MOVES = 12
BRAID_LETTER_BUDGET = 2_000


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _size_grid(count, lo, hi):
    """Even sizes spaced evenly in log scale from lo to hi, ascending.

    The grid is the same for every seed, so seeds differ in content and not
    in the size mix that sets the percentiles and the throughput.
    """
    sizes = []
    for i in range(count):
        m = round(math.exp(math.log(lo) + i / (count - 1) * (math.log(hi) - math.log(lo))))
        sizes.append(m + m % 2)
    return sizes


def _scramble(rng, factors, moves):
    for _ in range(moves):
        ref.apply_move(factors, rng.choice("FI"), rng.randrange(len(factors) - 1))


def _properties(n, factors, shape):
    sig = ref.signature(n, factors)
    transpositions = len(factors) - sig[1]
    distinct = len({f for f in factors if f is not None})
    props = {
        "n": n,
        "m": len(factors),
        "e": sig[1],
        "components": len(sig[2]),
        "distinct_edge_ratio": round(distinct / transpositions, 4) if transpositions else 0.0,
        "shape": shape,
    }
    return sig, props


# -- decide -------------------------------------------------------------------


def _identity_chunk(s, pairs):
    """The local pairs (on points 0..s-1) followed by a minimal factorization
    of the inverse of their product, so the chunk multiplies to the identity."""
    img = list(range(s))
    pre = list(range(s))
    out = []

    def append(i, j):
        out.append((i, j) if i < j else (j, i))
        xa, xb = pre[i], pre[j]
        img[xa], img[xb] = j, i
        pre[i], pre[j] = xb, xa

    for i, j in pairs:
        append(i, j)
    for x in range(s):
        if img[x] != x:
            append(img[x], x)
    return out


def _chunk_templates(rng, s, distinct):
    """Identity chunks on local points 0..s-1.

    distinct: the prefix is a random spanning tree, kept only when no edge
    repeats in the whole chunk.  Otherwise: 2..6 random transpositions.
    """
    templates = []
    while len(templates) < 128:
        if distinct:
            order = rng.sample(range(s), s)
            pairs = [(order[i], order[rng.randrange(i)]) for i in range(1, s)]
        else:
            pairs = [tuple(rng.sample(range(s), 2)) for _ in range(rng.randint(2, 6))]
        chunk = _identity_chunk(s, pairs)
        if not distinct or len(set(chunk)) == len(chunk):
            templates.append(chunk)
    return templates


def _decide_chunks(rng, templates, transpositions, shape):
    """Identity chunks adding up to exactly `transpositions` factors.

    sparse: each chunk on 10 random points of 1..n with no repeated edge, so
    almost every edge is distinct and the graph is one large component.
    blocky: each chunk inside one of a few hundred blocks of 3..8 points, so
    edges repeat and there are many components.  Chunks are templates on
    local points 0..s-1 relabelled in order, which keeps generation fast.
    The first chunk is a doubled pair, which the inequivalent variant
    rewrites.  `templates` caches the templates across calls.
    """
    n = DECIDE_DEGREE
    draw = rng.random

    def template(s):
        key = (s, shape)
        if key not in templates:
            templates[key] = _chunk_templates(rng, s, shape == "sparse")
        return templates[key][int(draw() * len(templates[key]))]

    if shape == "blocky":
        points = rng.sample(range(1, n + 1), n // 2)
        blocks = []
        count = rng.randint(200, 500)
        while len(blocks) < count:
            size = rng.randint(3, 8)
            blocks.append(sorted(points[:size]))
            points = points[size:]
    a, b = rng.sample(range(1, n + 1), 2)
    chunks = [[_pair(a, b)] * 2]
    total = 2
    while transpositions - total > 40:
        if shape == "blocky":
            pts = blocks[int(draw() * len(blocks))]
        else:
            pts = sorted({int(draw() * n) + 1 for _ in range(10)})
            if len(pts) < 10:
                continue
        chunk = [(pts[i], pts[j]) for i, j in template(len(pts))]
        chunks.append(chunk)
        total += len(chunk)
    while total < transpositions:
        a, b = rng.sample(range(1, n + 1), 2)
        chunks.append([_pair(a, b)] * 2)
        total += 2
    return chunks


def _assemble(rng, chunks, identities):
    """Concatenate the chunks with identity factors at random slots."""
    flat = [f for chunk in chunks for f in chunk]
    slots = sorted(rng.sample(range(len(flat) + identities), identities))
    out = []
    for placed, slot in enumerate(slots):
        out += flat[len(out) - placed : slot - placed]
        out.append(None)
    out += flat[len(out) - len(slots) :]
    return out


def _decide_factors(rng, templates, m, shape):
    identities = round(0.05 * m)
    if (m - identities) % 2:
        identities += 1
    chunks = _decide_chunks(rng, templates, m - identities, shape)
    return chunks, identities


def _malformed(rng, text):
    """A text the parser must reject with FormatError."""
    cut = rng.choice(["truncate", "range", "token"])
    body = text.index("[") + 1
    if cut == "truncate":
        return text[: rng.randrange(body, len(text) - 1)], cut
    pos = text.index("(", body + rng.randrange(len(text) - body - 8))
    end = text.index(")", pos) + 1
    bad = f"(1,{DECIDE_DEGREE + 1})" if cut == "range" else "x"
    return text[:pos] + bad + text[end:], cut


def _build_decide(rng, files, requests):
    n = DECIDE_DEGREE
    templates = {}
    # along the size grid: shapes alternate, verdicts alternate in pairs, and
    # five of the hundred requests, spread over the sizes, are invalid
    sizes = _size_grid(DECIDE_BASES, 1_000, 100_000)
    shapes = ["sparse", "blocky"] * DECIDE_BASES
    verdicts = [(i // 2) % 2 for i in range(DECIDE_BASES)]
    invalid_sig = {i for i in range(DECIDE_BASES) if i % 18 == 5}
    invalid_equiv = {i for i in range(DECIDE_BASES) if i % 18 == 14}
    for i, m in enumerate(sizes):
        shape = shapes[i]
        chunks, identities = _decide_factors(rng, templates, m, shape)
        f1 = _assemble(rng, chunks, identities)
        sig1, props = _properties(n, f1, shape)
        name = f"d{i:03d}.txt"
        files[name] = ref.format_factorization(n, f1)

        if i in invalid_sig:
            bad, how = _malformed(rng, files[name])
            files[f"d{i:03d}x.txt"] = bad
            requests.append(dict(kind="sig", files=[f"d{i:03d}x.txt"], props=dict(props, invalid=how),
                                 expect={"error": "FormatError"}))
        else:
            requests.append(dict(kind="sig", files=[name], props=props,
                                 expect={"output": ref.format_signature(n, sig1)}))

        shuffled = chunks[1:]
        rng.shuffle(shuffled)
        shuffled.insert(rng.randrange(len(shuffled) + 1), list(chunks[0]))
        if i in invalid_equiv:
            f2 = list(f1)
            if i % 4 == 0:
                f2.append(None)
                how = "length"
            else:
                k = next(j for j, f in enumerate(f2) if f is not None)
                a, b = f2[k]
                c = b % n + 1
                f2[k] = _pair(a, c if c != a else c % n + 1)
                how = "product"
            expect = {"error": "PreconditionError"}
        else:
            how = None
            if verdicts[i] == 1:
                # the doubled pair (x,y)(x,y) becomes (x,z)(x,z) with z outside
                # x's component, or two identity factors
                pos = next(j for j, c in enumerate(shuffled) if len(c) == 2 and c[0] == c[1])
                x, y = shuffled[pos][0]
                comp = set(next(vs for vs, _ in sig1[2] if x in vs))
                outside = [v for v in range(1, n + 1) if v not in comp]
                if outside and rng.random() < 0.5:
                    shuffled[pos] = [_pair(x, rng.choice(outside))] * 2
                else:
                    shuffled[pos] = [None, None]
            f2 = _assemble(rng, shuffled, identities)
            # an unchanged multiset of factors keeps the signature, so only
            # the rewritten pairs need a second signature
            if verdicts[i]:
                assert ref.signature(n, f2) != sig1
            expect = {"exit": verdicts[i]}
        files[f"d{i:03d}b.txt"] = ref.format_factorization(n, f2)
        requests.append(dict(kind="equiv", files=[name, f"d{i:03d}b.txt"],
                             props=dict(props, invalid=how) if how else props, expect=expect))

    chunks, identities = _decide_factors(rng, templates, BIG_M, "sparse")
    big = _assemble(rng, chunks, identities)
    sig, props = _properties(n, big, "sparse")
    files["big.txt"] = ref.format_factorization(n, big)
    # the million-factor request runs in the first pass only: repeating it
    # would add about 40% to every later pass
    requests.append(dict(kind="sig", files=["big.txt"], props=props, once=True,
                         expect={"output": ref.format_signature(n, sig)}))


# -- certify ------------------------------------------------------------------


def _random_tree(rng, verts):
    return [_pair(verts[i], verts[rng.randrange(i)]) for i in range(1, len(verts))]


def _certify_factors(rng, scramble, m, shape, points):
    """An identity factorization of length m in the given shape, scrambled by
    4m random moves drawn from `scramble`; `points` is the degree of a
    dense input."""
    units = []
    if shape == "dense":
        n = points
        verts = rng.sample(range(1, n + 1), n)
        path = [_pair(a, b) for a, b in zip(verts, verts[1:])]
        units = [[e, e] for e in path]
        spare = rng.choice(path)
        units += [[spare, spare]] * ((m - 2 * (n - 1)) // 2)
    elif shape == "tree":
        l = m // 2 + 1
        n = l + rng.randint(0, 3)
        units = [[e, e] for e in _random_tree(rng, rng.sample(range(1, n + 1), l))]
    else:
        identities = 2 * round(0.05 * m)
        left = m - identities
        comps = []
        while left:
            l = min(rng.randint(2, 5), left // 2 + 1)
            extra = 2 if left - 2 * (l - 1) >= 2 and rng.random() < 0.3 else 0
            comps.append((l, extra))
            left -= 2 * (l - 1) + extra
        n = sum(l for l, _ in comps) + rng.randint(0, 2)
        labels = rng.sample(range(1, n + 1), n)
        units = [[None] for _ in range(identities)]
        for l, extra in comps:
            verts, labels = labels[:l], labels[l:]
            tree = _random_tree(rng, verts)
            units += [[e, e] for e in tree]
            if extra:
                spare = rng.choice(tree)
                units.append([spare, spare])
    rng.shuffle(units)
    factors = [f for unit in units for f in unit]
    assert len(factors) == m
    _scramble(scramble, factors, 4 * m)
    return n, factors


def _certify_request(scramble, files, name, i, m, shape, points):
    """The certify input at grid position i.  Its structure (labels, trees,
    components) depends on the position only and its scramble on the seed:
    a random structure moves the planner's cost by 15% or more, which would
    make the percentiles differ from seed to seed by as much."""
    structure = random.Random(f"certify-structure:{name}:{i}")
    n, factors = _certify_factors(structure, scramble, m, shape, points)
    sig, props = _properties(n, factors, shape)
    files[name] = ref.format_factorization(n, factors)
    canonical = ref.format_factorization(n, ref.canonical_shape(sig))
    return dict(kind="certify", files=[name], props=props, expect={"canonical": canonical})


def _build_certify(rng, files, requests):
    shapes = ("dense", "tree", "multi")
    for i, m in enumerate(_size_grid(CERTIFY_REQUESTS, 16, 400)):
        points = 3 + (i // 3) % 6  # dense degrees cycle through 3..8
        requests.append(_certify_request(rng, files, f"c{i:03d}.txt", i, m, shapes[i % 3], points))


# -- validate -----------------------------------------------------------------


def _identity_with_signature(rng, n, m, identities, components):
    """An identity factorization with the given signature shape: components
    as (points, weight) on random labels, each a doubled random tree plus
    doubled copies of one of its edges, scrambled by 4m random moves."""
    labels = rng.sample(range(1, n + 1), n)
    units = [[None] for _ in range(identities)]
    for l, w in components:
        verts, labels = labels[:l], labels[l:]
        tree = _random_tree(rng, verts)
        units += [[e, e] for e in tree]
        spare = rng.choice(tree)
        units += [[spare, spare]] * ((w - 2 * (l - 1)) // 2)
    rng.shuffle(units)
    factors = [f for unit in units for f in unit]
    assert len(factors) == m
    _scramble(rng, factors, 4 * m)
    return factors


def _orbit_request(files, name, n, factors):
    sig, props = _properties(n, factors, "orbit")
    size = ref.class_size(sig)
    genus_zero = sig[1] == 0 and len(sig[2]) == 1 and len(sig[2][0][0]) == n and len(factors) == 2 * n - 2
    if genus_zero:
        size = ref.genus_zero_count(n)
    files[name] = ref.format_factorization(n, factors)
    props.update(class_size=size, genus_zero=genus_zero)
    truncated = size > ORBIT_CAP
    output = f"size={min(size, ORBIT_CAP)}\ntruncated={'true' if truncated else 'false'}"
    return dict(kind="orbit", files=[name], args={"cap": ORBIT_CAP}, props=props,
                expect={"output": output})


# Orbit seeds as (n, m, identity factors, [(points, weight), ...]): ten per
# class-size bucket (<=100, <=2000, <=20000, truncated at the cap), the same
# for every seed so the BFS work per pass is fixed; seeds vary the labels and
# the scramble.  The first of each of three buckets is a genus-0 seed.
ORBIT_SHAPES = [
    (3, 4, 0, [(3, 4)]), (3, 4, 2, [(2, 2)]), (3, 6, 2, [(2, 4)]), (4, 8, 4, [(2, 4)]),
    (4, 6, 2, [(2, 2), (2, 2)]), (3, 8, 2, [(2, 6)]), (4, 4, 0, [(2, 2), (2, 2)]),
    (5, 4, 0, [(3, 4)]), (3, 4, 0, [(2, 4)]), (6, 6, 2, [(2, 2), (2, 2)]),

    (4, 6, 0, [(3, 6)]), (3, 6, 2, [(3, 4)]), (4, 8, 4, [(2, 2), (2, 2)]), (3, 8, 4, [(3, 4)]),
    (5, 6, 0, [(2, 2), (3, 4)]), (5, 6, 0, [(3, 6)]), (4, 8, 2, [(2, 2), (2, 4)]),
    (5, 8, 0, [(2, 4), (3, 4)]), (6, 6, 2, [(3, 4)]), (4, 6, 2, [(3, 4)]),

    (4, 6, 0, [(4, 6)]), (3, 8, 0, [(3, 8)]), (6, 8, 2, [(2, 2), (2, 2), (2, 2)]),
    (5, 6, 0, [(4, 6)]), (4, 8, 2, [(3, 6)]), (5, 8, 2, [(2, 2), (3, 4)]),
    (6, 8, 2, [(2, 2), (3, 4)]), (5, 8, 0, [(2, 2), (3, 6)]), (6, 6, 0, [(4, 6)]),
    (4, 8, 0, [(3, 8)]),

    (5, 8, 0, [(5, 8)]), (6, 8, 0, [(3, 4), (3, 4)]), (4, 8, 2, [(4, 6)]), (4, 8, 0, [(4, 8)]),
    (6, 8, 0, [(5, 8)]), (5, 8, 2, [(4, 6)]), (6, 8, 0, [(2, 2), (4, 6)]), (5, 8, 0, [(4, 8)]),
    (6, 8, 0, [(4, 8)]), (6, 8, 0, [(3, 4), (3, 4)]),
]


def _census_expectation(n, m):
    """Brute force over all m-tuples of transpositions of S_n."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    signatures = set()
    total = 0
    prefix = []

    def walk(depth):
        nonlocal total
        if depth == m:
            if ref.is_identity_product(n, prefix):
                total += 1
                _, e, comps = ref.signature(n, prefix)
                signatures.add((e, tuple(comps)))
            return
        for p in pairs:
            prefix.append(p)
            walk(depth + 1)
            prefix.pop()

    walk(0)
    assert total == ref.identity_tuples(n, m)
    count = len(signatures)
    return f"total factorizations={total} orbits={count} signatures={count} theorem=OK"


def _random_projectable_word(rng, n):
    kind = rng.random()
    letter = lambda: rng.choice([1, -1]) * rng.randint(1, n - 1)
    if kind < 0.15:
        return []
    if kind < 0.30:
        half = [letter() for _ in range(rng.randint(1, 4))]
        return half + ref.invert_word(half)
    conj = [letter() for _ in range(rng.randint(0, 3))]
    return conj + [letter()] + ref.invert_word(conj)


def _braid_request(rng, files, name, n, m):
    """A braid check: words and moves keyed by the request's name, so the
    letter counts, which set the check's cost, are the same for every seed.
    The seed picks one of the four symmetries that keep every word's length
    (sigma_i <-> sigma_{n-i}, sigma_i <-> sigma_i^-1)."""
    structure = random.Random(f"braid:{name}")
    words = [_random_projectable_word(structure, n) for _ in range(m)]
    flip, mirror = rng.random() < 0.5, rng.random() < 0.5
    image = lambda x: (-1 if mirror else 1) * (x if not flip else (n - abs(x)) * (1 if x > 0 else -1))
    words = [[image(x) for x in w] for w in words]
    files[name] = ref.format_braid_tuple(n, words)
    factors = [ref.project_word(n, w) for w in words]
    moves = []
    for _ in range(BRAID_MOVES):
        for _ in range(10):
            d, k = structure.choice("FI"), structure.randrange(m - 1)
            u, v = words[k], words[k + 1]
            grow = len(u) if d == "F" else len(v)
            if sum(map(len, words)) + 2 * grow <= BRAID_LETTER_BUDGET:
                break
        else:
            break
        ref.braid_move(words, d, k)
        ref.apply_move(factors, d, k)
        moves.append(f"{d}@{k}")
    assert [ref.project_word(n, w) for w in words] == factors
    files[name[:-4] + "m.txt"] = "\n".join(moves) + "\n"
    text = ref.format_factorization(n, factors)
    props = {"n": n, "m": m, "moves": len(moves), "letters": sum(map(len, words)), "shape": "braid"}
    return dict(kind="braid", files=[name, name[:-4] + "m.txt"], props=props,
                expect={"output": f"{text}\n{text}"})


def _census_request(n, m):
    return dict(kind="census", files=[], args={"degree": n, "length": m},
                props={"n": n, "m": m, "shape": "census"},
                expect={"output": _census_expectation(n, m)})


def _build_validate(rng, files, requests):
    for i, (n, m, identities, components) in enumerate(ORBIT_SHAPES):
        factors = _identity_with_signature(rng, n, m, identities, components)
        requests.append(_orbit_request(files, f"o{i:03d}.txt", n, factors))
    for n, m in CENSUS_SIZES:
        requests.append(_census_request(n, m))
    for i in range(BRAID_CHECKS):
        requests.append(_braid_request(rng, files, f"b{i:03d}.txt", 3 + i % 6, 3 + (i // 6) % 6))


# -- the small set every workload ends with -------------------------------------


def _build_coverage(rng, files, requests):
    """Small requests of every kind, run once after the timed passes, so
    every layer metric and cert_moves_per_factor is defined on every
    workload.  The certify inputs all have m=32, and there are enough of
    them for their moves per factor to vary little from seed to seed."""
    n = DECIDE_DEGREE
    chunks, identities = _decide_factors(rng, {}, 1_000, "sparse")
    f1 = _assemble(rng, chunks, identities)
    sig, props = _properties(n, f1, "sparse")
    files["k_d.txt"] = ref.format_factorization(n, f1)
    files["k_e.txt"] = ref.format_factorization(n, _assemble(rng, chunks[::-1], identities))
    requests.append(dict(kind="sig", files=["k_d.txt"], props=props,
                         expect={"output": ref.format_signature(n, sig)}))
    requests.append(dict(kind="equiv", files=["k_d.txt", "k_e.txt"], props=props, expect={"exit": 0}))
    for i in range(COVERAGE_CERTIFY):
        shape = ("dense", "tree", "multi")[i % 3]
        requests.append(_certify_request(rng, files, f"k_c{i:02d}.txt", i, 32, shape, 3 + (i // 3) % 6))
    genus = _identity_with_signature(rng, 4, 6, 0, [(4, 6)])
    requests.append(_orbit_request(files, "k_o.txt", 4, genus))
    requests.append(_census_request(3, 4))
    for i in range(2):
        requests.append(_braid_request(rng, files, f"k_b{i}.txt", 4 + i, 5))


# -- entry points ---------------------------------------------------------------

_BUILDERS = {"decide": _build_decide, "certify": _build_certify, "validate": _build_validate}


def build(workload, seed):
    """Return (files, manifest) for one workload and seed; files maps name to text."""
    rng = random.Random(f"{workload}:{seed}")
    files, main, coverage = {}, [], []
    _BUILDERS[workload](rng, files, main)
    _build_coverage(rng, files, coverage)
    for prefix, group in (("r", main), ("k", coverage)):
        for i, req in enumerate(group):
            req["id"] = f"{prefix}{i:03d}"
            req.setdefault("args", {})
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    manifest = {
        "workload": workload,
        "seed": seed,
        "why": WORKLOADS[workload],
        "input_sha256": digest.hexdigest(),
        "main": main,
        "coverage": coverage,
    }
    return files, manifest


def write(workload, seed, out):
    files, manifest = build(workload, seed)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    manifest = write(args.workload, args.seed, args.out)
    print(manifest["input_sha256"])


if __name__ == "__main__":
    main()
