"""Runs one workload's requests against the package in a closed loop.

    python3 perfbench/worker.py --work DIR --seed N --seconds S --trace 0|1

Started by run.py in a process of its own, so that its peak memory is the
program's and not the generator's.  One client, one request at a time:
each request follows the public calls of one ``hurwitz`` subcommand from
text in to text out, and only those calls are timed.  Responses are written
to ``DIR/resp`` (first execution) and hashed (every execution) for run.py to
check; nothing here judges them.

Untraced: whole passes over the main requests, each in a fresh seeded order,
at least MIN_PASSES of them and more while another pass would still end
within ``--seconds``; then the coverage set once.
Traced: one pass in which each request runs untraced and, back to back, with
a span around every package call plus probes that split composite calls
into their public parts; then the coverage set traced.

gc is part of the program being measured.  The worker exits with code 2 if
gc is disabled, or objects have been frozen out of it, before or after the
package is imported, after any request or at the end of the run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ref  # noqa: E402
from spans import Recorder  # noqa: E402


def guard_gc(when):
    """Exit with code 2 if gc is off or holds frozen objects; `when` says
    at which point of the run this was seen."""
    if not gc.isenabled():
        reason = "gc is disabled"
    elif gc.get_freeze_count():
        reason = f"{gc.get_freeze_count()} objects are frozen out of gc"
    else:
        return
    print(f"refusing to measure: {reason} {when}; gc is part of the program being measured",
          file=sys.stderr)
    sys.exit(2)


if not __debug__:
    print("refusing to measure: assertions are off (-O)", file=sys.stderr)
    sys.exit(2)
guard_gc("before the package is imported")
GC_THRESHOLD_AT_START = gc.get_threshold()

from hurwitz import (  # noqa: E402
    Factorization,
    HurwitzError,
    apply_certificate,
    apply_move,
    braid_hurwitz_move,
    canonical_form,
    canonical_shape,
    enumerate_identity_factorizations,
    enumerate_orbit,
    format_certificate,
    format_factorization,
    format_signature,
    group_components,
    hurwitz_equivalent,
    orbit_partition,
    parse_braid_tuple,
    parse_certificate,
    parse_factorization,
    project_tuple,
    pull_edge_to_front,
    signature,
)

guard_gc("after `import hurwitz`")


# Each request runs at least this often, in passes spread over the run;
# run.py takes the median of its executions, so a burst of host speed-up or
# slow-down that hits one pass moves no latency.  Three decide passes take
# about half a minute, which is why there are not more.
MIN_PASSES = 3


def _letters(braid):
    return sum(len(w) for w in braid.words)


def _distinct(f):
    return len({x for x in f.factors if x is not None})


class Client:
    def __init__(self, work, rec):
        self.work = work
        self.rec = rec
        self.later = None  # (probe function, *args) left by the last request
        self.wall = 0.0  # request time from opening the root to closing it

    def read(self, name):
        return (self.work / name).read_text()

    def parse(self, text):
        f = self.rec.call("factorization.parse_factorization", parse_factorization, text)
        self.rec.tag(len(f))
        return f

    # -- one method per request kind; each returns the response text ------

    def sig(self, req):
        f = self.parse(self.read(req["files"][0]))
        sig = self.rec.call("graph.signature", signature, f)
        self.rec.tag(len(f), _distinct(f) if self.rec.trace else 0)
        return self.rec.call("graph.format_signature", format_signature, sig)

    def equiv(self, req):
        f1 = self.parse(self.read(req["files"][0]))
        f2 = self.parse(self.read(req["files"][1]))
        same = self.rec.call("canonical.hurwitz_equivalent", hurwitz_equivalent, f1, f2)
        self.rec.tag(len(f1) + len(f2))
        self.later = (self.probe_equiv, f1, f2)
        return f"exit={0 if same else 1}"

    def certify(self, req):
        text = self.read(req["files"][0])
        f = self.parse(text)
        result = self.rec.call("canonical.canonical_form", canonical_form, f)
        self.rec.tag(len(f), len(result.certificate))
        out = self.rec.call("factorization.format_factorization", format_factorization, result.canonical)
        self.rec.tag(len(f))
        if result.certificate:
            cert = self.rec.call("factorization.format_certificate", format_certificate, result.certificate)
            self.rec.tag(len(result.certificate))
            out += "\n" + cert
        # `hurwitz replay FILE CERT` on the certificate lines just printed
        cert_text = out.partition("\n")[2]
        g = self.parse(text)
        moves = self.rec.call("factorization.parse_certificate", parse_certificate, cert_text)
        self.rec.tag(len(moves))
        replayed = self.rec.call("factorization.apply_certificate", apply_certificate, g, moves)
        self.rec.tag(len(moves))
        again = self.rec.call("factorization.format_factorization", format_factorization, replayed)
        self.rec.tag(len(g))
        self.later = (self.probe_canonical, f, result)
        return out + "\n=== replay\n" + again

    def orbit(self, req):
        f = self.parse(self.read(req["files"][0]))
        report = self.rec.call("oracle.enumerate_orbit", enumerate_orbit, f, req["args"]["cap"])
        self.rec.tag(report.orbit_size, 0 if report.truncated else 2 * (len(f) - 1) * report.orbit_size)
        return f"size={report.orbit_size}\ntruncated={'true' if report.truncated else 'false'}"

    def census(self, req):
        n, m = req["args"]["degree"], req["args"]["length"]
        partition = self.rec.call("oracle.orbit_partition", orbit_partition, n, m)
        reports = [r for _, rs in partition for r in rs]
        total = sum(r.orbit_size for r in reports)
        self.rec.tag(total)
        if any(r.truncated for r in reports):
            verdict = "UNKNOWN"
        elif all(len(rs) == 1 for _, rs in partition):
            verdict = "OK"
        else:
            verdict = "VIOLATED"
        self.later = (self.probe_census, n, m)
        return (
            f"total factorizations={total} orbits={len(reports)} "
            f"signatures={len(partition)} theorem={verdict}"
        )

    def braid(self, req):
        rec = self.rec
        b = rec.call("braid.parse_braid_tuple", parse_braid_tuple, self.read(req["files"][0]))
        f = rec.call("braid.project_tuple", project_tuple, b)
        rec.tag(_letters(b) if rec.trace else 0)
        moves = rec.call("factorization.parse_certificate", parse_certificate, self.read(req["files"][1]))
        rec.tag(len(moves))
        for move in moves:
            b = rec.call("braid.braid_hurwitz_move", braid_hurwitz_move, b, move)
            rec.tag(_letters(b) if rec.trace else 0)
            f = rec.call("factorization.apply_move", apply_move, f, move)
            rec.tag(1)
        g = rec.call("braid.project_tuple", project_tuple, b)
        rec.tag(_letters(b) if rec.trace else 0)
        first = rec.call("factorization.format_factorization", format_factorization, f)
        rec.tag(len(f))
        second = rec.call("factorization.format_factorization", format_factorization, g)
        rec.tag(len(g))
        return first + "\n" + second

    # -- probes: the public parts of a composite call, on the same input,
    # run after the request closes so they never count as request time ------

    def probe_equiv(self, f1, f2):
        for f in (f1, f2):
            self.rec.call("perm.product", f.product)
            self.rec.tag(len(f))
            self.rec.call("graph.signature", signature, f)
            self.rec.tag(len(f), _distinct(f))

    def probe_canonical(self, f, result):
        rec = self.rec
        rec.call("perm.product", f.product)
        rec.tag(len(f))
        grouped = rec.call("canonical.group_components", group_components, f)
        rec.tag(len(grouped.certificate))
        # one pull per single-component block of the grouped factors
        _, _, components = ref.signature(f.degree, f.factors)
        owner = {v: i for i, (vs, _) in enumerate(components) for v in vs}
        blocks = {}
        for x in grouped.canonical.factors:
            if x is not None:
                blocks.setdefault(owner[x[0]], []).append(x)
        for i, factors in sorted(blocks.items()):
            vs = components[i][0]
            block = Factorization(f.degree, factors)
            pulled = rec.call("canonical.pull_edge_to_front", pull_edge_to_front, block, vs[0], vs[1])
            rec.tag(len(pulled.certificate))
        sig = rec.call("graph.signature", signature, f)
        rec.tag(len(f), _distinct(f))
        rec.call("canonical.canonical_shape", canonical_shape, sig)
        rec.call("factorization.apply_certificate", apply_certificate, f, result.certificate)
        rec.tag(len(result.certificate))

    def probe_census(self, n, m):
        found = self.rec.call(
            "oracle.enumerate_identity_factorizations",
            lambda: list(enumerate_identity_factorizations(n, m)),
        )
        self.rec.tag(len(found))

    # -- one request, errors included -------------------------------------------

    def run(self, req, probe=False):
        """Execute one request, then its probes if asked; return (seconds of
        the request's package calls, response)."""
        before = self.rec.busy
        self.later = None
        w0 = perf_counter()
        self.rec.open(f"request:{req['id']}")
        try:
            response = getattr(self, req["kind"])(req)
        except HurwitzError as exc:
            response = f"error: {type(exc).__name__}"
        except Exception as exc:  # counted as a failure by the checker, never fatal
            response = f"unexpected: {type(exc).__name__}: {exc}"
        finally:
            self.rec.close()
        self.wall += perf_counter() - w0
        seconds = self.rec.busy - before
        if probe and self.later:
            fn, *args = self.later
            self.rec.open(f"probe:{req['id']}", probe=True)
            try:
                fn(*args)
            except Exception as exc:  # a probe never decides a response
                print(f"probe of {req['id']} failed: {exc!r}", file=sys.stderr)
            finally:
                self.rec.close()
        guard_gc(f"after request {req['id']}")
        return seconds, response


class Responses:
    """First response of each request goes to a file; every one is hashed."""

    def __init__(self, out):
        self.out = out
        self.out.mkdir(exist_ok=True)
        self.hashes = {}

    def add(self, req_id, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if req_id not in self.hashes:
            (self.out / f"{req_id}.txt").write_text(text)
            self.hashes[req_id] = []
        self.hashes[req_id].append(digest)


def calibrate(out):
    """Time the fixed calibration work right before a request, so run.py can
    scale the request's latency to a fixed host speed."""
    t0 = perf_counter()
    ref.calibration_work()
    out["calibration"].append([t0, perf_counter() - t0])


def _passes(main, seed):
    """Seeded orders of the main requests; those marked `once` only in the first."""
    n = 0
    while True:
        order = [r for r in main if n == 0 or not r.get("once")]
        random.Random(f"order:{seed}:{n}").shuffle(order)
        yield order
        n += 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text())
    responses = Responses(work / "resp")
    out = {"samples": [], "calibration": [], "passes": 0}

    if args.trace:
        # each request runs untraced and traced back to back, so drift during
        # the run does not show up as tracing overhead; which goes first
        # alternates, because the second of two runs of a request is faster
        plain = Client(work, Recorder(trace=False))
        client = Client(work, Recorder(trace=True))
        for i, req in enumerate(next(_passes(manifest["main"], args.seed))):
            if i % 2:
                _, text = plain.run(req)
                responses.add(req["id"], text)
            calibrate(out)
            start = perf_counter()
            seconds, text = client.run(req, probe=True)
            out["samples"].append([req["id"], seconds, start, perf_counter()])
            responses.add(req["id"], text)
            if not i % 2:
                _, text = plain.run(req)
                responses.add(req["id"], text)
        out["passes"] = 1
        # wall time includes span recording and tags, which is what tracing adds
        out["traced_wall"], out["untraced_wall"] = client.wall, plain.wall
    else:
        client = Client(work, Recorder(trace=False))
        for order in _passes(manifest["main"], args.seed):
            for req in order:
                calibrate(out)
                start = perf_counter()
                seconds, text = client.run(req)
                out["samples"].append([req["id"], seconds, start, perf_counter()])
                responses.add(req["id"], text)
            out["passes"] += 1
            projected = client.rec.busy * (out["passes"] + 1) / out["passes"]
            if out["passes"] >= MIN_PASSES and projected > args.seconds:
                break
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for req in manifest["coverage"]:
        _, text = client.run(req, probe=bool(args.trace))
        responses.add(req["id"], text)
    guard_gc("at the end of the run")
    out["gc"] = {
        "threshold_at_start": GC_THRESHOLD_AT_START,
        "threshold": gc.get_threshold(),
        "freeze_count": gc.get_freeze_count(),
    }
    out["hashes"] = responses.hashes
    out["spans"] = client.rec.spans
    (work / "worker.json").write_text(json.dumps(out))


if __name__ == "__main__":
    main()
