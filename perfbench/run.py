"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed (gen.py, in its own process),
times the real CLI start-up on the workload's smallest request, runs the
requests in a closed loop (worker.py, in its own process), checks every
response with package-free reference code (check.py), and prints one JSON
line last: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.  Lines before it record the inputs' hash,
the Python version, CPU count and git state, the failures one by one and,
when traced, the busy time of each module.  See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans as spanlib  # noqa: E402
from gen import WORKLOADS  # noqa: E402

END_TO_END = {
    "latency_p50_ms": "ref_ms",
    "latency_p90_ms": "ref_ms",
    "requests_per_s": "1/ref_s",
    "cert_moves_per_factor": "moves/factor",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "perm.product_ns_per_factor": "ns/factor",
    "perm.product_calls": "count",
    "factorization.parse_ns_per_factor": "ns/factor",
    "factorization.parse_factors": "count",
    "factorization.format_ns_per_factor": "ns/factor",
    "factorization.format_certificate_ns_per_move": "ns/move",
    "factorization.parse_certificate_ns_per_move": "ns/move",
    "factorization.replay_ns_per_move": "ns/move",
    "factorization.moves_replayed": "count",
    "factorization.apply_move_ns": "ns",
    "graph.signature_ns_per_factor": "ns/factor",
    "graph.signature_calls": "count",
    "graph.distinct_edge_ratio": "ratio",
    "canonical.equivalent_ms": "ms",
    "canonical.canonical_form_ms": "ms",
    "canonical.group_ms": "ms",
    "canonical.group_moves": "count",
    "canonical.pull_ms": "ms",
    "canonical.pull_moves": "count",
    "canonical.cross_check_ms": "ms",
    "canonical.planner_ms": "ms",
    "canonical.cert_moves.dense": "moves/factor",
    "canonical.cert_moves.tree": "moves/factor",
    "canonical.cert_moves.multi": "moves/factor",
    "oracle.orbit_states": "count",
    "oracle.orbit_states_per_s": "1/s",
    "oracle.new_state_ratio": "ratio",
    "oracle.enumerated": "count",
    "oracle.enumerate_ns_per_result": "ns",
    "oracle.partition_ms": "ms",
    "braid.letters": "count",
    "braid.project_ns_per_letter": "ns/letter",
    "braid.move_ns_per_letter": "ns/letter",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}

SETUP_RUNS = 30         # timed fresh-interpreter CLI runs; setup_s is their median
CALIBRATION_S = 1e-3    # ref.calibration_work's time on the reference host, by definition
BARE_START_S = 0.05     # a bare `python3 -c pass` on the reference host, by definition
CALIBRATION_WINDOW_S = 0.05
DEADLINE = 170.0        # seconds after start by which every child must be done


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def guard():
    """Refuse to measure a different program than users run."""
    if not __debug__ or os.environ.get("PYTHONOPTIMIZE"):
        fail("assertions are off (-O); canonical_form's replay check would be skipped")
    if not gc.isenabled():
        fail("gc is disabled; it is part of the program being measured")
    if not (ROOT / "src" / "hurwitz" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'hurwitz'}; run from a checkout")


def provenance():
    def git(*args):
        if not (ROOT / ".git").exists():
            return None  # never let git search the directories above the checkout
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "git_sha": sha or "unknown (not a git checkout)",
        "dirty": None if sha is None else bool(dirty),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv, started, what):
    budget = DEADLINE - (time.monotonic() - started)
    if budget <= 0:
        fail(f"out of time before {what}")
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        fail(f"{what} did not finish in time")
    if done.returncode != 0:
        fail(f"{what} failed with exit code {done.returncode}:\n{done.stderr[-2000:]}")
    return done


# -- set-up: the real CLI in a fresh interpreter -----------------------------------


def cli_argv(req, work):
    if req["kind"] == "sig":
        return ["sig", str(work / req["files"][0])]
    if req["kind"] == "certify":
        return ["canon", "--cert", str(work / req["files"][0])]
    if req["kind"] == "orbit":
        return ["orbit", str(work / req["files"][0]), "--cap", str(req["args"]["cap"])]
    if req["kind"] == "census":
        return ["census", str(req["args"]["degree"]), str(req["args"]["length"]), "--quiet"]
    return None


def wall(argv):
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, done


def measure_setup(manifest, work, read, failures):
    """Median wall time of SETUP_RUNS CLI runs on the smallest request, after
    one untimed run that compiles the bytecode, and the same median unscaled;
    every output is checked.

    Each run is scaled to the reference host by a bare interpreter start
    timed right before it: multiplied by BARE_START_S over that time.  Start-up
    is process creation and file reading more than interpreter work, and the
    bare start tracks the host's speed at it far better than the calibration
    work does (ten sets of thirty runs spread by 0.02 scaled this way, 0.18
    scaled by the calibration work, 0.28 unscaled).  The package cannot
    change the bare start, so import-time and first-call work still count.
    """
    candidates = [r for r in manifest["main"] if "error" not in r["expect"] and cli_argv(r, work)]
    req = min(candidates, key=lambda r: (r["props"]["m"], r["props"]["n"], r["id"]))
    argv = [sys.executable, "-m", "hurwitz.cli", *cli_argv(req, work)]
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):
        bare, _ = wall([sys.executable, "-c", "pass"])
        elapsed, done = wall(argv)
        reason = f"exit code {done.returncode}" if done.returncode else check.check_cli(req, done.stdout, read)
        if reason:
            failures.append((f"setup:{req['id']}", reason))
        if i:
            scaled.append(elapsed * BARE_START_S / bare)
            raw.append(elapsed)
    what = " ".join(argv[1:4] + [req["id"]])
    return statistics.median(scaled), statistics.median(raw), SETUP_RUNS + 1, what


def measure_cli_layers():
    """Median bare interpreter start and the extra time `import hurwitz` takes."""
    bare, imported = [], []
    for _ in range(SETUP_RUNS):
        for argv, sink in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import hurwitz"], imported)):
            elapsed, done = wall(argv)
            if done.returncode:
                fail(f"{' '.join(argv[1:])} failed:\n{done.stderr[-2000:]}")
            sink.append(elapsed)
    return statistics.median(bare) * 1e3, (statistics.median(imported) - statistics.median(bare)) * 1e3


# -- checking ------------------------------------------------------------------------


def check_all(manifest, result, work, read, failures):
    """Check the first response of every request and that every later
    execution gave the same bytes; return (executions, certificate moves by id)."""
    requests = {r["id"]: r for r in manifest["main"] + manifest["coverage"]}
    executions = 0
    moves = {}
    for req_id, hashes in result["hashes"].items():
        req = requests[req_id]
        executions += len(hashes)
        text = (work / "resp" / f"{req_id}.txt").read_text()
        reason = check.check(req, text, read)
        if reason is None and req["kind"] == "certify":
            moves[req_id] = check.certificate_moves(text)
        first = hashlib.sha256(text.encode()).hexdigest()
        bad = [h for h in hashes if h != first]
        if reason:
            failures.extend((req_id, reason) for _ in hashes)
        elif bad:
            failures.extend((req_id, "a repeated execution gave different bytes") for _ in bad)
    missing = set(requests) - set(result["hashes"])
    failures.extend((req_id, "never executed") for req_id in sorted(missing))
    return executions + len(missing), moves


# -- metrics ---------------------------------------------------------------------------


def percentile_90(values):
    return statistics.quantiles(values, n=10)[8]


def request_latencies(result, scaled=True):
    """One latency per request, in seconds: the median of its executions.

    Scaled, each execution is first brought to the reference host speed:
    multiplied by CALIBRATION_S over the median time of the calibration
    work run within CALIBRATION_WINDOW_S of it.  That is always the one
    timed right before it and, but for the last, the one right after it; for
    short requests also a few neighbours'.  The host this benchmark runs on
    is shared, and its speed swings by a quarter or more within seconds;
    the scaling takes that swing out and leaves the program's own speed
    relative to fixed interpreter work.  A window of a second, which mixes
    in the speed of other moments, left spreads twice as wide.
    """
    cal = result["calibration"]
    times = [t for t, _ in cal]
    runs = {}
    for req_id, seconds, start, end in result["samples"]:
        if scaled:
            lo = min(bisect.bisect_left(times, start - CALIBRATION_WINDOW_S),
                     bisect.bisect_right(times, start) - 1)
            hi = bisect.bisect_right(times, end + CALIBRATION_WINDOW_S)
            seconds *= CALIBRATION_S / statistics.median(c for _, c in cal[lo:hi])
        runs.setdefault(req_id, []).append(seconds)
    return [statistics.median(v) for v in runs.values()]


def certificate_source(manifest):
    """The certify requests cert_moves_per_factor counts: the main ones on
    certify; on decide and validate, which have none, the coverage set's."""
    main = [r for r in manifest["main"] if r["kind"] == "certify"]
    return main or [r for r in manifest["coverage"] if r["kind"] == "certify"]


def end_to_end(manifest, result, setup_s, moves):
    latencies = request_latencies(result)
    counted = [r for r in certificate_source(manifest) if r["id"] in moves]
    factors = sum(r["props"]["m"] for r in counted)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile_90(latencies) * 1e3,
        "requests_per_s": len(latencies) / sum(latencies),
        "cert_moves_per_factor": sum(moves[r["id"]] for r in counted) / factors if factors else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


class Calls:
    """Totals per span name: calls, seconds, count, extra; by root kind."""

    def __init__(self, spans):
        self.totals = {}
        for span in spans:
            if span[3] is None:
                continue
            root = spans[span[3]][0].split(":", 1)[0]
            for key in ((span[0], root), (span[0], None)):
                t = self.totals.setdefault(key, [0, 0.0, 0, 0])
                t[0] += 1
                t[1] += span[2] - span[1]
                t[2] += span[4]
                t[3] += span[5]

    def get(self, name, root=None):
        return self.totals.get((name, root), [0, 0.0, 0, 0])

    def per_count(self, name, scale, root=None):
        _, secs, count, _ = self.get(name, root)
        return secs / count * scale if count else 0.0

    def per_call(self, name, scale, root=None):
        calls, secs, _, _ = self.get(name, root)
        return secs / calls * scale if calls else 0.0


def requests_with_probes(spans):
    """Map request id -> (request call spans, probe call spans)."""
    out = {}
    for span in spans:
        if span[3] is None:
            continue
        kind, req_id = spans[span[3]][0].split(":", 1)
        out.setdefault(req_id, ([], []))[kind == "probe"].append(span)
    return out


def _secs(spans, *names):
    return sum(s[2] - s[1] for s in spans if s[0] in names)


def split_canonical(spans):
    """Per canonical_form call: its time split by the probed public parts."""
    rows = []
    for req_id, (calls, probes) in requests_with_probes(spans).items():
        form = [s for s in calls if s[0] == "canonical.canonical_form"]
        if not form or not probes:
            continue
        product = _secs(probes, "perm.product")
        group = max(_secs(probes, "canonical.group_components") - product, 0.0)
        pull = _secs(probes, "canonical.pull_edge_to_front")
        cross = _secs(probes, "graph.signature", "canonical.canonical_shape", "factorization.apply_certificate")
        total = _secs(form, "canonical.canonical_form")
        rows.append({
            "id": req_id,
            "total": total,
            "product": product,
            "group": group,
            "group_moves": sum(s[4] for s in probes if s[0] == "canonical.group_components"),
            "pull": pull,
            "pull_moves": sum(s[4] for s in probes if s[0] == "canonical.pull_edge_to_front"),
            "cross": cross,
            "signature": _secs(probes, "graph.signature"),
            "replay": _secs(probes, "factorization.apply_certificate"),
            "planner": max(total - product - group - pull - cross, 0.0),
            "m": form[0][4],
            "moves": form[0][5],
        })
    return rows


def module_busy(spans, canonical_rows):
    """Busy seconds per module over the main requests' package calls, with
    composite calls split into the modules their probed parts belong to."""
    busy = spanlib.module_busy(spans, "request:r")
    moved = Counter()
    for req_id, (calls, probes) in requests_with_probes(spans).items():
        if req_id.startswith("r") and any(s[0] == "canonical.hurwitz_equivalent" for s in calls) and probes:
            span = _secs(calls, "canonical.hurwitz_equivalent")
            product = min(_secs(probes, "perm.product"), span)
            sig = min(_secs(probes, "graph.signature"), span - product)
            moved["perm"] += product
            moved["graph"] += sig
    for row in canonical_rows:
        parts = {"perm": row["product"], "graph": row["signature"], "factorization": row["replay"]}
        room = row["total"]
        for module, t in parts.items():
            t = min(t, room)
            moved[module] += t
            room -= t
    for module, t in moved.items():
        busy[module] = busy.get(module, 0.0) + t
        busy["canonical"] -= t
    return busy


def per_layer(manifest, result, cli_ms):
    spans = result["spans"]
    calls = Calls(spans)
    shapes = {r["id"]: r["props"].get("shape") for r in manifest["main"] + manifest["coverage"]}
    rows = split_canonical(spans)
    n_rows = len(rows) or 1
    cert = {}
    for row in rows:
        c = cert.setdefault(shapes[row["id"]], [0, 0])
        c[0] += row["moves"]
        c[1] += row["m"]
    orbit = [s for s in spans if s[0] == "oracle.enumerate_orbit" and s[3] is not None]
    complete = [s for s in orbit if s[5]]
    states = sum(s[4] for s in orbit)
    orbit_secs = sum(s[2] - s[1] for s in orbit)
    _, moves_secs, moves_letters, _ = calls.get("braid.braid_hurwitz_move")
    metrics = {
        "perm.product_ns_per_factor": calls.per_count("perm.product", 1e9),
        "perm.product_calls": calls.get("perm.product")[0],
        "factorization.parse_ns_per_factor": calls.per_count("factorization.parse_factorization", 1e9, "request"),
        "factorization.parse_factors": calls.get("factorization.parse_factorization", "request")[2],
        "factorization.format_ns_per_factor": calls.per_count("factorization.format_factorization", 1e9),
        "factorization.format_certificate_ns_per_move": calls.per_count("factorization.format_certificate", 1e9),
        "factorization.parse_certificate_ns_per_move": calls.per_count("factorization.parse_certificate", 1e9),
        "factorization.replay_ns_per_move": calls.per_count("factorization.apply_certificate", 1e9, "request"),
        "factorization.moves_replayed": calls.get("factorization.apply_certificate", "request")[2],
        "factorization.apply_move_ns": calls.per_call("factorization.apply_move", 1e9),
        "graph.signature_ns_per_factor": calls.per_count("graph.signature", 1e9),
        "graph.signature_calls": calls.get("graph.signature")[0],
        "graph.distinct_edge_ratio": (
            calls.get("graph.signature")[3] / calls.get("graph.signature")[2]
            if calls.get("graph.signature")[2] else 0.0
        ),
        "canonical.equivalent_ms": calls.per_call("canonical.hurwitz_equivalent", 1e3, "request"),
        "canonical.canonical_form_ms": calls.per_call("canonical.canonical_form", 1e3, "request"),
        "canonical.group_ms": sum(r["group"] for r in rows) / n_rows * 1e3,
        "canonical.group_moves": sum(r["group_moves"] for r in rows),
        "canonical.pull_ms": sum(r["pull"] for r in rows) / n_rows * 1e3,
        "canonical.pull_moves": sum(r["pull_moves"] for r in rows),
        "canonical.cross_check_ms": sum(r["cross"] for r in rows) / n_rows * 1e3,
        "canonical.planner_ms": sum(r["planner"] for r in rows) / n_rows * 1e3,
        "oracle.orbit_states": states,
        "oracle.orbit_states_per_s": states / orbit_secs if orbit_secs else 0.0,
        "oracle.new_state_ratio": (
            sum(s[4] - 1 for s in complete) / sum(s[5] for s in complete) if complete else 0.0
        ),
        "oracle.enumerated": calls.get("oracle.enumerate_identity_factorizations")[2],
        "oracle.enumerate_ns_per_result": calls.per_count("oracle.enumerate_identity_factorizations", 1e9),
        "oracle.partition_ms": calls.per_call("oracle.orbit_partition", 1e3),
        "braid.letters": calls.get("braid.project_tuple")[2],
        "braid.project_ns_per_letter": calls.per_count("braid.project_tuple", 1e9),
        "braid.move_ns_per_letter": moves_secs / moves_letters * 1e9 if moves_letters else 0.0,
        "cli.interpreter_ms": cli_ms[0],
        "cli.import_ms": cli_ms[1],
        "trace.overhead_frac": result["traced_wall"] / result["untraced_wall"] - 1,
    }
    for shape in ("dense", "tree", "multi"):
        moves, factors = cert.get(shape, (0, 0))
        metrics[f"canonical.cert_moves.{shape}"] = moves / factors if factors else 0.0
    return metrics, rows


# -- the run -------------------------------------------------------------------------------


def describe(manifest):
    main = manifest["main"]
    shapes = Counter(r["props"].get("shape") for r in main)
    expects = Counter(
        r["expect"].get("error") or ("exit=%d" % r["expect"]["exit"] if "exit" in r["expect"] else "answer")
        for r in main
    )
    share = lambda c: ", ".join(f"{k} {v / len(main):.0%}" for k, v in sorted(c.items()))
    ratios = [r["props"]["distinct_edge_ratio"] for r in main if "distinct_edge_ratio" in r["props"]]
    lines = [
        f"main requests: {len(main)} per pass; coverage set: {len(manifest['coverage'])} once",
        f"shape share: {share(shapes)}",
        f"expected response share: {share(expects)}",
    ]
    if ratios:
        lines.append(f"distinct-edge ratio: median {statistics.median(ratios):.3f}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    guard()

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run_child([str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
                   "--out", str(work)], started, "input generation")
        manifest = json.loads((work / "manifest.json").read_text())
        read = lambda name: (work / name).read_text()
        failures = []
        setup_s, setup_raw, setup_runs, setup_what = measure_setup(manifest, work, read, failures)
        run_child([str(HERE / "worker.py"), "--work", str(work), "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)], started, "the worker")
        result = json.loads((work / "worker.json").read_text())
        executions, moves = check_all(manifest, result, work, read, failures)
        attempted = executions + setup_runs

        info = provenance()
        print(f"workload {args.workload}, seed {args.seed}: {manifest['why']}")
        print(f"inputs sha256 {manifest['input_sha256']}")
        print(f"python {info['python']}, cpus {info['cpus']}, git {info['git_sha']}, dirty {info['dirty']}")
        gc_state = result["gc"]
        print(f"worker gc: enabled throughout, threshold {tuple(gc_state['threshold'])} "
              f"(at start {tuple(gc_state['threshold_at_start'])}), frozen objects {gc_state['freeze_count']}")
        for line in describe(manifest):
            print(line)
        latencies = request_latencies(result)
        beyond = sum(1 for s in latencies if s > percentile_90(latencies))
        print(f"latency samples {len(latencies)} requests x {result['passes']} passes "
              f"(median per request), {beyond} beyond p90; setup: {setup_what}")
        raw = request_latencies(result, scaled=False)
        host = statistics.median(c for _, c in result["calibration"]) / CALIBRATION_S
        print(f"unscaled: p50 {statistics.median(raw) * 1e3:.3f} ms, p90 {percentile_90(raw) * 1e3:.3f} ms, "
              f"{len(raw) / sum(raw):.3f} requests/s, setup {setup_raw:.4f} s; "
              f"calibration work took {host:.3f} x its reference time")
        print(f"failed_frac {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
        for req_id, reason in failures:
            print(f"FAILED {req_id}: {reason}")

        if args.trace:
            metrics, rows = per_layer(manifest, result, measure_cli_layers())
            units = PER_LAYER
            busy = module_busy(result["spans"], [r for r in rows if r["id"].startswith("r")])
            total = sum(busy.values())
            for module, t in sorted(busy.items(), key=lambda kv: -kv[1]):
                print(f"busy {module:<14} {t:9.4f} s  {t / total:6.1%}")
            own = spanlib.root_self_times(result["spans"])
            outside = sum(t for i, t in own.items() if result["spans"][i][0].startswith("request:r"))
            print(f"traced requests: {result['traced_wall']:.4f} s wall, of which package calls "
                  f"{total:.4f} s and the benchmark's own work (file reads, spans, tags) {outside:.4f} s; "
                  f"the same requests untraced: {result['untraced_wall']:.4f} s wall")
        else:
            metrics = end_to_end(manifest, result, setup_s, moves)
            units = END_TO_END
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
