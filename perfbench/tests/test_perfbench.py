"""Self-tests of the benchmark: generator determinism, the checks' power to
reject wrong responses, and the span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _tree_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_two_generator_invocations_with_one_seed_write_identical_bytes(workload, tmp_path):
    outs = []
    for name in ("a", "b"):
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", "11",
             "--out", str(tmp_path / name)],
            check=True, capture_output=True,
        )
        outs.append(_tree_bytes(tmp_path / name))
    assert outs[0] == outs[1]
    manifest = json.loads(outs[0]["manifest.json"])
    assert manifest["why"] == gen.WORKLOADS[workload]
    assert all("props" in r and "expect" in r for r in manifest["main"] + manifest["coverage"])


def test_another_seed_gives_other_inputs():
    assert gen.build("validate", 1)[1]["input_sha256"] != gen.build("validate", 2)[1]["input_sha256"]


# -- the checks reject corrupted responses --------------------------------------------


def _certify_case(seed=3):
    """A certify request whose certificate is known without the package:
    scramble the canonical shape by random moves and invert them."""
    rng = random.Random(seed)
    n = 5
    canonical = [None, (1, 2), (1, 2), (2, 3), (2, 3), (1, 2), (1, 2), (4, 5), (4, 5)]
    moves = [(rng.choice("FI"), rng.randrange(len(canonical) - 1)) for _ in range(40)]
    scrambled = ref.replay(canonical, moves)
    inverse = [("I" if d == "F" else "F", k) for d, k in reversed(moves)]
    text = ref.format_factorization(n, canonical)
    files = {"in.txt": ref.format_factorization(n, scrambled)}
    expected = ref.format_factorization(n, ref.canonical_shape(ref.signature(n, scrambled)))
    assert expected == text
    req = {"id": "r000", "kind": "certify", "files": ["in.txt"], "expect": {"canonical": expected}}
    cert = "\n".join(f"{d}@{k}" for d, k in inverse)
    return req, files.__getitem__, text, cert


def test_certify_check_accepts_a_true_certificate_and_rejects_a_dropped_line():
    req, read, canonical, cert = _certify_case()
    good = canonical + "\n" + cert + check.REPLAY_MARK + canonical
    assert check.check(req, good, read) is None
    assert check.certificate_moves(good) == 40
    dropped = "\n".join(cert.split("\n")[:-1])
    bad = canonical + "\n" + dropped + check.REPLAY_MARK + canonical
    assert check.check(req, bad, read) is not None
    assert check.check_cli(req, canonical + "\n" + dropped + "\n", read) is not None
    assert check.check_cli(req, canonical + "\n" + cert + "\n", read) is None


def test_certify_check_rejects_a_replay_that_differs_from_the_printed_form():
    req, read, canonical, cert = _certify_case()
    other = canonical.replace("e,", "", 1) + ",e"
    assert check.check(req, canonical + "\n" + cert + check.REPLAY_MARK + other, read) is not None


def test_equiv_check_rejects_a_flipped_verdict_and_a_wrong_error():
    req = {"kind": "equiv", "expect": {"exit": 0}}
    assert check.check(req, "exit=0", None) is None
    assert check.check(req, "exit=1", None) is not None
    req = {"kind": "sig", "expect": {"error": "FormatError"}}
    assert check.check(req, "error: FormatError", None) is None
    assert check.check(req, "error: PreconditionError", None) is not None
    assert check.check(req, "unexpected: ValueError: boom", None) is not None


def test_orbit_check_rejects_a_wrong_orbit_size():
    factors = [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4)]
    req = gen._orbit_request({}, "o.txt", 4, factors)
    assert req["props"]["genus_zero"] and req["props"]["class_size"] == 2880
    assert check.check(req, "size=2880\ntruncated=false", None) is None
    assert check.check(req, "size=2879\ntruncated=false", None) is not None
    assert check.check(req, "size=2880\ntruncated=true", None) is not None


def test_a_repeated_execution_with_other_bytes_is_a_failure(tmp_path):
    (tmp_path / "resp").mkdir()
    (tmp_path / "resp" / "r000.txt").write_text("exit=0")
    good = hashlib.sha256(b"exit=0").hexdigest()
    manifest = {"main": [{"id": "r000", "kind": "equiv", "expect": {"exit": 0}}], "coverage": []}
    failures = []
    executions, _ = run.check_all(manifest, {"hashes": {"r000": [good, good, "0" * 64]}},
                                  tmp_path, None, failures)
    assert executions == 3
    assert failures == [("r000", "a repeated execution gave different bytes")]


def test_reference_counts_match_the_pinned_census_and_hurwitz():
    assert ref.identity_tuples(3, 4) == 27
    assert ref.identity_tuples(4, 6) == 3936
    assert ref.connected_tuples(4, 8) == 131_040
    for n in range(3, 7):
        assert ref.connected_tuples(n, 2 * n - 2) == ref.genus_zero_count(n)
    assert gen._census_expectation(3, 4) == (
        "total factorizations=27 orbits=4 signatures=4 theorem=OK"
    )


# -- the gc guard ---------------------------------------------------------------------------

STUB = """
import gc


class HurwitzError(Exception):
    pass


{at_import}


def parse_factorization(text):
    {in_request}


def __getattr__(name):
    return lambda *args: None
"""


@pytest.mark.parametrize("at_import, in_request, code", [
    ("", "pass", 0),
    ("gc.disable()", "pass", 2),
    ("gc.freeze()", "pass", 2),
    ("", "gc.disable()", 2),
    ("", "gc.freeze()", 2),
])
def test_worker_refuses_to_measure_when_the_package_turns_gc_off(at_import, in_request, code, tmp_path):
    """A stub package stands in for the real one; the worker must stop with
    code 2 whether gc is turned off at import or during a request."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("worker.py", "ref.py", "spans.py"):
        shutil.copy(HERE / name, bench / name)
    package = tmp_path / "src" / "hurwitz"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(STUB.format(at_import=at_import, in_request=in_request))
    work = tmp_path / "work"
    work.mkdir()
    (work / "a.txt").write_text("3: (1 2),(1 2)\n")
    manifest = {"main": [{"id": "r000", "kind": "sig", "files": ["a.txt"]}], "coverage": []}
    (work / "manifest.json").write_text(json.dumps(manifest))
    done = subprocess.run(
        [sys.executable, str(bench / "worker.py"), "--work", str(work), "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert ("refusing to measure" in done.stderr) == bool(code)
    assert (work / "worker.json").exists() == (not code)


# -- span arithmetic ----------------------------------------------------------------------


def test_root_self_time_is_the_root_less_its_package_calls():
    synthetic = [
        ["request:r000", 0.0, 10.0, None, 0, 0],
        ["graph.signature", 1.0, 3.0, 0, 0, 0],
        ["perm.product", 3.0, 5.0, 0, 0, 0],
        ["graph.format_signature", 8.0, 9.5, 0, 0, 0],
        ["probe:r000", 20.0, 30.0, None, 0, 0],
        ["perm.product", 21.0, 29.0, 4, 0, 0],
    ]
    assert spans.root_self_times(synthetic) == pytest.approx({0: 4.5, 4: 2.0})
    assert spans.module_busy(synthetic) == pytest.approx({"graph": 3.5, "perm": 2.0})
    assert spans.module_busy(synthetic, "probe:") == pytest.approx({"perm": 8.0})


def test_recorder_keeps_probe_time_out_of_request_time():
    rec = spans.Recorder(trace=True)
    rec.open("request:r000")
    rec.call("perm.product", sum, [1, 2])
    rec.tag(2)
    rec.close()
    busy = rec.busy
    rec.open("probe:r000", probe=True)
    rec.call("perm.product", sum, [1, 2])
    rec.close()
    assert rec.busy == busy
    assert [s[0] for s in rec.spans] == ["request:r000", "perm.product", "probe:r000", "perm.product"]
    assert rec.spans[1][3] == 0 and rec.spans[3][3] == 2 and rec.spans[1][4] == 2


def test_latencies_are_scaled_by_the_nearby_calibration_and_take_the_median():
    result = {
        # the host runs at half speed for the first request, full speed later
        "calibration": [[0.0, 2e-3], [10.0, 1e-3], [20.0, 1e-3], [30.0, 1e-3]],
        "samples": [
            ["r000", 0.2, 0.001, 0.201],
            ["r001", 0.3, 10.001, 10.301],
            ["r001", 0.5, 20.001, 20.501],
            ["r001", 0.1, 30.001, 30.101],
        ],
    }
    assert run.request_latencies(result) == pytest.approx([0.1, 0.3])
    assert run.request_latencies(result, scaled=False) == pytest.approx([0.2, 0.3])


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in declared["workloads"]} == gen.WORKLOADS
