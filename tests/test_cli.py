"""CLI: output bytes, exit codes, stdin handling."""

import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hurwitz
from hurwitz import factorization
from hurwitz.cli import main

F1_TEXT = "n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]"
F2_TEXT = "n=6; [(2,6),(1,5),(3,6),(3,6),(2,6),(1,5),(1,4),(1,4)]"
CANONICAL_6 = "n=6; [(1,4),(1,4),(4,5),(4,5),(2,3),(2,3),(3,6),(3,6)]"


@pytest.fixture
def run(capsys, monkeypatch):
    """Invoke main() in-process and capture (exit, stdout, stderr)."""

    def invoke(*argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.txt"
    path.write_text(F1_TEXT)
    return str(path)


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.txt"
    path.write_text(F2_TEXT)
    return str(path)


class TestSig:
    def test_worked_example(self, run, f1_file):
        code, out, err = run("sig", f1_file)
        assert code == 0
        assert out == "n=6; m=8; e=0; [{1,4,5}:4,{2,3,6}:4]\n"
        assert err == ""

    def test_stdin(self, run):
        code, out, _ = run("sig", "-", stdin="n=3; [(1,2),(1,2)]")
        assert code == 0
        assert out == "n=3; m=2; e=0; [{1,2}:2]\n"

    def test_dot_side_file(self, run, f1_file, tmp_path):
        dot_path = tmp_path / "g.dot"
        code, out, _ = run("sig", f1_file, "--dot", str(dot_path))
        assert code == 0
        assert out.startswith("n=6;")
        text = dot_path.read_text()
        assert text.startswith("graph factorization {\n")
        assert '  1 -- 4 [label="w=1"];\n' in text

    def test_unwritable_dot_side_file_prints_no_signature(self, run, f1_file, tmp_path):
        code, out, err = run("sig", f1_file, "--dot", str(tmp_path / "missing" / "g.dot"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestEquiv:
    def test_equivalent_pair(self, run, f1_file, f2_file):
        code, out, _ = run("equiv", f1_file, f2_file)
        assert code == 0
        assert out == "EQUIVALENT\n"

    def test_not_equivalent(self, run, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("n=3; [(1,2),(1,2)]")
        b.write_text("n=3; [(1,3),(1,3)]")
        code, out, _ = run("equiv", str(a), str(b))
        assert code == 1
        assert out == "NOT EQUIVALENT\n"

    def test_quiet(self, run, f1_file, f2_file):
        code, out, _ = run("equiv", "--quiet", f1_file, f2_file)
        assert code == 0
        assert out == ""

    def test_precondition_violation_is_an_error_not_a_verdict(self, run, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("n=3; [(1,2),(1,2)]")
        b.write_text("n=4; [(1,2),(1,2)]")
        code, out, err = run("equiv", str(a), str(b))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestCanon:
    def test_canonical_line(self, run, f1_file):
        code, out, _ = run("canon", f1_file)
        assert code == 0
        assert out == CANONICAL_6 + "\n"

    def test_cert_then_replay_round_trip(self, run, f1_file, tmp_path):
        code, out, _ = run("canon", "--cert", f1_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CANONICAL_6
        assert len(lines) > 1
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text("\n".join(lines[1:]) + "\n")
        code, out, _ = run("replay", f1_file, str(cert_path))
        assert code == 0
        assert out == CANONICAL_6 + "\n"

    def test_cert_on_canonical_input_prints_nothing_extra(self, run, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(CANONICAL_6)
        code, out, _ = run("canon", "--cert", str(path))
        assert code == 0
        assert out == CANONICAL_6 + "\n"


class TestMoveAndReplay:
    def test_single_move(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        code, out, _ = run("move", str(path), "F@0")
        assert code == 0
        assert out == "n=3; [(1,3),(1,2)]\n"

    def test_move_out_of_range(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        code, _, err = run("move", str(path), "F@5")
        assert code == 2
        assert "out of range" in err

    def test_move_rejects_multi_move_argument(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        code, _, err = run("move", str(path), "F@0\nI@0")
        assert code == 2
        assert "exactly one move" in err

    def test_replay_from_stdin(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        code, out, _ = run("replay", str(path), "-", stdin="F@0\nI@0\n")
        assert code == 0
        assert out == "n=3; [(1,2),(2,3)]\n"

    def test_replay_supports_comments(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        cert = tmp_path / "cert.txt"
        cert.write_text("# pull the far edge forward\nF@0\n\n")
        code, out, _ = run("replay", str(path), str(cert))
        assert code == 0
        assert out == "n=3; [(1,3),(1,2)]\n"


class TestOrbitAndCensus:
    def test_orbit(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        code, out, _ = run("orbit", str(path))
        assert code == 0
        assert out == "size=3\ntruncated=false\n"

    def test_orbit_cap(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(2,3)]")
        code, out, _ = run("orbit", str(path), "--cap", "2")
        assert code == 0
        assert out == "size=2\ntruncated=true\n"

    def test_orbit_on_high_points_of_a_huge_degree(self, run, tmp_path):
        # the search codes only the edges among the seed's points, whatever n
        path = tmp_path / "f.txt"
        path.write_text(
            "n=1000000; [(999998,999999),(999998,999999),(999999,1000000),(999999,1000000)]"
        )
        t0 = time.perf_counter()
        code, out, _ = run("orbit", str(path))
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        assert out == "size=24\ntruncated=false\n"

    def test_census_summary(self, run):
        code, out, _ = run("census", "3", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[-1] == (
            "total factorizations=27 orbits=4 signatures=4 theorem=OK"
        )
        assert sorted(lines[:4]) == sorted(
            [
                "orbit size=1 truncated=false sig=n=3; m=4; e=0; [{1,2}:4]",
                "orbit size=1 truncated=false sig=n=3; m=4; e=0; [{1,3}:4]",
                "orbit size=1 truncated=false sig=n=3; m=4; e=0; [{2,3}:4]",
                "orbit size=24 truncated=false sig=n=3; m=4; e=0; [{1,2,3}:4]",
            ]
        )

    def test_census_quiet(self, run):
        code, out, _ = run("census", "--quiet", "3", "4")
        assert code == 0
        assert out == "total factorizations=27 orbits=4 signatures=4 theorem=OK\n"

    def test_census_deep_enumeration(self):
        # at degree 2 the enumeration guard trips only past 10^6 slots, so the
        # search runs one slot per factor; it must not hit Python's recursion
        # limit
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "census", "2", "3000", "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "total factorizations=1 orbits=1 signatures=1 theorem=OK\n"
        assert "Traceback" not in proc.stderr

    def test_census_truncated_is_unknown(self, run):
        code, out, _ = run("census", "--quiet", "3", "4", "--cap", "5")
        assert code == 0
        assert out.strip().endswith("theorem=UNKNOWN")


class TestProjectAndDot:
    def test_project(self, run):
        code, out, _ = run("project", "-", stdin="n=3; [1 2 -1 | 2 | ]")
        assert code == 0
        assert out == "n=3; [(1,3),(2,3),e]\n"

    def test_project_rejects_bad_word(self, run):
        code, _, err = run("project", "-", stdin="n=3; [1 2]")
        assert code == 2
        assert "word 0" in err

    def test_dot_stdout(self, run, f1_file):
        code, out, _ = run("dot", f1_file)
        assert code == 0
        assert out.startswith("graph factorization {\n")
        assert out.endswith("}\n")
        assert out.count(" -- ") == 6

    def test_dot_to_file(self, run, f1_file, tmp_path):
        target = tmp_path / "out.dot"
        code, out, _ = run("dot", f1_file, "--dot", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().endswith("}\n")


class TestStoreReaders:
    """sig, equiv and dot read a factorization's endpoint arrays: none of
    them builds the tuple view, so a million-factor file never costs a tuple
    per factor."""

    def test_no_command_builds_the_factor_view(self, run, f1_file, f2_file, tmp_path, monkeypatch):
        other = tmp_path / "other.txt"
        other.write_text("n=6; [(1,2),(1,2),(1,2),(1,2),(1,2),(1,2),(1,2),(1,2)]")
        dot_path = tmp_path / "g.dot"
        cases = [
            ("sig", f1_file),
            ("sig", f1_file, "--dot", str(dot_path)),
            ("equiv", f1_file, f2_file),
            ("equiv", f1_file, str(other)),
            ("dot", f1_file),
        ]
        expected = [run(*argv) for argv in cases]
        dot_text = dot_path.read_text()
        dot_path.unlink()

        def refuse(lo, hi):
            raise AssertionError("the factor view was built")

        monkeypatch.setattr(factorization, "_as_factors", refuse)
        assert [run(*argv) for argv in cases] == expected
        assert dot_path.read_text() == dot_text == expected[4][1]
        assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0]
        assert expected[0][1] == "n=6; m=8; e=0; [{1,4,5}:4,{2,3,6}:4]\n"
        with pytest.raises(AssertionError, match="view"):
            factorization.parse_factorization(F1_TEXT).factors


class TestErrorHandling:
    def test_malformed_factorization(self, run, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("n=3; [(1,2),(9)]")
        code, out, err = run("sig", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_degree_beyond_bound(self, run):
        code, out, err = run("sig", "-", stdin="n=99999999999999; [(1,2),(1,2)]")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_factor_entry_beyond_bound(self, run):
        code, out, err = run("sig", "-", stdin="n=3; [(%s,1)]" % ("9" * 5000))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_move_position_beyond_bound(self, run, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(1,2)]")
        code, out, err = run("replay", str(path), "-", stdin="F@%s\n" % ("9" * 5000))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("degree", ["2", "3"])
    def test_census_beyond_guard(self, degree):
        # refused before any DFS or big power: exit 2 within seconds
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "census", degree, "99999999999999999999"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "guard" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_census_degree_two_beyond_slot_guard(self):
        # one candidate tuple at degree 2, but 10^8 slots: refused at once
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "census", "2", "100000000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: length 100000000 exceeds the enumeration guard of 1000000 "
            "slots; use a smaller length\n"
        )

    def test_census_length_zero_at_a_large_degree(self):
        # the one empty factorization, without listing n(n-1)/2 transpositions
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "census", "100000", "0", "--quiet"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0
        assert proc.stdout == "total factorizations=1 orbits=1 signatures=1 theorem=OK\n"
        assert "Traceback" not in proc.stderr

    def test_census_degree_beyond_bound(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "census", "1000000000000", "0"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["sig", "equiv", "replay", "project"])
    def test_non_utf8_file(self, run, tmp_path, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00bad")
        good = tmp_path / "f.txt"
        good.write_text("n=3; [(1,2),(1,2)]")
        files = {"sig": [bad], "equiv": [good, bad], "replay": [good, bad], "project": [bad]}
        code, out, err = run(command, *map(str, files[command]))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}: not utf-8 text, bad byte at offset 0\n"

    def test_non_utf8_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"n=3; [\xff]"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["sig", "-"]) == 2
        assert capsys.readouterr().err == "error: stdin: not utf-8 text, bad byte at offset 6\n"

    def test_missing_file(self, run):
        code, _, err = run("sig", "/nonexistent/nope.txt")
        assert code == 2
        assert err.startswith("error: ")

    def test_out_of_memory_exits_2_without_a_traceback(self, run, f1_file, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("hurwitz.oracle.enumerate_orbit", exhausted)
        code, out, err = run("orbit", f1_file)
        assert code == 2
        assert out == ""
        assert err == "error: out of memory\n"
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


# Every file slot of every subcommand, each given a directory, a missing file
# and a non-UTF-8 file; then the hostile values of the other arguments.
# {f} is a good factorization file.
_FILE_SLOTS = [
    ("sig", "{x}"), ("equiv", "{x}", "{f}"), ("equiv", "{f}", "{x}"),
    ("canon", "{x}"), ("move", "{x}", "F@0"), ("replay", "{x}", "{f}"),
    ("replay", "{f}", "{x}"), ("orbit", "{x}"), ("project", "{x}"), ("dot", "{x}"),
]
_HOSTILE_ARGV = [
    tuple(arg.replace("{x}", bad) for arg in slot)
    for slot in _FILE_SLOTS
    for bad in ("{dir}", "{missing}", "{non_utf8}")
] + [
    ("orbit", "{f}", "--cap", "0"),
    ("orbit", "{f}", "--cap", "-5"),
    ("orbit", "{f}", "--cap", "x"),
    ("census", "3", "2", "--cap", "0"),
    ("census", "3", "2", "--cap", "-5"),
    ("census", "3", "-1"),
    ("census", "0", "2"),
    ("census", "1000001", "2"),
    ("census", "3", "4.5"),
    ("move", "{f}", "F@5"),
    ("move", "{f}", "I@-1"),
    ("move", "{f}", "F@0\nI@0"),
    ("sig", "{f}", "--dot", "{dir}/missing/g.dot"),
    ("dot", "{f}", "--dot", "{dir}/missing/g.dot"),
    ("dot", "{f}", "--dot", "{dir}"),
]


@pytest.mark.parametrize("argv", _HOSTILE_ARGV, ids=" ".join)
def test_hostile_arguments_exit_0_1_or_2(run, tmp_path, argv):
    """Every outcome is an exit code or argparse's usage exit, never an
    exception."""
    (tmp_path / "f.txt").write_text("n=3; [(1,2),(1,2)]")
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\x00bad")
    paths = {
        "f": tmp_path / "f.txt",
        "dir": tmp_path,
        "missing": tmp_path / "missing.txt",
        "non_utf8": tmp_path / "bad.txt",
    }
    try:
        code, _, err = run(*(arg.format(**paths) for arg in argv))
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 1, 2)
        assert code != 2 or err.startswith("error: ")


# Criterion 7's files, a certificate and a braid tuple; every subcommand runs
# at least once, on a success and, where it has one, on a failure.
_ENTRY_FILES = {
    "f1": "n=6; [(2,6),(1,4),(1,5),(3,6),(4,5),(1,5),(2,3),(3,6)]",
    "f2": "n=6; [(2,6),(1,5),(3,6),(3,6),(2,6),(1,5),(1,4),(1,4)]",
    "other": "n=6; [(1,2),(1,2),(1,2),(1,2),(1,2),(1,2),(1,2),(1,2)]",
    "bad": "n=6; [(1,2,",
    "cert": "F@0\nI@3\n# comment\nF@6\n",
    "braid": "n=3; [1 2 -1 | 2 | ]",
}
_ENTRY_ARGV = [
    ("sig", "{f1}"),
    ("sig", "{bad}"),
    ("equiv", "{f1}", "{f2}"),
    ("equiv", "{f1}", "{other}"),
    ("canon", "--cert", "{f1}"),
    ("canon", "{bad}"),
    ("move", "{f1}", "F@2"),
    ("move", "{f1}", "F@8"),
    ("replay", "{f1}", "{cert}"),
    ("orbit", "{f1}", "--cap", "50"),
    ("census", "3", "4"),
    ("census", "4", "4", "--quiet"),
    ("project", "{braid}"),
    ("project", "{f1}"),
    ("dot", "{f1}"),
]
# The hurwitz modules that every command loads, and what each command adds.
_BASE_MODULES = [
    "hurwitz", "hurwitz.cli", "hurwitz.errors", "hurwitz.factorization", "hurwitz.graph",
]
_COMMAND_MODULES = {
    "sig": [], "dot": [], "move": [], "replay": [],
    "canon": ["hurwitz.canonical"], "equiv": ["hurwitz.canonical"],
    "orbit": ["hurwitz.oracle"], "census": ["hurwitz.oracle"],
    "project": ["hurwitz.braid"],
}


@pytest.fixture
def entry_argv(tmp_path, request):
    paths = {}
    for name, text in _ENTRY_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    return [arg.format(**paths) for arg in request.param]


def _child_env():
    src = str(Path(hurwitz.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    @pytest.mark.parametrize("entry_argv", _ENTRY_ARGV, ids=" ".join, indirect=True)
    def test_fresh_interpreter_matches_main(self, run, entry_argv):
        """pytest has imported every module already, a fresh interpreter
        none: a command that relies on a module it does not import fails
        here."""
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", *entry_argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run(*entry_argv)

    @pytest.mark.parametrize("entry_argv", _ENTRY_ARGV, ids=" ".join, indirect=True)
    def test_each_command_loads_only_its_modules(self, entry_argv):
        code = (
            "import sys\n"
            "from hurwitz.cli import main\n"
            "main(sys.argv[1:])\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'hurwitz'),"
            " file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *entry_argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        loaded = proc.stderr.splitlines()[-1].split()
        assert loaded == sorted(_BASE_MODULES + _COMMAND_MODULES[entry_argv[0]])

    def test_module_invocation(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=3; [(1,2),(1,2)]")
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "sig", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "n=3; m=2; e=0; [{1,2}:2]\n"
