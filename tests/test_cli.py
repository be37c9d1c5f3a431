import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st
from test_golden import _argvs

from gwcell import cli, young
from gwcell.cli import main
from gwcell.engine import decompose_total, les_theorem_d
from gwcell.expr import FORMAL_SUM_SCHEMA, GWSummand, les_to_json, validate_json
from gwcell.twist import BaseSymbol, PicClass
from gwcell.verify import VerificationReport
from gwcell.young import YoungDiagram

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _child_env(src=SRC):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_of(*argv):
    """The stdout of a call that exits 0, captured without a fixture, as hypothesis tests need."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


class TestGrassmannCommand:
    def test_gr22_both_twists(self, capsys):
        code, out, _ = run(capsys, "grassmann", "-d", "2", "-m", "2", "--shift", "0", "--twist", "both", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        validate_json(doc, FORMAL_SUM_SCHEMA)
        assert doc["k"] == 4 and len(doc["gw"]) == 4

    def test_single_twist_by_generators(self, capsys):
        code, out, _ = run(capsys, "grassmann", "-d", "2", "-m", "2", "--twist", "L,Delta", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 2
        assert all(g["t"] == 1 for g in doc["gw"])

    def test_witt_mode(self, capsys):
        code, out, _ = run(capsys, "grassmann", "-d", "2", "-m", "2", "--mode", "witt", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 0

    def test_eval_mode_with_table(self, capsys, tmp_path):
        table = {
            "name": "t",
            "entries": [
                {"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]},
                {"theory": "GW", "shift": 0, "twist": ["L"], "degree": 0, "group": [0]},
                {"theory": "GW", "shift": -2, "twist": ["L"], "degree": 0, "group": [2]},
                {"theory": "GW", "shift": -4, "twist": ["L"], "degree": 0, "group": []},
            ],
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        code, out, _ = run(
            capsys, "grassmann", "-d", "2", "-m", "2", "--twist", "both",
            "--mode", "eval", "--base-table", str(path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        # 4 K copies (Z each) + GW[0] (Z) + two GW[-2] (Z/2 each) + GW[-4] (0)
        assert doc["group"] == [0, 0, 0, 0, 0, 2, 2]

    def test_eval_missing_keys_exit_3(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"name": "empty", "entries": []}))
        code, _, err = run(
            capsys, "grassmann", "-d", "2", "-m", "2", "--mode", "eval",
            "--base-table", str(path), "--format", "json",
        )
        assert code == 3
        assert "missing-keys" in err

    def test_eval_of_large_total_against_covering_table(self, capsys, tmp_path):
        s = decompose_total(8, 8, 0, PicClass.of(BaseSymbol("L")))
        groups = {("K", 0, ()): [2]}
        for g in s.gw:
            groups["GW", g.shift, ("L",)] = [0, -g.shift % 5]
        entries = [{"theory": th, "shift": sh, "twist": list(tw), "degree": 0, "group": grp} for (th, sh, tw), grp in groups.items()]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"name": "covering", "entries": entries}))
        code, out, err = run(capsys, "grassmann", "-d", "8", "-m", "8", "--twist", "both", "--mode", "eval", "--base-table", str(path))
        assert code == 0, err
        looked_up = [groups["K", 0, ()]] * s.k + [groups["GW", g.shift, ("L",)] for g in s.gw]
        assert json.loads(out)["group"] == sorted(o for grp in looked_up for o in grp if o != 1)

    def test_twist_names_escaped_as_json_dumps_escapes_them(self, capsys):
        code, out, _ = run(capsys, "grassmann", "-d", "2", "-m", "2", "--twist", '\u00e9,"x')
        assert code == 0
        doc = json.loads(out)
        assert doc["gw"][0]["twist"] == ['"x', "\u00e9"]
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert '"\\"x"' in out and '"\\u00e9"' in out

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), max_size=3), min_size=2, max_size=2), st.integers(-3, 3))
    def test_eval_text_is_json_dumps(self, tmp_path_factory, groups, degree):
        # P^1 at twist L is GW at shifts 0 and -1, no K; order 1 drops out, so the group may be empty
        path = tmp_path_factory.mktemp("eval") / "table.json"
        entries = [{"theory": "GW", "shift": -i, "twist": ["L"], "degree": degree, "group": g} for i, g in enumerate(groups)]
        path.write_text(json.dumps({"name": "t", "entries": entries}))
        doc = {"degree": degree, "group": sorted(o for g in groups for o in g if o != 1)}
        argv = ["grassmann", "-d", "1", "-m", "1", "--twist", "even", "--mode", "eval", f"--degree={degree}"]
        assert stdout_of(*argv, "--base-table", str(path)) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_flag_quotients_outside_the_flag_name_the_lowest_at_any_hash_seed(self):
        # the twist's generators are a set, whose order follows the hash seed of the base symbols' names
        argv = [sys.executable, "-m", "gwcell.cli", "grassmann", "-d", "2", "-m", "2", "--twist", "N,L,q11,q9"]
        errs = {
            subprocess.run(argv, capture_output=True, text=True, env=dict(_child_env(), PYTHONHASHSEED=seed)).stderr
            for seed in ("0", "1")
        }
        assert errs == {json.dumps({"error": "twist generator q9 outside the rank-4 flag"}) + "\n"}

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "grassmann", "-d", "-1", "-m", "2", "--format", "json")
        assert code == 1
        assert err

    def test_determinism(self, capsys):
        argv = ["grassmann", "-d", "3", "-m", "3", "--twist", "both", "--format", "json"]
        out1 = run(capsys, *argv)[1]
        out2 = run(capsys, *argv)[1]
        assert out1 == out2

    @pytest.mark.parametrize("token", ["Delta:x", "Delta:", "Delta:1.5", "Delta:-2"])
    def test_delta_without_a_rank_names_its_token(self, capsys, token):
        code, out, err = run(capsys, "grassmann", "-d", "2", "-m", "2", "--twist", f"L,{token}")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": f"twist generator {token!r}: the rank after 'Delta:' must be a nonnegative integer"}

    @pytest.mark.parametrize("argv", [("-d", "0", "-m", "3", "--twist", "odd"), ("-d", "0", "-m", "0", "--twist", "Delta")])
    def test_odd_twist_on_rank_zero_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "grassmann", *argv)
        assert code == 1 and out == ""
        assert "Delta:0" in json.loads(err)["error"]

    def test_odd_twist_on_rank_zero_rejected_under_optimize(self):
        # the check must not be an assert, which python -O strips
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "gwcell.cli", "grassmann", "-d", "0", "-m", "3", "--twist", "odd"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "error" in json.loads(proc.stderr)

    def test_frame_past_the_old_recursion_limit_solves(self):
        # Gr_2 splits about m/2 levels deep, past Python's recursion limit: the walk keeps its own stack
        proc = subprocess.run(
            [sys.executable, "-m", "gwcell.cli", "grassmann", "-d", "2", "-m", "3000", "--twist", "even"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["k"] == young.beta_parity(0, 2, 3000)

    def test_deeply_nested_base_table_is_domain_error(self, tmp_path):
        # json.load hits the recursion limit: the message names the nested input
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        proc = subprocess.run(
            [sys.executable, "-m", "gwcell.cli", "grassmann", "-d", "2", "-m", "2", "--mode", "eval",
             "--base-table", str(path)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert "recursion" in error and "nested" in error

    def test_deeply_nested_base_table_is_domain_error_in_process(self, capsys, tmp_path):
        # main itself turns the RecursionError into the JSON error, so a library caller gets it too
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "grassmann", "-d", "2", "-m", "2", "--mode", "eval", "--base-table", str(path))
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": "input file nested too deeply (Python's recursion limit reached)"}) + "\n"

    def test_eval_without_base_table_is_domain_error(self, capsys):
        code, out, err = run(capsys, "grassmann", "-d", "2", "-m", "2", "--mode", "eval")
        assert (code, out) == (1, "")
        assert err == json.dumps({"error": "--mode eval requires --base-table"}) + "\n"

    @pytest.mark.parametrize("d, m", [(2, 1975), (1975, 2)])
    def test_thin_frame_near_the_limit_solves(self, d, m):
        # both orientations of a deep thin frame solve
        proc = subprocess.run(
            [sys.executable, "-m", "gwcell.cli", "grassmann", "-d", str(d), "-m", str(m)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["meta"]["d"] == d

    def test_base_table_failing_schema_exit_1(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        bad = {"theory": "GW", "shift": 0, "twist": [], "degree": 0, "group": [-1]}
        path.write_text(json.dumps({"name": "bad", "entries": [bad]}))
        code, out, err = run(
            capsys, "grassmann", "-d", "2", "-m", "2", "--twist", "L", "--mode", "eval", "--base-table", str(path),
        )
        assert code == 1 and out == ""
        assert "group[0]" in json.loads(err)["error"]

    def test_base_table_giving_one_key_two_groups_exit_1(self, capsys, tmp_path):
        # an identical repeat is accepted; a second group for the same key is a domain error
        entry = {"theory": "GW", "shift": 0, "twist": ["L"], "degree": 0, "group": [2]}
        path = tmp_path / "table.json"
        argv = ("grassmann", "-d", "2", "-m", "2", "--twist", "L", "--mode", "eval", "--base-table", str(path))
        path.write_text(json.dumps({"name": "twice", "entries": [entry, dict(entry, group=[1, 2])]}))
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "missing-keys" in err
        path.write_text(json.dumps({"name": "clash", "entries": [entry, dict(entry, group=[0])]}))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "('GW', 0, ('L',), 0)" in json.loads(err)["error"] and len(err.splitlines()) == 1


class TestLazySchemaImport:
    # jsonschema is imported only for a document that fails its plain structural check; the CLI's own output is not
    # re-validated, and verify's documents pass their plain check
    @pytest.mark.parametrize(
        "code",
        [
            "import gwcell.cli",
            "from gwcell.cli import main; main(['grassmann', '-d', '2', '-m', '2'])",
            "from gwcell import verify; assert verify.run_all(6, 6).passed()",
        ],
    )
    def test_jsonschema_not_imported(self, code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys; print('jsonschema' in sys.modules)"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "False"

    def test_cli_import_adds_no_heavy_module(self):
        # the value classes are plain classes, only the verify command imports gwcell.verify, and it imports no jsonschema
        listed = "import sys; print(' '.join(sorted(sys.modules)))"
        bare, fresh = (
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env(), check=True)
            for code in (listed, f"import gwcell.cli; {listed}")
        )
        added = set(fresh.stdout.split()) - set(bare.stdout.split())
        assert "gwcell.cli" in added
        assert not added & {"dataclasses", "inspect", "typing", "gwcell.verify", "jsonschema"}
        proc = subprocess.run(  # -X importtime lists on stderr every module the child imports
            [sys.executable, "-X", "importtime", "-m", "gwcell.cli", "verify", "--max", "2"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"] is True
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert "gwcell.verify" in imported and not {name for name in imported if name.split(".")[0] == "jsonschema"}

    def test_well_formed_base_table_read_without_jsonschema(self, tmp_path):
        # a table passing the plain structural check never reaches jsonschema
        entries = [{"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [0]}]
        entries += [{"theory": "GW", "shift": -s, "twist": ["L"], "degree": 0, "group": [2]} for s in range(5)]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"name": "plain", "entries": entries}))
        argv = ["grassmann", "-d", "2", "-m", "2", "--mode", "eval", "--base-table", str(path)]
        code = f"from gwcell.cli import main; print(main({argv!r}))\nimport sys; print('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        *out, exit_code, imported = proc.stdout.splitlines()
        assert (exit_code, imported) == ("0", "False")
        assert json.loads("\n".join(out))["degree"] == 0

    def test_base_table_failing_schema_in_fresh_process(self, tmp_path):
        # the first validation imports jsonschema; its failure is still a JSON error with exit 1
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"name": "bad", "entries": [{"theory": "X"}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "gwcell.cli", "grassmann", "-d", "2", "-m", "2", "--mode", "eval",
             "--base-table", str(path)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "does not match its schema" in json.loads(proc.stderr)["error"]

    def test_missing_jsonschema_is_a_json_error(self, capsys, monkeypatch, tmp_path):
        # verify runs without jsonschema; a table that needs it exits 1 without it, with one JSON line on stderr
        entry = {"theory": "K", "shift": 0, "twist": [], "degree": 0, "group": [2.0]}  # the plain check leaves 2.0 to jsonschema
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"name": "t", "entries": [entry]}))
        monkeypatch.setitem(sys.modules, "jsonschema", None)
        monkeypatch.setitem(sys.modules, "jsonschema.exceptions", None)
        code, out, err = run(capsys, "verify", "--max", "2")
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True
        code, out, err = run(capsys, "grassmann", "-d", "2", "-m", "2", "--mode", "eval", "--base-table", str(path))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert "jsonschema" in json.loads(line)["error"]


class TestYoungCommand:
    def test_even_ascii_gr33(self, capsys):
        code, out, _ = run(capsys, "young", "-d", "3", "-m", "3", "--even", "--render", "ascii")
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 4
        assert any("###" in b and "#.." in b for b in blocks)  # the (3,1,1) figure

    def test_json_render(self, capsys):
        code, out, _ = run(capsys, "young", "-d", "2", "-m", "2", "--render", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["diagrams"]) == 6

    def test_even_14x14_is_the_filter(self, capsys):
        # the filter over the vectors whose rows share a parity, merged descending: any other has an odd drop
        code, out, _ = run(capsys, "young", "-d", "14", "-m", "14", "--even")
        assert code == 0
        got = [tuple(rows) for rows in json.loads(out)["diagrams"]]
        same_parity = (combinations_with_replacement(range(p, -1, -2), 14) for p in (14, 13))
        want = sorted((rows for vectors in same_parity for rows in vectors if young._even_rows(rows, 14)), reverse=True)
        assert len(got) == 6864
        assert got == want

    def test_frame_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "young", "-d", "1500", "-m", "1")
        assert code == 0
        assert len(json.loads(out)["diagrams"]) == 1501

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("d", range(7))
    def test_written_text_is_json_dumps_and_render_ascii(self, d, even):
        # reference: the document of one YoungDiagram per vector, and render_ascii of each
        for m in range(7):
            frame = young.Frame(d, m)
            diagrams = young.enumerate_even(frame) if even else young.enumerate_diagrams(frame)
            doc = {"frame": {"d": d, "m": m}, "even_only": even, "diagrams": [list(lam.rows) for lam in diagrams]}
            flags = ["-d", str(d), "-m", str(m)] + (["--even"] if even else [])
            assert stdout_of("young", *flags) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
            pictures = "\n\n".join(young.render_ascii(lam) for lam in diagrams)
            assert stdout_of("young", *flags, "--render", "ascii") == pictures + "\n"

    @pytest.mark.parametrize("argv", [("-d", "-1", "-m", "2"), ("-d", "2", "-m", "-3", "--render", "ascii")])
    def test_bad_frame_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, "young", *argv)
        assert code == 1 and out == ""
        assert "frame dimensions must be nonnegative" in json.loads(err)["error"]

    def test_writes_in_bounded_memory(self):
        # 19 MB of stdout; a document built whole peaked at about 235 MB.  Linux counts the
        # spawning process's peak in the child's ru_maxrss, so a bare interpreter spawns it.
        probe = (
            "import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ,"
            " file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]);"
            " _, status, usage = os.wait4(pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
        )
        argv = [sys.executable, "-c", probe, sys.executable, "-m", "gwcell.cli", "young", "-d", "10", "-m", "10"]
        code, kib = map(int, subprocess.run(argv, capture_output=True, text=True, env=_child_env()).stdout.split())
        assert code == 0 and kib < 64 * 1024


# the error each bad command line gets, word for word
USAGE_ERRORS = {
    "verify --max x": "gwcell verify: argument --max: invalid int value: 'x'",
    "grassmann -d 2": "gwcell grassmann: the following arguments are required: -m",
    "grassmann -d x -m 2": "gwcell grassmann: argument -d: invalid int value: 'x'",
    "grassmann -d 2 -m 2 --mode nope":
        "gwcell grassmann: argument --mode: invalid choice: 'nope' (choose from 'formal', 'witt', 'eval')",
    "nope": "gwcell: argument command: invalid choice: 'nope' "
            "(choose from 'grassmann', 'projbundle', 'young', 'les', 'verify')",
    "": "gwcell: the following arguments are required: command",
    # a leftover word is reported by the top-level parser, as when it parsed the whole line
    "grassmann -d 2 -m 2 zz": "gwcell: unrecognized arguments: zz",
    "young -d 2 -m 2 --even=1": "gwcell young: argument --even: ignored explicit argument '1'",
}


class TestUsageErrors:
    # argparse's own exit 2 would read as a failed verification
    @pytest.mark.parametrize("argv", list(USAGE_ERRORS))
    def test_bad_arguments_are_domain_errors(self, capsys, argv):
        assert run(capsys, *shlex.split(argv)) == (1, "", json.dumps({"error": USAGE_ERRORS[argv]}) + "\n")

    @pytest.mark.parametrize("argv", [["--help"], ["grassmann", "--help"], ["grassmann", "-d", "2", "-m", "2", "--he"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        prog = "gwcell" if argv[0].startswith("-") else f"gwcell {argv[0]}"
        assert out.startswith(f"usage: {prog} ")


def _process(*argv, **kwargs):
    """Run ``python ARGV`` with src importable and block-buffered streams, as a shell would.

    PYTHONUNBUFFERED is removed from the child's environment: with it set,
    every write reaches the descriptor at once and a missing flush never shows.
    """
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *argv], env=env, **kwargs)


class TestProcessExit:
    """The `python -m gwcell.cli` process: flushed streams, exit codes, and the cases that keep Python's own exit."""

    @pytest.mark.parametrize("argv", [
        ["grassmann", "-d", "8", "-m", "8", "--twist", "both"],  # larger than the 8 KiB stdout buffer
        ["grassmann", "-d", "2", "-m", "2"],
    ])
    def test_stdout_to_a_file_is_mains(self, tmp_path, argv):
        path = tmp_path / "out"
        with open(path, "wb") as f:
            proc = _process("-m", "gwcell.cli", *argv, stdout=f, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert path.read_bytes() == stdout_of(*argv).encode()

    @pytest.mark.parametrize("argv", [
        ["grassmann", "-d", "2", "-m", "2"],  # fits the buffer: only the final flush meets the closed pipe
        ["grassmann", "-d", "8", "-m", "8", "--twist", "both"],
    ])
    def test_closed_pipe_is_one_json_error(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _process("-m", "gwcell.cli", *argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {"error": "[Errno 32] Broken pipe"}

    def test_closed_stdout_descriptor_exits_zero(self):
        # Python starts with sys.stdout None and print writes nothing, as without a flush
        shell = ["sh", "-c", 'exec "$0" -m gwcell.cli grassmann -d 2 -m 2 >&-', sys.executable]
        proc = subprocess.run(shell, env=_child_env(), stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_help_exits_zero_with_usage(self):
        proc = _process("-m", "gwcell.cli", "--help", capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: gwcell ")

    def test_profiler_still_writes_its_report(self):
        proc = _process("-m", "cProfile", "-m", "gwcell.cli", "grassmann", "-d", "2", "-m", "2",
                        capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(stdout_of("grassmann", "-d", "2", "-m", "2"))
        assert " function calls " in proc.stdout

    @pytest.mark.parametrize("tool", [
        pytest.param("monitoring", marks=pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is Python 3.12+")),
        "none",
    ])
    def test_a_monitoring_tool_keeps_pythons_exit(self, tool):
        # cProfile and coverage may register a sys.monitoring tool instead of a profile or trace function
        child = (
            "import atexit, sys\n"
            "if sys.argv[1] == 'monitoring':\n"
            "    sys.monitoring.use_tool_id(sys.monitoring.PROFILER_ID, 'test')\n"
            "atexit.register(print, 'atexit ran')\n"
            "sys.argv[1:] = ['grassmann', '-d', '2', '-m', '2']\n"
            "from gwcell import cli\n"
            "cli.run()\n"
        )
        proc = _process("-c", child, tool, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        atexit_line = "atexit ran\n" if tool == "monitoring" else ""
        assert proc.stdout == stdout_of("grassmann", "-d", "2", "-m", "2") + atexit_line

    def test_console_script_is_the_main_block_entry(self):
        # read as text, since tomllib is Python 3.11+
        with open(os.path.join(ROOT, "pyproject.toml")) as f:
            (script,) = [line for line in f.read().splitlines() if line.startswith("gwcell = ")]
        with open(cli.__file__) as f:
            main_block = f.read().split('if __name__ == "__main__":\n', 1)[1]
        module, name = json.loads(script.split(" = ", 1)[1]).split(":")
        assert module == "gwcell.cli" and callable(getattr(cli, name))
        assert main_block.strip() == f"{name}()"


class TestOneParsePerCall:
    def test_namespace_is_the_top_level_parsers(self):
        for argv in _argvs():
            assert vars(cli._parse(argv)) == vars(cli._PARSER.parse_args(argv)), argv

    @pytest.mark.parametrize("argv", [
        ["grassmann", "-d", "2", "-m", "2", "--twist", "odd"],
        ["projbundle", "-r", "3", "--no-split"],
        ["young", "-d", "2", "-m", "2", "--even"],
        ["les", "-r", "1"],
        ["verify", "--max", "1"],
    ])
    def test_main_parses_once_with_the_commands_parser(self, capsys, monkeypatch, argv):
        parsers = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            parsers.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run(capsys, *argv)[0] == 0
        assert parsers == [f"gwcell {argv[0]}"]


class TestProjBundleCommand:
    def test_split_decomposition(self, capsys):
        code, out, _ = run(capsys, "projbundle", "-r", "2", "--parity", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 1 and doc["gw"][0]["shift"] == -2

    def test_nonsplit_les(self, capsys):
        code, out, _ = run(capsys, "projbundle", "-r", "3", "--no-split", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["maps"] == ["(Theta_even, q^*)", "q_*", "(0, eta cup c(E))"]

    def test_nonsplit_les_as_text(self, capsys):
        code, out, _ = run(capsys, "projbundle", "-r", "3", "--no-split", "--shift", "-1", "--format", "text")
        assert code == 0
        assert out == LES_R3_SHIFT_MINUS_1_TEXT


# a term a line, each map's name between its ends; the last map returns to the first term
LES_R3_SHIFT_MINUS_1_TEXT = """\
1.K (+) GW[-1](O)?
  --(Theta_even, q^*)-->
GW^[-1](P(E))
  --q_*-->
GW[-4](detE)?
  --(0, eta cup c(E))-->
1.K (+) GW[-1](O)?
"""


class TestLesCommand:
    def test_r1(self, capsys):
        term = {"k": 0, "meta": {"kind": "les-term", "r": 1, "shift": 0, "site": "S"}}
        gw = {"diagram": None, "rho": None, "t": 0}
        expected = {
            "maps": ["(Theta_even, q^*)", "q_*", "(0, eta cup c(E))"],
            "terms": [
                dict(term, gw=[dict(gw, shift=0, twist=[])]),
                "GW^[0](P(E))",
                dict(term, gw=[dict(gw, shift=-1, twist=["detE"])]),
            ],
        }
        code, out, _ = run(capsys, "les", "-r", "1", "--format", "json")
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "les", "-r", "3", "--shift", "-1", "--format", "text")
        assert code == 0
        assert out == LES_R3_SHIFT_MINUS_1_TEXT

    def test_even_rank_is_domain_error(self, capsys):
        code, _, _ = run(capsys, "les", "-r", "2", "--format", "json")
        assert code == 1

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(range(1, 16, 2)), st.integers(-20, 20))
    def test_written_text_is_json_dumps(self, r, shift):
        want = json.dumps(les_to_json(les_theorem_d(r, shift)), sort_keys=True, indent=2) + "\n"
        assert stdout_of("les", "-r", str(r), f"--shift={shift}") == want
        assert stdout_of("projbundle", "-r", str(r), f"--shift={shift}", "--no-split") == want

    @pytest.mark.parametrize("r", [-1, -3])
    def test_rank_below_two_is_domain_error(self, capsys, r):
        # an odd r below 1 has no bundle: it must not print a term with negative k
        code, out, err = run(capsys, "les", "-r", str(r), "--format", "json")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": f"need bundle rank >= 2, got r+1 = {r + 1}"}


class TestVerifyCommand:
    def test_exit_zero_on_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "2", "--format", "text")
        assert code == 0
        assert "pass" in out


class TestTextRenderedOnlyForText:
    @pytest.mark.parametrize(
        "argv",
        [
            ("grassmann", "-d", "2", "-m", "3"),
            ("grassmann", "-d", "2", "-m", "3", "--mode", "witt"),
            ("projbundle", "-r", "2"),
        ],
    )
    def test_json_output_renders_no_text(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_sum_text", lambda s: pytest.fail("text rendered for JSON output"))
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["gw"]

    def test_verify_json_renders_no_text(self, capsys, monkeypatch):
        monkeypatch.setattr(VerificationReport, "to_text", lambda r: pytest.fail("text rendered"))
        code, out, _ = run(capsys, "verify", "--max", "2", "--format", "json")
        assert code == 0 and json.loads(out)["ok"] is True


class TestCliBuildsNoSummandObjects:
    @pytest.mark.parametrize("mode", ["formal", "witt", "eval"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("twist", ["both", "L,Delta"])
    def test_grassmann_builds_no_gw_summand_or_young_diagram(self, capsys, monkeypatch, mode, fmt, twist):
        def forbidden(*args, **kwargs):
            raise AssertionError("the CLI built a GWSummand or a YoungDiagram")

        monkeypatch.setattr(YoungDiagram, "__init__", forbidden)
        monkeypatch.setattr(GWSummand, "__init__", forbidden)
        if mode == "eval":  # the table covers the trivial bundle's twist L at shifts -4 to 3
            extra = ["-d", "2", "-m", "2", "--base-table", os.path.join(ROOT, "tables", "field_w2.json")]
        else:
            extra = ["-d", "4", "-m", "3", "--bundle", "flagged"]
        code, out, err = run(capsys, "grassmann", *extra, "--twist", twist, "--mode", mode, "--format", fmt)
        assert (code, err) == (0, "") and out

    @pytest.mark.parametrize("argv", [(), ("--even",), ("--render", "ascii"), ("--even", "--render", "ascii")])
    def test_young_builds_no_young_diagram(self, capsys, monkeypatch, argv):
        def forbidden(*args, **kwargs):
            raise AssertionError("the CLI built a YoungDiagram")

        monkeypatch.setattr(YoungDiagram, "__init__", forbidden)
        code, out, err = run(capsys, "young", "-d", "4", "-m", "5", *argv)
        assert (code, err) == (0, "") and out


class TestEnvFormat:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GWCELL_FORMAT", "text")
        code, out, _ = run(capsys, "grassmann", "-d", "1", "-m", "1", "--twist", "even")
        assert code == 0
        assert "GW[0]" in out

    def test_env_read_at_every_call(self, capsys, monkeypatch):
        monkeypatch.delenv("GWCELL_FORMAT", raising=False)
        argv = ("grassmann", "-d", "1", "-m", "1", "--twist", "even")
        assert json.loads(run(capsys, *argv)[1])["k"] == 0
        monkeypatch.setenv("GWCELL_FORMAT", "text")
        assert run(capsys, *argv)[1] == "GW[-1](L)(1) (+) GW[0](L)()\n"

    def test_unknown_env_format_prints_json(self, capsys, monkeypatch):
        monkeypatch.setenv("GWCELL_FORMAT", "xml")
        code, out, _ = run(capsys, "grassmann", "-d", "1", "-m", "1", "--twist", "even")
        assert code == 0
        assert json.loads(out)["k"] == 0


def readme_cli_commands():
    """The gwcell commands of README's CLI block, as argument lists."""
    with open(os.path.join(ROOT, "README.md")) as f:
        block = f.read().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("gwcell ")]


class TestReadmeExamples:
    @pytest.mark.parametrize("argv", readme_cli_commands(), ids=" ".join)
    def test_cli_example_exits_zero(self, capsys, monkeypatch, argv):
        monkeypatch.chdir(ROOT)
        monkeypatch.delenv("GWCELL_FORMAT", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        if "eval" in argv:
            assert json.loads(out)["group"] == [0] * 10
