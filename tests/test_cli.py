import json
import os
import shlex
import subprocess
import sys

import pytest

from gwcell import cli
from gwcell.cli import main
from gwcell.engine import decompose_total
from gwcell.expr import FORMAL_SUM_SCHEMA, GWSummand, validate_json
from gwcell.twist import BaseSymbol, PicClass
from gwcell.young import YoungDiagram

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "grassmann", "-d", "-1", "-m", "2", "--format", "json")
        assert code == 1
        assert err

    def test_determinism(self, capsys):
        argv = ["grassmann", "-d", "3", "-m", "3", "--twist", "both", "--format", "json"]
        out1 = run(capsys, *argv)[1]
        out2 = run(capsys, *argv)[1]
        assert out1 == out2

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

    def test_frame_too_deep_is_domain_error(self):
        # Gr_2 recurses about m/2 levels deep: past Python's limit it must still exit 1 with JSON
        proc = subprocess.run(
            [sys.executable, "-m", "gwcell.cli", "grassmann", "-d", "2", "-m", "3000", "--twist", "even"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "recursion" in json.loads(proc.stderr.splitlines()[-1])["error"]

    def test_deeply_nested_base_table_is_domain_error(self, tmp_path):
        # json.load, not the frame, hits the recursion limit: the message names both causes
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

    @pytest.mark.parametrize("d, m", [(2, 1975), (1975, 2)])
    def test_thin_frame_near_the_limit_solves(self, d, m):
        # both orientations of a deep thin frame fit in the default recursion limit
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


class TestLazySchemaImport:
    # jsonschema is imported only to read a document from outside; the CLI's own output is not re-validated
    @pytest.mark.parametrize(
        "code",
        [
            "import gwcell.cli",
            "from gwcell.cli import main; main(['grassmann', '-d', '2', '-m', '2'])",
        ],
    )
    def test_jsonschema_not_imported(self, code):
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys; print('jsonschema' in sys.modules)"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "False"

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

    def test_frame_deeper_than_the_recursion_limit(self, capsys):
        code, out, _ = run(capsys, "young", "-d", "1500", "-m", "1")
        assert code == 0
        assert len(json.loads(out)["diagrams"]) == 1501


class TestUsageErrors:
    # argparse's own exit 2 would read as a failed verification
    @pytest.mark.parametrize("argv", [
        "verify --max x",
        "grassmann -d 2",
        "grassmann -d x -m 2",
        "grassmann -d 2 -m 2 --mode nope",
        "nope",
        "",
    ])
    def test_bad_arguments_are_domain_errors(self, capsys, argv):
        code, out, err = run(capsys, *shlex.split(argv))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and json.loads(err)["error"].startswith("gwcell")

    @pytest.mark.parametrize("argv", [["--help"], ["grassmann", "--help"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith("usage: gwcell")


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
        monkeypatch.setattr(cli.verify.VerificationReport, "to_text", lambda r: pytest.fail("text rendered"))
        code, out, _ = run(capsys, "verify", "--max", "2", "--format", "json")
        assert code == 0 and json.loads(out)["ok"] is True


class TestCliBuildsNoSummandObjects:
    @pytest.mark.parametrize("mode", ["formal", "witt", "eval"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("twist", ["both", "L,Delta"])
    def test_grassmann_builds_no_gw_summand_or_young_diagram(self, capsys, monkeypatch, mode, fmt, twist):
        def forbidden(*args, **kwargs):
            raise AssertionError("the CLI built a GWSummand or a YoungDiagram")

        monkeypatch.setattr(YoungDiagram, "__post_init__", forbidden)
        monkeypatch.setattr(GWSummand, "__init__", forbidden)
        if mode == "eval":  # the table covers the trivial bundle's twist L at shifts -4 to 3
            extra = ["-d", "2", "-m", "2", "--base-table", os.path.join(ROOT, "tables", "field_w2.json")]
        else:
            extra = ["-d", "4", "-m", "3", "--bundle", "flagged"]
        code, out, err = run(capsys, "grassmann", *extra, "--twist", twist, "--mode", mode, "--format", fmt)
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
