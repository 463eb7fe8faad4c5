"""Command-line surface: subcommands, exit codes, output formats."""

import json
import subprocess
import sys

import pytest

from grcat.cli import main, params_literal, parse_params_literal
from grcat.cocycles import (CocycleParams, build_table, enumerate_params,
                            params_to_doc, table_to_json)
from grcat.groups import Group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_h3(capsys):
    code, out, _ = run_cli(capsys, "h3", "--orders", "2,2")
    assert code == 0 and out == "8\n"
    code, out, _ = run_cli(capsys, "h3", "--orders", "2,2", "--format", "plain")
    assert code == 0 and out == "8\n"
    code, out, _ = run_cli(capsys, "h3", "--orders", "6,4")
    assert code == 0 and out == "48\n"


def test_verify_pentagon_spec_example(capsys):
    code, out, _ = run_cli(capsys, "verify", "pentagon",
                           "--orders", "2,2", "--params", "1,0;1;")
    assert code == 0
    assert json.loads(out) == {"holds": True}
    code, out, _ = run_cli(capsys, "verify", "pentagon", "--orders", "2,2",
                           "--params", "1,0;1;", "--format", "plain")
    assert code == 0 and out == "holds\n"


def test_verify_symmetry_failure_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "symmetry",
                           "--orders", "2,2,2", "--params", ";;1")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["counterexample"] == {"x": [0, 0, 1], "y": [0, 1, 0],
                                     "z": [1, 0, 0]}
    code, _, _ = run_cli(capsys, "verify", "symmetry",
                         "--orders", "2,2,2", "--params", "1,1,1;1,1,1;")
    assert code == 0


def test_verify_chain_map(capsys):
    code, out, _ = run_cli(capsys, "verify", "chain-map", "--orders", "4,3")
    assert code == 0 and json.loads(out) == {"holds": True}


def test_cocycle_list_and_count(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "list", "--orders", "2,2",
                           "--count")
    assert code == 0 and out == "8\n"
    code, out, _ = run_cli(capsys, "cocycle", "list", "--orders", "2,2")
    docs = json.loads(out)
    assert code == 0 and len(docs) == 8
    assert docs[0]["a"] == [0, 0]
    code, out, _ = run_cli(capsys, "cocycle", "list", "--orders", "2",
                           "--format", "plain")
    assert out.splitlines() == ["0;;", "1;;"]


def test_cocycle_eval(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "eval", "--orders", "2",
                           "--params", "1", "--x", "1", "--y", "1", "--z", "1")
    assert code == 0 and json.loads(out) == "1/2"
    code, out, _ = run_cli(capsys, "cocycle", "eval", "--orders", "6,4",
                           "--params", "0,0;1;", "--x", "0,1", "--y", "3,0",
                           "--z", "3,0", "--format", "plain")
    assert code == 0 and out == "1/4\n"


def test_table_classify_round_trip(capsys, tmp_path):
    group = Group((2, 2))
    for a in enumerate_params(group):
        code, out, _ = run_cli(capsys, "cocycle", "table", "--orders", "2,2",
                               "--params", params_literal(a))
        assert code == 0
        path = tmp_path / "table.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "classify", "--table", str(path))
        assert code == 0
        assert json.loads(out) == params_to_doc(a)

    # uniqueness scan adds the flag to the JSON document
    a = CocycleParams(group, (1, 1), (1,), ())
    path = tmp_path / "one.json"
    path.write_text(table_to_json(build_table(a)))
    code, out, _ = run_cli(capsys, "classify", "--table", str(path),
                           "--check-unique")
    doc = json.loads(out)
    assert code == 0 and doc["unique"] is True and doc["a"] == [1, 1]


def test_classify_non_cocycle_table(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "orders": [2],
        "entries": [{"x": [1], "y": [1], "z": [1], "w": "1/3"}]}))
    code, out, err = run_cli(capsys, "classify", "--table", str(path))
    assert code == 1 and out == ""
    assert "classify:" in err


def test_classify_zero_denominator_exits_2(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "orders": [2],
        "entries": [{"x": [1], "y": [1], "z": [1], "w": "1/0"}]}))
    code, out, err = run_cli(capsys, "classify", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("grcat:") and err.count("\n") == 1


def test_classify_top_level_array_exits_2(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([{"orders": [2], "entries": []}]))
    code, out, err = run_cli(capsys, "classify", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("grcat:") and err.count("\n") == 1


@pytest.mark.parametrize("doc, message", [
    ({"orders": 5, "entries": []}, '"orders" must be a list of integers'),
    ({"orders": "2", "entries": []}, '"orders" must be a list of integers'),
    ({"orders": [2], "entries": [{"x": 5, "y": [1], "z": [1], "w": "1/2"}]},
     'entry "x" must be a list of integers'),
    ({"orders": [2], "entries": [{"x": [True], "y": [1], "z": [1], "w": "1/2"}]},
     'entry "x" must be a list of integers'),
    ({"orders": [2], "entries": [{"x": [1], "y": [1], "z": [1]}]},
     'a table entry has no "w"'),
    ({"orders": [101], "entries": []}, "above 10^6"),
])
def test_malformed_table_documents_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "pentagon", "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("grcat:") and err.count("\n") == 1 and message in err


def test_classify_groups_above_order_twelve(capsys, tmp_path):
    for orders, literal, params in (
            ("4,4", "1,1;1", ([1, 1], {"1,2": 1}, {})),
            ("2,2,2,2", "1,0,0,1;0,1,0,0,0,0;1,0,0,0",
             ([1, 0, 0, 1], {"1,3": 1}, {"1,2,3": 1}))):
        code, out, _ = run_cli(capsys, "cocycle", "table", "--orders", orders,
                               "--params", literal)
        assert code == 0
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "classify", "--table", str(path))
        doc = json.loads(out)
        assert code == 0 and (doc["a"], doc["a2"], doc["a3"]) == params, orders


def test_classify_orders_cross_check(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(table_to_json(build_table(
        CocycleParams(Group((2,)), (1,), (), ()))))
    code, out, _ = run_cli(capsys, "classify", "--table", str(path),
                           "--orders", "2")
    assert code == 0 and json.loads(out)["a"] == [1]
    code, _, err = run_cli(capsys, "classify", "--table", str(path),
                           "--orders", "4")
    assert code == 2 and "does not match" in err


def test_verify_table_file_input(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(table_to_json(build_table(
        CocycleParams(Group((2, 2)), (1, 0), (1,), ()))))
    code, out, _ = run_cli(capsys, "verify", "normalized", "--table", str(path))
    assert code == 0 and json.loads(out) == {"holds": True}
    code, _, err = run_cli(capsys, "verify", "pentagon", "--table", str(path),
                           "--orders", "3")
    assert code == 2 and "does not match" in err


def test_braidings_and_oracle(capsys):
    code, out, _ = run_cli(capsys, "braidings", "--orders", "2,2",
                           "--params", "", "--count")
    assert code == 0 and out == "16\n"
    code, out, _ = run_cli(capsys, "braidings", "--orders", "2",
                           "--params", "1")
    assert code == 0 and json.loads(out) == [[["1/4"]], [["3/4"]]]
    code, out, _ = run_cli(capsys, "oracle", "braidings", "--orders", "2",
                           "--params", "1", "--format", "plain")
    assert code == 0 and out.splitlines() == ["1/4", "3/4"]
    code, out, _ = run_cli(capsys, "oracle", "braidings", "--orders", "3",
                           "--params", "1", "--count")
    assert code == 0 and out == "0\n"
    code, out, _ = run_cli(capsys, "braidings", "--orders", "3",
                           "--params", "1", "--format", "plain")
    assert code == 0 and out == "(none)\n"


def test_braidings_count_is_closed_form(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--count must not enumerate")
    monkeypatch.setattr("grcat.braidings.enumerate_braidings", refuse)
    code, out, _ = run_cli(capsys, "braidings", "--count", "--orders",
                           "2,2,2,2", "--params", "0,0,0,0")
    assert code == 0 and out == "65536\n"


def test_oracle_full_space(capsys):
    code, out, _ = run_cli(capsys, "oracle", "full-space", "--orders", "2",
                           "--params", "1", "--values-order", "8", "--count")
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(capsys, "oracle", "full-space", "--orders", "2",
                           "--params", "1", "--values-order", "8",
                           "--no-prune", "--max-cells", "4096", "--count")
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(capsys, "oracle", "full-space", "--orders", "2",
                           "--params", "1", "--values-order", "8")
    docs = json.loads(out)
    assert code == 0 and len(docs) == 2
    assert docs[0]["entries"] == [{"x": [1], "y": [1], "r": "1/4"}]


def test_guard_overrides_and_exit_2(capsys):
    code, _, err = run_cli(capsys, "cocycle", "table", "--orders", "6,4",
                           "--params", "", "--max-cells", "10")
    assert code == 2 and "grcat:" in err
    code, _, err = run_cli(capsys, "oracle", "braidings", "--orders", "8,4",
                           "--params", "")
    assert code == 2 and "candidate grid" in err
    code, _, err = run_cli(capsys, "oracle", "full-space", "--orders", "2,2",
                           "--params", "", "--values-order", "8")
    assert code == 2 and "function space" in err


def test_usage_and_parse_errors(capsys, tmp_path):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "h3")[0] == 2
    assert run_cli(capsys, "h3", "--orders", "2,x")[0] == 2
    assert run_cli(capsys, "h3", "--orders", "1,2")[0] == 2
    code, _, err = run_cli(capsys, "cocycle", "eval", "--orders", "2",
                           "--params", "1,1", "--x", "1", "--y", "1", "--z", "1")
    assert code == 2 and "expected 1 diagonal" in err
    # exponents reduce componentwise, so 5 on Z_2 is just the generator
    code, out, _ = run_cli(capsys, "cocycle", "eval", "--orders", "2",
                           "--params", "1", "--x", "5", "--y", "1", "--z", "1")
    assert code == 0 and json.loads(out) == "1/2"
    code, _, _ = run_cli(capsys, "cocycle", "eval", "--orders", "2",
                         "--params", "1", "--x", "1,0", "--y", "1", "--z", "1")
    assert code == 2
    assert run_cli(capsys, "classify", "--table",
                   str(tmp_path / "missing.json"))[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(capsys, "classify", "--table", str(broken))[0] == 2


def test_verify_output_is_deterministic(capsys):
    argv = ["verify", "pentagon", "--orders", "2,2", "--params", "1,1;1;"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    argv = ["braidings", "--orders", "2,2", "--params", ""]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("GRCAT_THREADS", "abc")
    code, out, err = run_cli(capsys, "h3", "--orders", "2")
    assert code == 0 and out == "2\n"
    assert "GRCAT_THREADS" in err
    monkeypatch.setenv("GRCAT_THREADS", "4")
    code, _, err = run_cli(capsys, "h3", "--orders", "2")
    assert code == 0 and err == ""


def test_params_literal_round_trip():
    group = Group((2, 2, 2))
    for a in (CocycleParams(group, (1, 0, 1), (0, 1, 0), (1,)),
              CocycleParams(group, (0, 0, 0), (0, 0, 0), (0,))):
        assert parse_params_literal(group, params_literal(a)) == a
    z2 = Group((2,))
    assert parse_params_literal(z2, "") == CocycleParams(z2, (0,), (), ())
    assert parse_params_literal(z2, "1") == CocycleParams(z2, (1,), (), ())
    assert parse_params_literal(z2, "1;;") == CocycleParams(z2, (1,), (), ())
    with pytest.raises(ValueError):
        parse_params_literal(z2, "1;;;")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "grcat", "h3",
                           "--orders", "4,2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "16\n"
