"""Command-line surface: subcommands, exit codes, output formats."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from grcat import complexes
from grcat.cli import main, params_literal, parse_params_literal
from grcat.cocycles import (CocycleParams, build_table, enumerate_params,
                            params_to_doc, table_to_json)
from grcat.groups import Group


ROOT = Path(__file__).resolve().parent.parent


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


def test_verify_chain_map_size_guard(capsys, monkeypatch):
    # the degree-3 squares take about |G|^4 steps: 64^4 is above the default
    # bound, so Z_8^2 is refused with one line before any work is done
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "chain-map", "--orders", "8,8")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("grcat: ") and "bound" in err
    # the bound is |G|^4 itself: Z_4 has 256
    code, out, err = run_cli(capsys, "verify", "chain-map", "--orders", "4",
                             "--max-cells", "255")
    assert code == 2 and out == "" and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "verify", "chain-map", "--orders", "4",
                           "--max-cells", "256")
    assert code == 0 and json.loads(out) == {"holds": True}
    # a larger --max-cells lets Z_8^2 through; the squares themselves are
    # stubbed so that the test stays fast
    monkeypatch.setattr(complexes, "_square_failures",
                        lambda shape, source, target: {1: None, 2: None, 3: None})
    code, out, _ = run_cli(capsys, "verify", "chain-map", "--orders", "8,8",
                           "--max-cells", str(64 ** 4))
    assert code == 0 and json.loads(out) == {"holds": True}



def test_verify_chain_map_failure_output(capsys, monkeypatch):
    # the squares are stubbed to fail in degrees 2 and 3: the lowest degree
    # is reported, with its bar generator, and the exit code is 1
    group = Group((4, 3))
    gen = complexes.BarGenerator((group.element((1, 0)), group.element((0, 2))))
    deeper = complexes.BarGenerator((group.element((1, 1)),) * 3)
    monkeypatch.setattr(complexes, "_square_failures",
                        lambda shape, source, target: {1: None, 2: gen, 3: deeper})
    code, out, _ = run_cli(capsys, "verify", "chain-map", "--orders", "4,3",
                           "--format", "plain")
    assert code == 1 and out == "fails in degree 2 at (g(1, 0), g(0, 2))\n"
    code, out, _ = run_cli(capsys, "verify", "chain-map", "--orders", "4,3",
                           "--format", "json")
    assert code == 1
    assert out == '{"holds": false, "degree": 2, "generator": [[1, 0], [0, 2]]}\n'


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


# sha256 of the concatenated stdout of `cocycle table` over TABLE_CASES per
# format, computed before the writer joined precomputed text fragments
TABLE_CASES = [("2,2", "0,0;0"), ("2,2", "1,1;1"), ("2,2", "1,0;1"), ("4,2", "3,1;1"),
               ("4,2", "2,0;0"), ("2,2,2,2", "1,0,1,1;1,0,0,1,1,0;1,0,1,1")]
TABLE_OUTPUT_PINS = {
    "json": "984ae8b0bffd01beab2b528fc5ee4470078b276be40ab5cd9b9df52b60a27561",
    "plain": "7bf441f0ca70ae03e1a1e5f3f2344a8e52163c33a4bd8aa3b296b6bc15b848bf",
}


def test_cocycle_table_output_pinned(capsys):
    for fmt, expected in TABLE_OUTPUT_PINS.items():
        digest = hashlib.sha256()
        for orders, literal in TABLE_CASES:
            code, out, err = run_cli(capsys, "cocycle", "table", "--orders", orders,
                                     "--params", literal, "--format", fmt)
            assert code == 0 and err == ""
            digest.update(out.encode())
        assert digest.hexdigest() == expected, fmt
    # the trivial class has no entry to list
    assert run_cli(capsys, "cocycle", "table", "--orders", "2,2",
                   "--format", "plain")[1] == "(all values 1)\n"
    assert json.loads(run_cli(capsys, "cocycle", "table", "--orders", "2,2")[1]) == {
        "orders": [2, 2], "entries": []}


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

    # --check-unique adds the flag to the JSON document
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


def test_deeply_nested_table_exits_2(capsys, tmp_path):
    # the JSON reader's recursion limit becomes one line, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (("classify",), ("verify", "pentagon")):
        code, out, err = run_cli(capsys, *argv, "--table", str(path))
        assert code == 2 and out == ""
        assert err.startswith("grcat:") and err.count("\n") == 1 and "nested too deeply" in err


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


def test_cocycle_list_count_is_closed_form(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--count must not enumerate")
    monkeypatch.setattr("grcat.cocycles.enumerate_params", refuse)
    code, out, _ = run_cli(capsys, "cocycle", "list", "--count", "--orders",
                           "64,64,64")
    assert code == 0 and out == "4398046511104\n"


def test_listings_are_bounded(capsys, monkeypatch):
    # a listing above --max-cells is refused with one line before anything
    # is built; --count still answers from the closed form
    def refuse(*args, **kwargs):
        raise AssertionError("a refused listing must not enumerate")
    monkeypatch.setattr("grcat.braidings.enumerate_braidings", refuse)
    monkeypatch.setattr("grcat.cocycles.enumerate_params", refuse)
    for argv, err_line in (
            (("braidings", "--orders", "8,8,8", "--params", ""),
             "grcat: listing would hold 134217728 braidings, above the 1000000 bound\n"),
            (("braidings", "--orders", "2,2", "--params", "", "--max-cells", "15"),
             "grcat: listing would hold 16 braidings, above the 15 bound\n"),
            (("cocycle", "list", "--orders", "64,64,64"),
             "grcat: listing would hold 4398046511104 parameter choices, "
             "above the 1000000 bound\n"),
            (("cocycle", "list", "--orders", "2,2", "--max-cells", "7"),
             "grcat: listing would hold 8 parameter choices, above the 7 bound\n")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", err_line), argv
    code, out, _ = run_cli(capsys, "braidings", "--orders", "8,8,8", "--params", "",
                           "--count")
    assert code == 0 and out == "134217728\n"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "braidings", "--orders", "2,2", "--params", "",
                           "--max-cells", "16")
    assert code == 0 and len(json.loads(out)) == 16
    code, out, _ = run_cli(capsys, "cocycle", "list", "--orders", "2,2",
                           "--max-cells", "8")
    assert code == 0 and len(json.loads(out)) == 8


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
    # a literal that is not an integer is reported with its flag (and its
    # --params section) on one line
    for argv, message in (
            (("oracle", "braidings", "--orders", "2", "--params", "x"),
             "--params diagonal section must be comma-separated integers, got 'x'"),
            (("braidings", "--orders", "2,2", "--params", "0,1;1.5"),
             "--params pair section must be comma-separated integers, got '1.5'"),
            (("verify", "pentagon", "--orders", "2,2,2", "--params", ";;a"),
             "--params triple section must be comma-separated integers, got 'a'"),
            (("cocycle", "eval", "--orders", "2", "--params", "1",
              "--x", "a", "--y", "1", "--z", "1"),
             "--x must be comma-separated integers, got 'a'"),
            (("cocycle", "eval", "--orders", "2,2", "--params", "",
              "--x", "1,0", "--y", "1,0", "--z", "1,"),
             "--z must be comma-separated integers, got '1,'")):
        assert run_cli(capsys, *argv) == (2, "", f"grcat: {message}\n"), argv
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


def test_threads_env_is_ignored(capsys, monkeypatch):
    # GRCAT_THREADS is read by nothing: output and exit code do not depend on it
    argv = ("cocycle", "eval", "--orders", "2", "--params", "1",
            "--x", "1", "--y", "1", "--z", "1")
    unset = run_cli(capsys, *argv)
    for value in ("abc", "0", "4"):
        monkeypatch.setenv("GRCAT_THREADS", value)
        assert run_cli(capsys, *argv) == unset


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


@pytest.mark.parametrize("rank", [100, 300])
def test_counts_at_high_rank_are_bounded(capsys, rank):
    # rank 100: H^3 has order 2^166750, past Python's 4,300-digit str limit,
    # and 2^10000 braidings per class print in full; rank 300 has 4,500,250
    # parameter slots, refused before any is built
    orders = ",".join(["2"] * rank)
    too_long = "grcat: the count is a 166751-bit number, too long to print in decimal\n"
    slots = "grcat: rank 300 has 4500250 parameter slots, above the 10^6 bound\n"
    for argv, want in ((("h3",), {100: (2, "", too_long), 300: (2, "", slots)}),
                       (("braidings", "--count", "--params", ""),
                        {100: (0, f"{2 ** 10000}\n", ""), 300: (2, "", slots)})):
        start = time.process_time()
        got = run_cli(capsys, *argv, "--orders", orders)
        assert time.process_time() - start < 2, argv
        assert got == want[rank], argv
        assert "set_int_max_str_digits" not in got[2]


def test_module_entry_point():
    # a fresh checkout runs without an install: src goes on the child's path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-m", "grcat", "h3",
                           "--orders", "4,2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout == "16\n"
