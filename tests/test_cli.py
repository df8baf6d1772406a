import io
import json
import pathlib
import shlex
import sys
import time

import pytest

from t0enum import catalog, oracle
from t0enum.cli import main
from t0enum.exactmath import falling
from t0enum.oracle import BudgetExceededError


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_table_basic_and_determinism():
    code, text = run_cli("table", "--class", "omega_12", "--m", "1..4", "--n", "1..4")
    assert code == 0
    assert "omega_12" in text.splitlines()[0]
    rows = [line.split("\t") for line in text.splitlines()[2:]]
    assert rows[1][2] == "5"  # omega_12(2, 2)
    code2, text2 = run_cli("table", "--class", "omega_12", "--m", "1..4", "--n", "1..4")
    assert text2 == text  # byte-identical reruns


def test_table_alpha_star_grid():
    code, text = run_cli("table", "--class", "alpha_star_02", "--m", "1..3", "--n", "1..3")
    assert code == 0
    rows = [line.split("\t") for line in text.splitlines()[2:]]
    for m in range(1, 4):
        for n in range(1, 4):
            assert int(rows[m - 1][n]) == falling(2**m, n)  # decimal round trip


def test_table_formats():
    code, csv_text = run_cli("table", "--class", "alpha_02", "--m", "1..2", "--n", "1..2", "--format", "csv")
    assert code == 0 and "," in csv_text
    code, json_text = run_cli("table", "--class", "alpha_02", "--m", "1..2", "--n", "1..2", "--format", "json")
    payload = json.loads(json_text)
    assert payload["class_id"] == "alpha_02"
    assert {c["value"] for c in payload["cells"]} == {"2", "4", "16"}


def test_table_oracle_only_routing():
    code, _ = run_cli("table", "--class", "theta_21", "--m", "1..2", "--n", "1..2", "--k", "2")
    assert code == 3


def test_exit_codes():
    assert run_cli("table", "--class", "alpha_02", "--m", "4..1", "--n", "1..2")[0] == 2
    assert run_cli("table", "--class", "nope", "--m", "1..2", "--n", "1..2")[0] == 3
    assert run_cli("oracle", "--class", "alpha_02", "--m", "10", "--n", "10")[0] == 4
    assert run_cli("table", "--class", "theta_01", "--m", "1..2", "--n", "1..2")[0] == 2  # missing --k
    assert run_cli("verify", "--class", "beta_01_as_printed", "--m-max", "3", "--n-max", "3")[0] == 1


def test_oracle_command():
    code, text = run_cli("oracle", "--class", "omega_12", "--m", "2", "--n", "2")
    assert code == 0 and text.strip() == "5"
    code, text = run_cli("oracle", "--class", "theta_21", "--m", "2", "--n", "3", "--k", "2")
    assert code == 0 and text.strip().isdigit()


def test_oracle_max_cells_override():
    code, _ = run_cli("oracle", "--class", "alpha_02", "--m", "2", "--n", "3", "--max-cells", "4")
    assert code == 4
    code, text = run_cli("oracle", "--class", "alpha_02", "--m", "2", "--n", "3", "--max-cells", "6")
    assert code == 0 and int(text) == 2**6


def test_oracle_multiset_walk_over_budget_exits_quickly():
    # m and n are within max_cells, but C(72, 9) multisets are not within
    # 2^max_cells: refused before any enumeration
    start = time.perf_counter()
    assert run_cli("oracle", "--class", "alpha_04", "--m", "9", "--n", "6")[0] == 4
    assert time.perf_counter() - start < 5


def test_oracle_huge_universe_is_refused_without_formatting_it():
    # 2^20000 has more decimal digits than int -> str allows
    assert run_cli("oracle", "--class", "alpha_04", "--m", "1", "--n", "20000")[0] == 4


def test_oracle_max_cells_out_of_range_is_bad_args():
    assert run_cli("oracle", "--class", "alpha_02", "--m", "2", "--n", "2", "--max-cells", "0")[0] == 2


def test_verify_single_class_ok():
    code, text = run_cli("verify", "--class", "omega_12", "--m-max", "4", "--n-max", "4")
    assert code == 0
    assert text.startswith("ok")


def test_verify_emits_errata_file(tmp_path):
    path = tmp_path / "errata.jsonl"
    code, _ = run_cli(
        "verify", "--class", "beta_01_as_printed", "--m-max", "3", "--n-max", "3",
        "--emit-errata", str(path),
    )
    assert code == 1
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records and all(
        set(r) == {"class_id", "m", "n", "k", "formula_value", "oracle_value", "reference", "status"}
        for r in records
    )
    assert all(r["formula_value"] != r["oracle_value"] for r in records)


def test_errata_ledger_4x4_is_pinned(tmp_path):
    # the errata JSONL is the stable interface: the uncorrected 4 x 4 run
    # rewrites the committed ledger byte for byte
    path = tmp_path / "errata.jsonl"
    code, _ = run_cli("verify", "--all", "--m-max", "4", "--n-max", "4", "--emit-errata", str(path))
    assert code == 1
    assert path.read_bytes() == (pathlib.Path(__file__).parent / "errata_4x4.jsonl").read_bytes()


def test_corrected_verify_4x4_is_pinned():
    # every class line of the corrected 4 x 4 run, byte for byte, and of the
    # 5 x 5 run, whose default 6 unordered rows skip the (6, 5) cell: a
    # change of the oracle budget shows here
    for size in ("4", "5"):
        code, text = run_cli("verify", "--all", "--m-max", size, "--n-max", size, "--errata-corrected")
        assert code == 0
        pinned = pathlib.Path(__file__).parent / f"verify_{size}x{size}_corrected.txt"
        assert text.encode() == pinned.read_bytes(), size


def test_errata_corrected_is_a_verify_option_only():
    # table and sequence print the class's own formula; the corrected values
    # are printed under their own id, `--class <corrected id>`
    for argv in (
        ("table", "--class", "beta_41_as_printed", "--m", "1..2", "--n", "1..2", "--errata-corrected"),
        ("sequence", "--class", "beta_41_as_printed", "--limit", "3", "--errata-corrected"),
    ):
        assert run_cli(*argv)[0] == 2
    code, text = run_cli(
        "verify", "--class", "beta_41_as_printed", "--m-max", "3", "--n-max", "3", "--errata-corrected"
    )
    assert (code, text) == (0, "ok       beta_41_as_printed: 9 cells\n# classes checked: 1\n")


def test_unwritable_errata_path_is_bad_args_before_any_cell(tmp_path, monkeypatch, capsys):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the errata file was opened")

    monkeypatch.setattr("t0enum.cli.verify_grid", no_cell)
    code, text = run_cli(
        "verify", "--class", "theta_01", "--k", "2", "--m-max", "2", "--n-max", "2",
        "--emit-errata", str(tmp_path / "missing" / "x.jsonl"),
    )
    assert (code, text) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_verify_all_coverage_counter():
    code, text = run_cli("verify", "--all", "--m-max", "2", "--n-max", "2", "--k", "1")
    counter_line = [l for l in text.splitlines() if l.startswith("# classes checked:")][0]
    assert int(counter_line.split(":")[1]) == len(catalog.formula_class_ids())


def test_sequence_antidiagonal_prefix():
    code, text = run_cli("sequence", "--class", "omega_12", "--order", "antidiagonal", "--limit", "6")
    assert code == 0
    values = [line.split()[1] for line in text.splitlines()]
    assert values == ["1", "1", "1", "1", "5", "1"]
    indices = [int(line.split()[0]) for line in text.splitlines()]
    assert indices == [1, 2, 3, 4, 5, 6]


def test_sequence_limit_zero_and_missing_k():
    code, text = run_cli("sequence", "--class", "omega_12", "--limit", "0")
    assert code == 0 and text == ""
    code, _ = run_cli("sequence", "--class", "theta_01", "--order", "row", "--limit", "4")
    assert code == 2


def test_sequence_row_order():
    code, text = run_cli("sequence", "--class", "omega_12", "--order", "row", "--limit", "5", "--n-max", "3")
    values = [int(line.split()[1]) for line in text.splitlines()]
    from t0enum.catalog import families as F

    assert values == [F.omega(1, 2, 1, 1), F.omega(1, 2, 1, 2), F.omega(1, 2, 1, 3),
                      F.omega(1, 2, 2, 1), F.omega(1, 2, 2, 2)]


def test_egf_check_command(monkeypatch):
    for family in (1, 2, 3, 4):
        code, _ = run_cli("egf-check", "--family", str(family), "--order-x", "4", "--order-y", "4")
        assert code == 0
    # a failed identity exits 1 and names its cell; the check itself is
    # pinned on a corrupted table in test_transforms
    monkeypatch.setattr("t0enum.cli.first_egf_mismatch", lambda *args: (2, 2))
    code, text = run_cli("egf-check", "--family", "2")
    assert code == 1 and "(2, 2)" in text
    monkeypatch.undo()
    assert run_cli("egf-check", "--family", "2", "--order-x", "9")[0] == 2
    assert run_cli("egf-check", "--family", "7")[0] == 2


@pytest.mark.parametrize("class_id", ["theta_21", "theta_51", "bar_theta_21", "mu_bar_01"])
def test_verify_oracle_only_class_is_exit_3(class_id, capsys):
    # no formula to compare: refused before any line is written
    assert run_cli("verify", "--class", class_id, "--m-max", "2", "--n-max", "2") == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_grid_limits_below_one_are_bad_args():
    assert run_cli("verify", "--class", "omega_12", "--m-max", "0")[0] == 2
    assert run_cli("verify", "--class", "omega_12", "--n-max", "0")[0] == 2
    assert run_cli("verify", "--all", "--m-max-unordered", "0")[0] == 2


def test_verify_grid_with_every_cell_over_budget_exits_4(monkeypatch, capsys):
    # no accepted budget refuses cell (1, 1), so force every oracle call over
    # it, then every formula call
    def over_budget(self, m, n, k=None, **options):
        raise BudgetExceededError("forced")

    for method in ("oracle_count", "evaluate"):
        monkeypatch.undo()
        monkeypatch.setattr(catalog.CatalogEntry, method, over_budget)
        code, text = run_cli("verify", "--class", "omega_12", "--m-max", "2", "--n-max", "2")
        assert code == 4, method
        assert text.startswith("BUDGET   omega_12: all 4 cells over budget")
        assert "omega_12" in capsys.readouterr().err


def test_egf_check_orders_out_of_range_are_bad_args():
    assert run_cli("egf-check", "--family", "2", "--order-x", "-1")[0] == 2
    assert run_cli("egf-check", "--family", "2", "--order-x", "0")[0] == 2
    assert run_cli("egf-check", "--family", "2", "--order-y", "-1")[0] == 2
    assert run_cli("egf-check", "--family", "2", "--order-y", "0")[0] == 0


def test_sequence_row_width_below_one_is_bad_args():
    assert run_cli("sequence", "--class", "omega_12", "--order", "row", "--n-max", "0", "--limit", "3")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--class", "theta_star_12", "--m", "2", "--n", "3", "--k", "1"),
        ("sequence", "--class", "alpha_02", "--limit", "3"),
    ],
)
def test_uncaught_exception_is_internal_error_not_mismatch(argv, monkeypatch, capsys):
    # every input the CLI accepts is now answered, so force a failure
    def broken(self, m, n, k=None):
        raise RuntimeError("forced")

    monkeypatch.setattr(catalog.CatalogEntry, "evaluate", broken)
    assert run_cli(*argv)[0] == 5
    assert "Traceback" in capsys.readouterr().err


def test_partition_type_sum_over_cap_exits_4_at_once(capsys):
    # the recursive type builder of earlier versions ran out of stack on the
    # first, and the as-printed recurrence, which once recursed n -> n - 1
    # before it read the sum, on the second
    for argv in (
        ("table", "--class", "theta_star_12", "--m", "2", "--n", "1100", "--k", "1"),
        ("table", "--class", "theta_star_32_as_printed", "--m", "2", "--n", "500", "--k", "2"),
    ):
        start = time.perf_counter()
        code, _ = run_cli(*argv)
        assert code == 4, argv
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: budget exceeded:") and err.count("\n") == 1


@pytest.mark.parametrize("class_id", ["theta_star_21", "bar_theta_star_21"])
def test_minimal_cover_completions_beyond_the_column_bound_are_zero_at_once(class_id):
    # 39 columns with two or more ones cannot be distinct in 2 rows; the
    # completion count once listed all 2^39 row patterns here
    start = time.perf_counter()
    code, text = run_cli("table", "--class", class_id, "--m", "2", "--n", "41", "--k", "2")
    assert code == 0
    assert text.splitlines()[2] == "2\t0"
    assert time.perf_counter() - start < 1.0


def test_minimal_cover_without_common_vertex_beyond_the_oracle():
    # the oracle refuses n = 1100, and no formula reads it: two edges of at
    # most two vertices cover no more than four
    start = time.perf_counter()
    code, text = run_cli("table", "--class", "bar_theta_51", "--m", "2", "--n", "1100", "--k", "2")
    assert code == 0
    assert text.splitlines()[2] == "2\t0"
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "m, value",
    [
        # two edges of at most two vertices cover no more than four
        ("2", "0"),
        ("30", "312208087688055732054748115348385814650850036142933164006255362048000000000000"),
    ],
)
def test_partition_type_sum_reads_only_blocks_up_to_k(m, value):
    # the sum lists the 401 types of 40 truncated at k = 2, not all 37,338
    # (the whole-type sum took 7-9 s per cell on a 2-core host)
    start = time.perf_counter()
    code, text = run_cli("table", "--class", "theta_star_12", "--m", m, "--n", "40", "--k", "2")
    assert code == 0
    assert text.splitlines()[2] == f"{m}\t{value}"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "argv, value",
    [
        (("table", "--class", "alpha_star_02", "--m", "200", "--n", "200"), falling(2**200, 200)),
        # 2^14300 has 4,305 digits, over the interpreter's default limit
        (("table", "--class", "alpha_02", "--m", "1", "--n", "14300"), 2**14300),
    ],
    ids=["alpha_star_02", "alpha_02"],
)
def test_large_values_are_printed_in_full(argv, value):
    limit = sys.get_int_max_str_digits()
    code, text = run_cli(*argv)
    assert code == 0
    # the limit is lifted for the call only
    assert sys.get_int_max_str_digits() == limit
    digits = text.splitlines()[-1].split("\t")[1]
    # checked without converting the value to a string, which the limit forbids
    assert len(digits) > 4300
    assert 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
    assert int(digits[-100:]) == value % 10**100


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--class", "omega_12", "--m", "0", "--n", "2"),
        ("oracle", "--class", "omega_12", "--m", "-1", "--n", "2"),
        ("oracle", "--class", "omega_12", "--m", "2", "--n", "-3"),
        # a custom oracle (a sum of spec-oracle counts), which once raised
        # ValueError on a negative m
        ("oracle", "--class", "bar_theta_circ_03", "--m", "-1", "--n", "2"),
    ],
)
def test_oracle_cell_below_one_is_bad_args(argv, capsys):
    assert run_cli(*argv)[0] == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--class", "theta_01", "--m", "1..2", "--n", "1..2", "--k", "-1"),
        ("sequence", "--class", "theta_01", "--limit", "3", "--k", "-1"),
        ("oracle", "--class", "theta_01", "--m", "2", "--n", "2", "--k", "-1"),
        # both sides are 0 on every cell: a vacuous certification
        ("verify", "--class", "theta_01", "--k", "-1", "--m-max", "2", "--n-max", "2"),
    ],
)
def test_negative_k_is_bad_args(argv):
    assert run_cli(*argv) == (2, "")


def test_k_zero_is_exact_zero_uniformity():
    # the empty edge is the only 0-edge: one (1, n) matrix for every n
    assert run_cli("oracle", "--class", "theta_01", "--m", "1", "--n", "2", "--k", "0") == (0, "1\n")
    assert run_cli("verify", "--class", "theta_01", "--k", "0", "--m-max", "2", "--n-max", "2")[0] == 0


@pytest.mark.parametrize("m", ["4000", "1000000"])
def test_oracle_long_row_multisets_exit_4_at_once(m, capsys):
    # n = 1 has only m + 1 row multisets, but every leaf costs O(m): a walk
    # whose multisets hold more than max_cells codes is refused before it
    # starts (m = 4000 once ran 24 s)
    start = time.perf_counter()
    code, _ = run_cli("oracle", "--class", "alpha_04", "--m", m, "--n", "1")
    assert code == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: budget exceeded:") and err.count("\n") == 1


def test_wide_ordered_cell_at_the_default_cap_walks_its_columns(monkeypatch):
    # 2^20 ordered matrices: 524,800 row multisets (about 4 s), 286 column
    # multisets
    monkeypatch.setattr(oracle, "_FEATURE_CACHE", {})
    start = time.perf_counter()
    code, text = run_cli("oracle", "--class", "omega_12", "--m", "2", "--n", "10")
    assert code == 0
    assert time.perf_counter() - start < 1.0
    code, table = run_cli("table", "--class", "omega_12", "--m", "2", "--n", "10")
    assert code == 0
    assert table.splitlines()[2] == "2\t" + text.strip()


@pytest.mark.parametrize("class_id", ["theta_star_21", "bar_theta_star_21"])
def test_minimal_cover_completions_over_the_tuple_cap_exit_4_at_once(class_id, capsys):
    # t = 40 columns pass the bound (40 <= 2^6 - 7, 80 <= 6 * 39), but the
    # completions would list 2^40 patterns and 40^6 or more row tuples
    start = time.perf_counter()
    code, _ = run_cli("table", "--class", class_id, "--m", "6", "--n", "46", "--k", "40")
    assert code == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: budget exceeded:") and err.count("\n") == 1


def test_ordered_cell_beyond_the_former_product_cap_walks_its_columns(monkeypatch):
    # 2^30 matrices, m*n = 30 > 20, but only 19,448 column multisets
    monkeypatch.setattr(oracle, "_FEATURE_CACHE", {})
    start = time.perf_counter()
    code, text = run_cli("oracle", "--class", "omega_12", "--m", "3", "--n", "10")
    assert code == 0
    assert time.perf_counter() - start < 2.0
    code, table = run_cli("table", "--class", "omega_12", "--m", "3", "--n", "10")
    assert code == 0
    assert table.splitlines()[2] == "3\t" + text.strip()


def test_unordered_cell_beyond_the_former_universe_cap():
    # 2^7 > 64 single-row multisets, once refused by a separate 2^n cap
    assert run_cli("oracle", "--class", "alpha_04", "--m", "1", "--n", "7") == (0, "128\n")


def test_wide_unordered_cell_is_priced_at_the_columns_it_walks():
    # C(258, 3) row multisets exceed 2^20, but the walk takes the 8 columns:
    # C(15, 8) = 6,435 column multisets, 1,324 orbits
    assert run_cli("oracle", "--class", "alpha_04", "--m", "3", "--n", "8") == (0, "2829056\n")
    code, text = run_cli("verify", "--class", "omega_13", "--m-max", "3", "--n-max", "8")
    assert code == 0
    assert text.splitlines()[0] == "ok       omega_13: 24 cells"


@pytest.mark.parametrize(
    "argv, code",
    [
        ("sequence --class omega_12 --limit -1", 2),
        ("egf-check --family 0", 2),
        ("egf-check --family x", 2),
        ("table --class alpha_02 --m 1.. --n 1", 2),
        ("oracle --class alpha_02 --m 2 --n 2 --max-cells x", 2),
        ("verify", 2),
        ("oracle --class theta_01 --m 2 --n 2", 2),  # missing --k
        # a class that takes k needs it even when no cell runs
        ("sequence --class theta_01 --limit 0", 2),
        ("verify --class nope", 3),
        ("sequence --class nope --limit 3", 3),
        ("sequence --class theta_21 --limit 3 --k 2", 3),  # oracle-only
        # --all wins over --class
        ("verify --all --class omega_12 --m-max 1 --n-max 1", 1),
    ],
)
def test_exit_code_contract(argv, code, capsys):
    assert run_cli(*argv.split())[0] == code
    assert "Traceback" not in capsys.readouterr().err


def test_verify_m_max_unordered_applies_to_one_class():
    code, text = run_cli(
        "verify", "--class", "omega_13", "--m-max", "2", "--n-max", "2", "--m-max-unordered", "5"
    )
    assert code == 0
    assert text.splitlines()[0] == "ok       omega_13: 10 cells"


def test_readme_command_block_exit_codes(tmp_path, monkeypatch):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("t0enum ")]
    monkeypatch.chdir(tmp_path)
    assert len(commands) == 8
    mismatch = "verify --all --m-max 4 --n-max 4 --emit-errata errata.jsonl".split()
    for argv in commands:
        assert run_cli(*argv)[0] == (1 if argv == mismatch else 0), argv
    assert (tmp_path / "errata.jsonl").read_text().strip()
