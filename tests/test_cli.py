"""Command-line surface: formats, exit codes, and output determinism."""

import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import re
import weakref

import pytest
from click.testing import CliRunner

from qudit_mermin import cli as cli_module
from qudit_mermin.cli import cli
from qudit_mermin.hidden_variables import contradiction_witness
from qudit_mermin.qudit_ops import SettingWord


@pytest.fixture()
def runner():
    return CliRunner()


def test_table1_human(runner):
    result = runner.invoke(cli, ["table1", "--n-min", "3", "--n-max", "7"])
    assert result.exit_code == 0
    assert "225" in result.stdout and "336" in result.stdout


def test_table1_json_matches_reference(runner):
    result = runner.invoke(
        cli, ["table1", "--n-min", "3", "--n-max", "7", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["command"] == "table1"
    rows = payload["results"]["rows"]
    assert [r["M_Q"] for r in rows] == [9, 27, 81, 243, 729]
    assert [r["M_C"] for r in rows] == [6, 15, 36, 90, 225]
    assert [r["N_GHZ"] for r in rows] == [2, 8, 30, 102, 336]
    for row, want in zip(rows, (1.5, 1.8, 2.25, 2.70, 3.24)):
        assert abs(row["ratio"] - want) < 0.005


def test_table1_small_n_rows(runner):
    result = runner.invoke(
        cli, ["table1", "--n-min", "1", "--n-max", "2", "--format", "json"]
    )
    rows = json.loads(result.stdout)["results"]["rows"]
    assert rows[0]["M_Q"] == 1 and rows[0]["M_C"] == 1 and rows[0]["N_GHZ"] == 0
    assert rows[1]["M_Q"] == 3 and rows[1]["M_C"] == 3 and rows[1]["ratio"] == 1.0


def test_table1_csv(runner):
    result = runner.invoke(
        cli, ["table1", "--n-min", "3", "--n-max", "4", "--format", "csv"]
    )
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert rows[0]["M_Q"] == "9" and rows[1]["M_C"] == "15"


def test_table2_json(runner):
    result = runner.invoke(cli, ["table2", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.stdout)["results"]["rows"]
    assert len(rows) == 9
    first = {(r["R"], r["S"]): r for r in rows}[("1", "1")]
    assert first["A"] == "A" and first["C"] == "-C"
    assert abs(first["C_phase_deg"] - 180.0) < 1e-9


def test_verify_pass(runner):
    result = runner.invoke(cli, ["verify", "--n", "5", "--format", "json"])
    assert result.exit_code == 0
    res = json.loads(result.stdout)["results"]
    assert res["eigenvalue"] == 81 and res["match"] is True


def test_verify_human_message(runner):
    result = runner.invoke(cli, ["verify", "--n", "5"])
    assert result.exit_code == 0
    assert "eigenvalue 81 = 3^4" in result.stdout and "PASS" in result.stdout


def test_verify_d5(runner):
    result = runner.invoke(cli, ["verify", "--n", "2", "--d", "5", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["results"]["eigenvalue"] == 5


def test_verify_mismatch_exit_code(runner, monkeypatch):
    monkeypatch.setattr(
        cli_module, "_position_eigenvalue", lambda d, n, variant=0: (17, d ** (n - 1))
    )
    result = runner.invoke(cli, ["verify", "--n", "3"])
    assert result.exit_code == 1
    assert "mismatch" in result.stderr


@pytest.mark.parametrize("reading", [(17, 25), (25, 24)])
def test_general_mismatch_exit_code(runner, monkeypatch, reading):
    # a wrong eigenvalue or a wrong term count each fail the check
    monkeypatch.setattr(cli_module, "_position_eigenvalue", lambda d, n, variant=0: reading)
    result = runner.invoke(cli, ["general", "--d", "5", "--n", "3"])
    assert result.exit_code == 1
    assert "mismatch" in result.stderr


def test_identity_command(runner):
    result = runner.invoke(cli, ["identity", "--n", "3", "--format", "json"])
    assert result.exit_code == 0
    res = json.loads(result.stdout)["results"]
    assert res["matches"] is True and res["n_surviving"] == 9


def test_search_json(runner):
    result = runner.invoke(cli, ["search", "--n", "3", "--format", "json"])
    assert result.exit_code == 0
    res = json.loads(result.stdout)["results"]
    assert res["max_magnitude"] == 6.0
    assert res["max_equals_uniform"] is True
    assert res["num_maximizers"] == 27
    assert res["argmax_ratios"][0] == ["1", "1"]


def test_search_full_mode(runner):
    result = runner.invoke(
        cli, ["search", "--n", "3", "--mode", "full", "--format", "json"]
    )
    assert result.exit_code == 0
    res = json.loads(result.stdout)["results"]
    assert res["assignments_scanned"] == 27**3
    assert res["ratio_agreement_max_abs_dev"] <= 1e-9


# sha256 of the `search` JSON bytes: a change of engine must keep every byte
SEARCH_SHA256 = {
    ("1", "full"): "226b6d26fa80ca968bf93556fa83ec66c6e401db6778935f694ae63db76e08ec",
    ("2", "full"): "b49c3c42c437d69bb49c6b0fa5ca4ea0f0affbb613c93069cb97b0fc1c293277",
    ("3", "full"): "f797b76051cd5437c7260b276aca5e118e09b0b19d54aa9cc9c256e62d99f27e",
    ("4", "full"): "33205e5ef15c691b764287d248ad770f0935f4de7754897c1364e67c7daa4cb8",
    ("5", "full"): "bb0c52d88c0c761c09c0378a1419934e9cc77fc70d99be1ea776938a555dd032",
    ("1", "ratio"): "6a03e0792b16b8a1bb351536898a0d1415025a39b6565f472c33c867069f16a1",
    ("2", "ratio"): "3de9c31db9bf936cd7ace686936c592fb8b3e80df6c3a47e647fa8b68ab80bde",
    ("3", "ratio"): "712e6616c063ab665816c348e0fe389bd9bcfec6b9d5b650fee661ebd48a902e",
    ("4", "ratio"): "bcf0cebfb383f7a381df4be6cc68ed9075f95cfb6e5d4a0bd254d0f065768211",
    ("5", "ratio"): "2079db5eea5b0cf7b52d5bd200f7a7304cc5d726be5b3e5e56e6aecb3376b190",
    ("6", "ratio"): "b65ab8a7b6985afb23049b6585bb6adc4250055d275555778035fc07c5699ed2",
    ("7", "ratio"): "b37d239cf22cde5587e9721b120d18cccf3ea29e81164b85b9744ce5102b87d8",
}


@pytest.mark.parametrize("n, mode", sorted(SEARCH_SHA256))
def test_search_json_bytes_are_pinned(runner, n, mode):
    result = runner.invoke(
        cli, ["search", "--n", n, "--mode", mode, "--format", "json"]
    )
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == SEARCH_SHA256[n, mode]


def test_search_worker_count_does_not_change_bytes(runner):
    for argv in (["search", "--n", "3"], ["search", "--n", "3", "--mode", "full"],
                 ["general", "--d", "5", "--n", "1", "--conjecture"]):
        outputs = []
        for workers in ("1", "2", "8"):
            result = runner.invoke(cli, [*argv, "--workers", workers, "--format", "json"])
            assert result.exit_code == 0, (argv, workers)
            outputs.append(result.stdout.encode("utf-8"))
        assert outputs[0] == outputs[1] == outputs[2], argv


def test_search_reports_effective_workers_on_stderr(runner):
    payloads = []
    for mode, workers, expected in (("ratio", "2", "1"), ("full", "2", "1")):
        result = runner.invoke(
            cli,
            ["search", "--n", "2", "--mode", mode, "--workers", workers,
             "--format", "json"],
        )
        assert result.exit_code == 0
        assert result.stderr.splitlines() == [f"workers: {expected}"]
        plain = runner.invoke(
            cli,
            ["search", "--n", "2", "--mode", mode, "--workers", "1",
             "--format", "json"],
        )
        assert plain.stderr.splitlines() == ["workers: 1"]
        assert result.stdout.encode("utf-8") == plain.stdout.encode("utf-8")
        payloads.append(json.loads(result.stdout))
    assert all("workers" not in json.dumps(p) for p in payloads)


def test_witness_command(runner):
    result = runner.invoke(cli, ["witness", "--n", "3", "--format", "json"])
    assert result.exit_code == 0
    res = json.loads(result.stdout)["results"]
    assert res["count"] == 2 and res["expected_count"] == 2
    words = {row["word"]: row for row in res["rows"]}
    assert words["YYY"]["quantum"] == "w^1"
    assert words["VVV"]["quantum"] == "w^2"
    assert all(row["contradicts"] for row in res["rows"])


def test_witness_rows_equal_the_per_word_build(runner):
    result = runner.invoke(cli, ["witness", "--n", "5", "--format", "json"])
    assert result.exit_code == 0
    words = [SettingWord(3, w) for w in itertools.product((-1, 0, 1), repeat=5)]
    expected = [
        {
            "word": str(w.word),
            "position": w.position,
            "quantum": f"w^{w.quantum_omega_exponent}",
            "hv_prediction": w.hv_value,
            "contradicts": w.contradicts,
        }
        for w in (contradiction_witness(x) for x in words if x.position in (3, 6))
    ]
    assert json.loads(result.stdout)["results"]["rows"] == expected


def test_in_process_calls_release_their_output_buffers(tmp_path):
    # the benchmark and notebooks run the CLI in process under redirect_stdout
    calls = [
        ["table1", "--format", "json"],
        ["table1"],
        ["search", "--n", "2"],  # writes "workers: 1" to stderr
        ["witness", "--n", "3", "--out", str(tmp_path / "w.json")],  # "wrote ..."
        ["--version"],
        ["--help"],
        ["table1", "--help"],
    ]
    refs = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args=argv, prog_name="qudit-mermin", standalone_mode=False)
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_general_command(runner):
    result = runner.invoke(
        cli, ["general", "--d", "5", "--n", "2", "--format", "json"]
    )
    assert result.exit_code == 0
    res = json.loads(result.stdout)["results"]
    assert res["eigenvalue"] == 5 and res["term_count"] == 5
    assert abs(res["largest_factor"] - 4.6898) < 1e-3


def test_verify_and_general_build_no_word_array(runner, monkeypatch):
    from qudit_mermin import generalized, mermin, qudit_ops

    def refuse(*args, **kwargs):
        raise AssertionError("a word array was built")

    for module in (cli_module, mermin, generalized, qudit_ops):
        for name in ("build_mermin", "_all_words"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    result = runner.invoke(cli, ["verify", "--n", "14", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["results"]["eigenvalue"] == 3**13
    result = runner.invoke(cli, ["general", "--d", "7", "--n", "8", "--format", "json"])
    assert result.exit_code == 0, result.output
    results = json.loads(result.stdout)["results"]
    assert results["eigenvalue"] == results["term_count"] == 7**7


@pytest.mark.parametrize("d, n", [(3, 5), (5, 4), (7, 3)])
def test_general_term_count_is_the_operator_size(runner, d, n):
    from qudit_mermin.mermin import build_mermin

    result = runner.invoke(cli, ["general", "--d", str(d), "--n", str(n), "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["results"]["term_count"] == build_mermin(d, n).term_count


def test_general_conjecture_check_is_exact(runner, monkeypatch):
    from dataclasses import replace

    from qudit_mermin.cyclotomic import CycInt

    report = cli_module.conjecture_search(3, 3)
    assert report.uniform_sq_coeffs == CycInt.integer(18**2, 9).coeffs
    below = CycInt.integer(18**2 - 1, 9).coeffs
    # the floats stay equal (6.0 and 6.0); only the exact values differ
    cases = {
        0: replace(report, uniform_sq_coeffs=below),
        1: replace(report, max_sq_coeffs=below),  # the same two values, swapped
    }
    for exit_code, crafted in cases.items():
        monkeypatch.setattr(cli_module, "conjecture_search", lambda *a, **k: crafted)
        result = runner.invoke(
            cli, ["general", "--d", "3", "--n", "3", "--conjecture", "--format", "json"]
        )
        assert result.exit_code == exit_code
    assert "scan maximum fell below the uniform value" in result.stderr


def test_scaling_csv(runner):
    result = runner.invoke(cli, ["scaling", "--n-max", "7", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert rows[-1]["N"] == "7"
    assert abs(float(rows[-1]["ratio"]) - 3.24) < 0.005
    assert abs(float(rows[-1]["two_setting_M_Q"]) - 2**7 / 3) < 1e-3
    assert abs(float(rows[-1]["ratio_prior"]) - 729 / (2**7 / 3)) < 1e-3
    assert set(rows[0]) == {
        "N",
        "M_Q",
        "M_C",
        "ratio",
        "two_setting_M_Q",
        "ratio_prior",
        "asymptote_three_setting",
        "asymptote_two_setting",
    }


def test_witness_limit_is_refused_below_zero(runner):
    result = runner.invoke(cli, ["witness", "--n", "3", "--limit", "-2"])
    assert result.exit_code == 2 and "contradictions" not in result.output
    result = runner.invoke(cli, ["witness", "--n", "3", "--limit", "0"])
    assert result.exit_code == 0
    assert result.output.splitlines()[:2] == ["2 contradictions (expected 2)", "  ... and 2 more"]


def test_usage_errors_exit_2(runner):
    assert runner.invoke(cli, ["search", "--n", "3", "--mode", "greedy"]).exit_code == 2
    assert runner.invoke(cli, ["search", "--n", "99"]).exit_code == 2
    assert runner.invoke(cli, ["table1", "--n-min", "5", "--n-max", "3"]).exit_code == 2
    assert runner.invoke(cli, ["verify", "--n", "2", "--d", "4"]).exit_code == 2
    assert runner.invoke(cli, ["identity", "--n", "10"]).exit_code == 2
    assert runner.invoke(cli, ["witness", "--n", "9"]).exit_code == 2
    assert runner.invoke(cli, ["search", "--n", "3", "--workers", "0"]).exit_code == 2
    for extra in ([], ["--conjecture"]):
        argv = ["general", "--d", "5", "--n", "2", "--workers", "0", *extra]
        assert runner.invoke(cli, argv).exit_code == 2, extra
    # a huge N is refused without raising the base to the N-th power
    huge = str(10**9)
    assert runner.invoke(cli, ["search", "--n", huge, "--mode", "full"]).exit_code == 2
    assert runner.invoke(cli, ["verify", "--n", huge]).exit_code == 2
    # refused by the multiplication-table budget before any factor is built
    result = runner.invoke(cli, ["general", "--d", "7", "--n", "1", "--conjecture"])
    assert result.exit_code == 2
    assert "cap" in result.stderr


def test_verify_term_budget_exit_codes(runner):
    # the first N over the 3**13-term budget for each d is a usage error
    for d, over in ((3, 15), (5, 10), (7, 9)):
        argv = ["verify", "--n", str(over), "--d", str(d)]
        result = runner.invoke(cli, argv)
        assert result.exit_code == 2, (d, over)
        assert "cap" in result.stderr
    result = runner.invoke(cli, ["verify", "--n", "13", "--variant", "2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["results"]["eigenvalue"] == 3**12


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "report.json"
    result = runner.invoke(
        cli, ["verify", "--n", "3", "--format", "json", "--out", str(target)]
    )
    assert result.exit_code == 0
    payload = json.loads(target.read_text())
    assert payload["results"]["eigenvalue"] == 9


def test_repeated_invocations_identical(runner):
    first = runner.invoke(cli, ["scaling", "--n-max", "9", "--format", "json"])
    second = runner.invoke(cli, ["scaling", "--n-max", "9", "--format", "json"])
    assert first.stdout.encode("utf-8") == second.stdout.encode("utf-8")


def test_workers_env_var_is_ignored(runner, monkeypatch):
    baseline = runner.invoke(cli, ["search", "--n", "2", "--format", "json"])
    assert baseline.exit_code == 0
    for value in ("abc", "0", "3"):
        monkeypatch.setenv("QUDIT_MERMIN_WORKERS", value)
        result = runner.invoke(cli, ["search", "--n", "2", "--format", "json"])
        assert result.exit_code == 0, value
        assert result.stderr.splitlines() == ["workers: 1"]
        assert result.stdout.encode("utf-8") == baseline.stdout.encode("utf-8")


ONE_RUN_PER_COMMAND = [
    ["table1", "--n-max", "4"],
    ["table2"],
    ["verify", "--n", "3"],
    ["identity", "--n", "3"],
    ["search", "--n", "3"],
    ["witness", "--n", "3"],
    ["general", "--d", "5", "--n", "2"],
    ["scaling", "--n-max", "5"],
]


@pytest.mark.parametrize("argv", ONE_RUN_PER_COMMAND, ids=lambda argv: argv[0])
def test_human_output_ends_with_the_elapsed_line(runner, argv):
    result = runner.invoke(cli, argv)
    assert result.exit_code == 0
    assert re.search(r"\S\nelapsed: \d+\.\d{3} s\n\Z", result.stdout)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [["witness", "--n", "4"], ["scaling", "--n-max", "6"]],
                         ids=lambda argv: argv[0])
def test_out_writes_the_stdout_bytes(runner, tmp_path, argv, fmt):
    target = tmp_path / f"payload.{fmt}"
    printed = runner.invoke(cli, argv + ["--format", fmt])
    written = runner.invoke(cli, argv + ["--format", fmt, "--out", str(target)])
    assert printed.exit_code == written.exit_code == 0
    assert target.read_bytes() == printed.stdout.encode("utf-8")
    assert written.stdout == ""
    assert written.stderr == f"wrote {target}\n"


MISMATCHES = {
    # argv: (library call patched in cli, its replacement given the real one)
    "identity": (["identity", "--n", "3"], "expand_identity",
                 lambda real: lambda n: dataclasses.replace(
                     real(n), matches=False, mismatches=("term 0 differs",))),
    "witness": (["witness", "--n", "3"], "ghz_contradiction_count",
                lambda real: lambda n: real(n) + 1),
    "table1": (["table1", "--n-max", "4"], "uniform_value",
               lambda real: lambda n: real(n) + 1),
    "search": (["search", "--n", "3"], "max_equals_uniform",
               lambda real: lambda result: False),
}


@pytest.mark.parametrize("command", sorted(MISMATCHES))
def test_verification_mismatch_exits_1(runner, monkeypatch, command):
    argv, name, fake = MISMATCHES[command]
    monkeypatch.setattr(cli_module, name, fake(getattr(cli_module, name)))
    for fmt in ("human", "json"):
        result = runner.invoke(cli, argv + ["--format", fmt])
        assert result.exit_code == 1
        assert result.stdout  # the payload is still written
        assert result.stderr.splitlines()[-1].startswith("verification mismatch: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scaling", "--n-max", "41"], "need 1 <= n-max <= 40"),
        (["table1", "--n-max", "13"], "need 1 <= n-min <= n-max <= 12"),
        (["verify", "--d", "5", "--variant", "1", "--n", "3"],
         "variants other than 0 are defined for d=3 only"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_usage_error_message_on_stderr(runner, argv, message):
    result = runner.invoke(cli, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"Try 'cli {argv[0]} --help' for help." in result.stderr
    assert result.stderr.endswith(f"Error: {message}\n")
