"""Command-line surface: formats, exit codes, and output determinism."""

import contextlib
import csv
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import re
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qudit_mermin import cli as cli_module
from qudit_mermin import cyclotomic
from qudit_mermin.cli import cli
from qudit_mermin.hidden_variables import (
    WitnessRecord,
    contradiction_witness,
    exhaustive_search,
    iter_contradiction_witnesses,
    power_sum,
)
from qudit_mermin.qudit_ops import SettingWord
from oracles import clean_json


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


def _first_row_tampered(entries):
    """A ``factor_table`` whose first row has its entries replaced by ``entries(row)``."""
    real = cli_module.factor_table

    def tampered():
        first, *rest = real()
        return (dataclasses.replace(first, entries=entries(first)), *rest)

    return tampered


@pytest.mark.parametrize(
    "entries, note",
    [
        (lambda row: (row.entries[0], row.entries[0], row.entries[2]),
         "factor multiset broken at ratios (0,0)"),
        (lambda row: (dataclasses.replace(row.entries[0], phase_deg=60.0), *row.entries[1:]),
         "unexpected phase 60.0"),
        # the factor phases are whole degrees, so the check is exact
        (lambda row: (dataclasses.replace(row.entries[0], phase_deg=2**-30), *row.entries[1:]),
         f"unexpected phase {2**-30}"),
    ],
    ids=["letters", "phase", "phase_off_by_a_fraction"],
)
def test_table2_reports_a_broken_factor_table(runner, monkeypatch, entries, note):
    monkeypatch.setattr(cli_module, "factor_table", _first_row_tampered(entries))
    result = runner.invoke(cli, ["table2", "--format", "json"])
    assert result.exit_code == 1
    assert result.stdout  # the payload is still written
    assert result.stderr.splitlines()[-1] == f"verification mismatch: {note}"


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
    ("6", "full"): "cba0e283ca5a1d4062448acb4f8e308734aa1c96d088fc6341b452dfd42be273",
    ("1", "ratio"): "6a03e0792b16b8a1bb351536898a0d1415025a39b6565f472c33c867069f16a1",
    ("2", "ratio"): "3de9c31db9bf936cd7ace686936c592fb8b3e80df6c3a47e647fa8b68ab80bde",
    ("3", "ratio"): "712e6616c063ab665816c348e0fe389bd9bcfec6b9d5b650fee661ebd48a902e",
    ("4", "ratio"): "bcf0cebfb383f7a381df4be6cc68ed9075f95cfb6e5d4a0bd254d0f065768211",
    ("5", "ratio"): "2079db5eea5b0cf7b52d5bd200f7a7304cc5d726be5b3e5e56e6aecb3376b190",
    ("6", "ratio"): "b65ab8a7b6985afb23049b6585bb6adc4250055d275555778035fc07c5699ed2",
    ("7", "ratio"): "b37d239cf22cde5587e9721b120d18cccf3ea29e81164b85b9744ce5102b87d8",
    ("8", "ratio"): "ea016a723be29459e04585ca7becdb5e4c3a64dae3454d0bb0264a9b65d43112",
    ("10", "ratio"): "738ebf8ff209fd1a23ff8f3ff5c7b1c48394b624124a291b446a0659e5062a87",
    ("15", "ratio"): "1c2c047cb6910c9fb58648239cd9e8a9edfdc52b57f80c8872b18659b64b1790",
}

# sha256 of the `general --conjecture` JSON bytes; d = 3 stops at N = 14, the
# largest N whose 3**(N-1)-term operator the command admits
CONJECTURE_SHA256 = {
    ("3", "3"): "7fb1d221f47da5d4d533d98742c4eb0f00834f2171b70577056826bd81746e11",
    ("3", "8"): "e528c1c5609af3ee978909b22cbc01a3b2f0fd99c7c5d29d9092aee5700e0b04",
    ("3", "14"): "ffcd18a10153e615fecea50233d88b057cc6b2aed5db18377ef3054db69d23bb",
    ("5", "1"): "156ed9b4bd83327ee65fcfff4303f767947fafadfade21925ee6e135591ddb5e",
    ("5", "2"): "754040204ac54b95e2b27fd836c45fb8da581e7bf72ecd9c4038b9980c92d825",
}

# sha256 of the JSON and CSV bytes of the other commands; the CSV of
# witness --n 1 and --n 2 (no contradictions) is the header row alone
PAYLOAD_SHA256 = {
    ("witness --n 1", "json"): "51bd422edcbfcd9835e42ed7ade3b0750468439e175793cdcc85b9b47c88d932",
    ("witness --n 1", "csv"): "d8a9c72ec4c6daf5568eaa7b1ef499ac29f02208b72e5606d9bfc6dafabb6c4c",
    ("witness --n 2", "json"): "7b8c680b70776ac376727daf69339f4d2f076801ec578eec5d2df8d6dff06b9f",
    ("witness --n 2", "csv"): "d8a9c72ec4c6daf5568eaa7b1ef499ac29f02208b72e5606d9bfc6dafabb6c4c",
    ("witness --n 3", "json"): "0fcdf1cac8ab333ca33afb969d02f91d2da15378ab9362270dd301a8eff23382",
    ("witness --n 3", "csv"): "2da9a5640b15240efc5137d5663f21ffa00b1eab8f4963d981c5c17c1dca535a",
    ("witness --n 4", "json"): "b08e52127e6ac72728ec759065c96fe9d0cf48c4d19333c7c1862894946305a9",
    ("witness --n 4", "csv"): "301b2ef40d3f8fb71e5390d7461516ed1351f4149eb9664d2a82a354fcc2822f",
    ("witness --n 5", "json"): "274015907ac4a151eb3364aaa913d3628f0230c704de297e93ce5788365c9b12",
    ("witness --n 5", "csv"): "765e7fd459498f54baa22c4d59f0348845ae9e66071e8926a4fdd26d17246603",
    ("witness --n 6", "json"): "afb41d925368fe63bac9cb382191bf0d9e9a788a31db988d09a7ffbf8cdfbfcc",
    ("witness --n 6", "csv"): "f35859d0b3388a3466fec30c8d538f3ef7955ad8a06e37131426323beb6e0250",
    ("witness --n 7", "json"): "7c9c49fc047b099e762ee2b5a61c3dcef75e0f1dc6aa30893c9fc9eede4eaae7",
    ("witness --n 7", "csv"): "3c67a31e13e00d52bce34bc8011331f75c5ce81e5a479d28b876b5d440cf0788",
    ("witness --n 8", "json"): "93008f5c5b840a267e9640ee745cf01fec2371fdee466b3e04c72a7e570fbce4",
    ("witness --n 8", "csv"): "8fdc27d978ed002ca98914938f32a3ecdad9e198cb623ac2bfcc541aad4e0896",
    ("table1", "json"): "9657c0bc94aa666e3eb50575616362eff29ab45982c400e24786f5aa7cb481e2",
    ("table1", "csv"): "fdc2233553989368366d478a1193acee037be969a5fa2f367078c447f0c38508",
    ("table1 --n-max 12", "json"): "d5e0afe0c18e4405901bb6a3ecde4749844624db9741714be7b3862aa6953a16",
    ("table1 --n-max 12", "csv"): "3b02a6cb6158a21b0d8769984b2383039c8092fde4006f5c032459b8937d451b",
    ("table2", "json"): "06daf6f278a57e237f207341c3fe94d029584b4aab255d96d473804a70fe14ee",
    ("table2", "csv"): "596161a7bb19a64821cee4f023bfc178bf21aa29bac77dd819c8a640385d92d4",
    ("scaling --n-max 40", "json"): "689a5d72c9ef53d08ad3ddb052557879aca926206c969b914d01f345851ab1f5",
    ("scaling --n-max 40", "csv"): "7b96533c76d021cd1d050e9cc50908be7c27dced213e198b95df4d939296b64c",
    ("verify --n 12 --variant 0", "json"): "d19d21878182647924e1029c49c34f7ff442b57465b376d581be717e1d45f1b0",
    ("verify --n 12 --variant 0", "csv"): "64e1e1bc1978f43d0991363746e85d760a162be59a100463b475cfc0175be811",
    ("verify --n 12 --variant 1", "json"): "48e39d5143964ba62d090a4f670e56b70ed9a6bf9d4dd7efcd8163a1863d1cf6",
    ("verify --n 12 --variant 1", "csv"): "9ffc359908035714f04d5db3994d601e778d083dbbcf5d822f8e2d3348d70753",
    ("verify --n 12 --variant 2", "json"): "b8cf154248b2c224442604eae52cff13f209239f12f00fa0367ac528b40bc088",
    ("verify --n 12 --variant 2", "csv"): "f167c1f79f7c32dcd5ad6b11b927cd81a10e621b3e9745b5aaaf12a2924b5591",
    ("verify --d 7 --n 5", "json"): "e61024f7e37a8b958624c4ee9946750943877e5292ec1d8b2f0b829931bf166b",
    ("verify --d 7 --n 5", "csv"): "1eaf7e7e6a14f6f59845725ff0c830f9c608fa9a89da910d5a12b7fff9a7e9fd",
    ("verify --d 5 --n 3", "json"): "5e1cd5295451ad8edaf1c1c3086f8bb56a686a0bc8d5a9f165be1d14188e9334",
    ("verify --d 5 --n 3", "csv"): "75168b4706b2cfa21c97c24f840378b604cd70876e7084d864e957deafeeaf89",
    ("identity --n 6", "json"): "8b08850f2dbceb6eb47fb1a96787f49bd23e981545a859c6b4d6473aca13b85d",
    ("identity --n 6", "csv"): "1cbea6dc490837e1aae7de2061c41e700807f18b3862965616a9781a347a79f0",
    ("general --d 5 --n 2", "json"): "3ff9425b1f11f25ffa2d505d3cfa730c28832b09c8e7139deff6528a71aaa5fb",
    ("general --d 5 --n 2", "csv"): "0f4506093d385e4a232a8d1ac6d05a9a68eee5ddd04f827628774e19a3910ada",
}


@pytest.mark.parametrize("n, mode", sorted(SEARCH_SHA256))
def test_search_json_bytes_are_pinned(runner, n, mode):
    result = runner.invoke(
        cli, ["search", "--n", n, "--mode", mode, "--format", "json"]
    )
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == SEARCH_SHA256[n, mode]


@pytest.mark.parametrize("d, n", sorted(CONJECTURE_SHA256))
def test_conjecture_json_bytes_are_pinned(runner, d, n):
    result = runner.invoke(
        cli, ["general", "--d", d, "--n", n, "--conjecture", "--format", "json"]
    )
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == CONJECTURE_SHA256[d, n]


@pytest.mark.parametrize("argv, fmt", sorted(PAYLOAD_SHA256))
def test_payload_bytes_are_pinned(runner, argv, fmt):
    result = runner.invoke(cli, argv.split() + ["--format", fmt])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == PAYLOAD_SHA256[argv, fmt]


_AWKWARD_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\u2028é😀'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200).flatmap(lambda i: st.sampled_from([i, -i]))
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16,
                       0.1234567, 1234567.0, 999999.5, 1.0000005e-7, 2.0**63])
    | _AWKWARD_TEXT
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_AWKWARD_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
@example({})
@example([])
@example({"rows": [], "cells": {}, "t": (1.5, -0.0, (), [{}])})
def test_json_writer_equals_the_rounding_formula(payload):
    assert cli_module._json_text(payload) == clean_json(payload)


def test_json_writer_refuses_what_json_refuses():
    for bad in (np.int64(3), {1, 2}, [1, {"a": {2}}], {"a": (np.int64(1),)}):
        with pytest.raises(TypeError):
            clean_json(bad)
        with pytest.raises(TypeError):
            cli_module._json_text(bad)
    # subclasses read as their base types, numpy floats among them
    assert cli_module._json_text([np.float64(1 / 3), True]) == clean_json([1 / 3, True])
    # keys are strings only, a narrowing of json, which writes 1 as "1"
    with pytest.raises(TypeError):
        cli_module._json_text({1: 2})


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
    # N = 8 is held by its PAYLOAD_SHA256 pin
    for n in range(1, 8):
        result = runner.invoke(cli, ["witness", "--n", str(n), "--format", "json"])
        assert result.exit_code == 0
        words = [SettingWord(3, w) for w in itertools.product((-1, 0, 1), repeat=n)]
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
        assert json.loads(result.stdout)["results"]["rows"] == expected, n


@pytest.mark.parametrize("n", range(1, 9))
def test_witness_builds_no_per_row_objects(runner, monkeypatch, n):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    monkeypatch.setattr(WitnessRecord, "__init__", refuse)
    monkeypatch.setattr(SettingWord, "__init__", refuse)
    with pytest.raises(AssertionError, match="built"):
        SettingWord(3, (0,))
    with pytest.raises(AssertionError, match="built"):
        next(iter_contradiction_witnesses(3))
    for fmt in ("json", "csv", "human"):
        result = runner.invoke(cli, ["witness", "--n", str(n), "--format", fmt])
        assert result.exit_code == 0, result.output


def test_witness_csv_without_contradictions_is_the_header(runner):
    for n in ("1", "2"):
        result = runner.invoke(cli, ["witness", "--n", n, "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout == "word,position,quantum,hv_prediction,contradicts\n"
        payload = json.loads(runner.invoke(cli, ["witness", "--n", n, "--format", "json"]).stdout)
        assert payload["results"]["rows"] == []


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


def test_witness_needs_at_least_one_site(runner):
    for n in ("0", "-1"):
        result = runner.invoke(cli, ["witness", "--n", n])
        assert result.exit_code == 2, n
        assert "need at least one site" in result.stderr


def test_witness_limit_is_refused_below_zero(runner):
    result = runner.invoke(cli, ["witness", "--n", "3", "--limit", "-2"])
    assert result.exit_code == 2 and "contradictions" not in result.output
    result = runner.invoke(cli, ["witness", "--n", "3", "--limit", "0"])
    assert result.exit_code == 0
    assert result.output.splitlines()[:2] == ["2 contradictions (expected 2)", "  ... and 2 more"]


def test_usage_errors_exit_2(runner):
    assert runner.invoke(cli, ["search", "--n", "3", "--mode", "greedy"]).exit_code == 2
    assert runner.invoke(cli, ["search", "--n", "322"]).exit_code == 2
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


HUGE_N = 10**9

# One row per engine budget a command reaches: its argv without --n, the last
# admitted N (None: every N is refused), and the refusal messages of the first
# refused N and of --n 10**9, all in the one form of ``cyclotomic._check_budget``.
BUDGET_ROWS = [
    (["verify", "--d", "3"], 14, "operator terms: 3**14 exceeds the cap of 1594323",
     f"operator terms: 3**{HUGE_N - 1} exceeds the cap of 1594323"),
    (["verify", "--d", "5"], 9, "operator terms: 5**9 exceeds the cap of 1594323",
     f"operator terms: 5**{HUGE_N - 1} exceeds the cap of 1594323"),
    (["verify", "--d", "7"], 8, "operator terms: 7**8 exceeds the cap of 1594323",
     f"operator terms: 7**{HUGE_N - 1} exceeds the cap of 1594323"),
    (["search"], 321, f"ratio square mass: 9**323 exceeds the cap of {2**1022}",
     f"ratio square mass: 9**{HUGE_N + 1} exceeds the cap of {2**1022}"),
    (["search", "--mode", "full"], 6, "full search: 27**7 exceeds the cap of 387420489",
     f"full search: 27**{HUGE_N} exceeds the cap of 387420489"),
    (["general", "--d", "5", "--conjecture"], 2,
     "letter multisets: C(627, 3) exceeds the cap of 500000",
     f"operator terms: 5**{HUGE_N - 1} exceeds the cap of 1594323"),
    (["general", "--d", "7", "--conjecture"], None,
     "ratio factor table: 7**9 exceeds the cap of 1000000",
     f"operator terms: 7**{HUGE_N - 1} exceeds the cap of 1594323"),
    (["identity"], 9, "identity words: 3**10 exceeds the cap of 20000",
     f"identity words: 3**{HUGE_N} exceeds the cap of 20000"),
    (["witness"], 8, "witness words: 3**9 exceeds the cap of 6561",
     f"witness words: 3**{HUGE_N} exceeds the cap of 6561"),
]


def test_budget_exit_codes(runner):
    # the last admitted N exits 0; the first refused N and a huge one exit 2
    # with the budget's message on stderr, and nothing on stdout
    for argv, last, refused, huge in BUDGET_ROWS:
        if last is not None:
            assert runner.invoke(cli, [*argv, "--n", str(last)]).exit_code == 0, argv
        for n, message in ((1 if last is None else last + 1, refused), (HUGE_N, huge)):
            result = runner.invoke(cli, [*argv, "--n", str(n)])
            assert result.exit_code == 2, (argv, n)
            assert result.stderr.splitlines()[-1] == f"Error: {message}", (argv, n)
            assert re.fullmatch(r"[a-z ]+: [^:]+ exceeds the cap of \d+", message)
            assert result.stdout == ""
    result = runner.invoke(cli, ["verify", "--n", "13", "--variant", "2", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["results"]["eigenvalue"] == 3**12


# The local dimension d is admitted by one rule (``cyclotomic._local_dimension``):
# odd, d**5 within its budget, and a prime ring.  One row per command and d past
# 7: argv, then None if it exits 0, else the refusal message.
DIMENSION_ROWS = [
    (["verify", "--d", "11", "--n", "6"], None),
    (["verify", "--d", "13", "--n", "6"], None),
    (["general", "--d", "13", "--n", "6"], None),
    (["verify", "--d", "13", "--n", "7"], "operator terms: 13**6 exceeds the cap of 1594323"),
    (["verify", "--d", "17", "--n", "2"], "local dimension: 17**5 exceeds the cap of 1048576"),
    (["verify", "--d", str(10**9 + 7), "--n", "2"],
     f"local dimension: {10**9 + 7}**5 exceeds the cap of 1048576"),
    (["general", "--d", "11", "--n", "3", "--conjecture"],
     "ratio factor table: 11**13 exceeds the cap of 1000000"),
    (["verify", "--d", "9", "--n", "2"],
     "invalid cyclotomic order 81: expected d**2 with d an odd prime"),
]


@pytest.mark.parametrize(
    "argv, message", DIMENSION_ROWS,
    ids=["_".join(argv[:5:2]) for argv, _ in DIMENSION_ROWS],
)
def test_dimension_exit_codes(runner, argv, message):
    result = runner.invoke(cli, [*argv, "--format", "json"])
    if message is None:
        assert result.exit_code == 0, result.output
        results = json.loads(result.stdout)["results"]
        assert results["eigenvalue"] == results["expected"] and results["match"]
    else:
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == f"Error: {message}"
        assert result.stdout == ""


@pytest.mark.parametrize("n", [16, 22, 23, 25, 40, 100, 321])
def test_ratio_search_past_the_class_ranking_states_the_exact_facts(runner, monkeypatch, n):
    # past the ranking's N = 15 the maximum is |p_N|, tied 3**N ways, from the all-ones point;
    # the K values differ by about (B/A)**N relative, so from N = 23 their order needs mpmath
    calls = []
    fallback = cyclotomic.mp_real_value
    monkeypatch.setattr(
        cyclotomic, "mp_real_value", lambda *args: calls.append(args) or fallback(*args)
    )
    result = runner.invoke(cli, ["search", "--n", str(n), "--format", "json"])
    assert result.exit_code == 0
    results = json.loads(result.stdout)["results"]
    assert results["max_sq_coeffs"] == [power_sum(n) ** 2] + [0] * 5
    assert results["uniform_value"] * 3 == power_sum(n)
    assert results["num_maximizers"] == 3**n
    assert results["argmax_index"] == 0
    assert results["assignments_scanned"] == 9**n
    assert results["max_equals_uniform"] is True
    assert bool(calls) == (n >= 23)


def test_each_scaling_m_c_is_the_search_maximum(runner):
    result = runner.invoke(cli, ["scaling", "--n-max", "40", "--format", "json"])
    assert result.exit_code == 0
    rows = json.loads(result.stdout)["results"]["rows"]
    assert [row["N"] for row in rows] == list(range(1, 41))
    for row in rows:
        search = exhaustive_search(row["N"])
        assert search.max_sq_coeffs == ((3 * row["M_C"]) ** 2, 0, 0, 0, 0, 0), row["N"]


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
