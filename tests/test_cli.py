"""Command-line behavior: exit codes, reports, determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsnet.cli import main
from lrsnet.constraints import (
    cover_dimension,
    derive_zero_sets,
    format_pattern,
    suggest_field_params,
)
from lrsnet.netsim import NetworkInstance, build_distributed_code, even_partition

TOY_JSON = json.dumps({
    "h": 4, "r": [1, 3, 2, 3],
    "S": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]],
    "t": 2, "rho": 2, "ell": 3,
})


@pytest.fixture
def toy_instance(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(TOY_JSON)
    return str(path)


@pytest.fixture
def toy_pattern(tmp_path):
    sc = derive_zero_sets([{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}],
                          (1, 3, 2, 3), (6, 7, 2, 8))
    path = tmp_path / "toy.pattern"
    path.write_text(format_pattern(sc))
    return str(path)


def test_check_toy_pattern_holds(toy_pattern, capsys):
    rc = main(["check", toy_pattern, "--n", "23"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["holds"] and out["cover_dim"] == 9
    assert out["k"] == 9


def test_check_violating_pattern(tmp_path, capsys):
    path = tmp_path / "bad.pattern"
    path.write_text("1\n1\n")
    rc = main(["check", str(path), "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["witness"] == [1, 2]


def test_check_empty_sets_hold(tmp_path, capsys):
    path = tmp_path / "free.pattern"
    path.write_text("-\n-\n")
    rc = main(["check", str(path), "--n", "4"])
    assert rc == 0


@pytest.mark.parametrize("command", ["check", "construct"])
@pytest.mark.parametrize("n", ["2", "0"])
def test_pattern_with_more_rows_than_columns_exit_code(command, n, tmp_path, capsys):
    # no full-rank 3 x n generator exists for n < 3, whatever the zeros
    path = tmp_path / "tall.pattern"
    path.write_text("-\n-\n-\n")
    rc = main([command, str(path), "--n", n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"a full-rank 3 x {n} generator needs n >= k columns" in captured.err


def test_check_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.pattern"
    path.write_text("1 2\nnope\n")
    rc = main(["check", str(path), "--n", "4"])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_construct_micro_pattern(tmp_path, capsys):
    path = tmp_path / "micro.pattern"
    path.write_text("2\n1\n")
    out_file = tmp_path / "code.json"
    rc = main(["construct", str(path), "--n", "4", "--ell", "2",
               "--parts", "2,2", "--q", "3", "--m", "2", "--out", str(out_file)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["distance"] == 3 and doc["distance_optimal"]
    assert doc["support_ok"]
    from lrsnet.construct import from_json

    cc = from_json(out_file.read_text())
    assert len(cc.matrix) == 2


def test_construct_refuses_violating_without_subcode(tmp_path, capsys):
    path = tmp_path / "bad.pattern"
    path.write_text("1\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--ell", "2", "--parts", "2,2"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "witness" in captured.out
    assert "--subcode" in captured.err


def test_construct_subcode_rows(tmp_path, capsys):
    path = tmp_path / "bad.pattern"
    path.write_text("1\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--ell", "2",
               "--parts", "2,2", "--subcode"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["cover_dim"] == 3
    assert doc["distance"] == 2 and doc["distance_optimal"]


def test_design_toy(toy_instance, capsys):
    rc = main(["design", toy_instance])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["n"] == 23 and doc["distance"] == 15
    assert doc["cover_dim"] == 9
    assert doc["parts"] == [8, 7, 8]


def test_design_seed_requires_build(toy_instance, capsys):
    # without --build nothing is synthesized, so a seed would change nothing
    rc = main(["design", toy_instance, "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--build" in captured.err
    assert captured.out == ""


def test_design_build_seed_defaults_to_zero(toy_instance, capsys):
    assert main(["design", toy_instance, "--build"]) == 0
    unseeded = capsys.readouterr().out
    assert main(["design", toy_instance, "--build", "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


# Pinned `design --build` outputs: the toy code over F_{4^10} (ell 3) and
# F_{5^10} (ell 4), both past the log tables, so every product, inverse and
# Frobenius power of the synthesis runs on the packed routes of `gf`.
BUILD_GOLDEN_SHA256 = {
    3: "89c67ff5b00c7328255f7378492cacb06065ccb43a0ab544340af3c9d6bcca42",
    4: "a2e976d421742cf9019ebd55197d9d163b9c7260652a5d46df1178e32aecbccc",
}


@pytest.mark.parametrize("ell", sorted(BUILD_GOLDEN_SHA256))
def test_design_build_golden(ell, toy_instance, tmp_path, capsys):
    out_file = tmp_path / "design.json"
    assert main(["design", toy_instance, "--build", "--ell", str(ell), "--seed", "7",
                 "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == BUILD_GOLDEN_SHA256[ell]


# Pinned `simulate --trials 100` stdout per seed for the toy design at ell 3
# (channel over F_4) and ell 4 (over F_5): every channel draw, its verified
# rank and the weight audit feed these reports.
SIMULATE_GOLDEN_SHA256 = {
    (3, 0): "a5770bea1c7736c1d9793c8373ca1c2d06a3eb1f1c0d1d3c4b0196e80dc40adb",
    (3, 1): "82d080d5a86ba0356749072d4840e05a1dc79c1fbf427d2b00bbda747604c817",
    (3, 2): "685d1a0813fee3c616cf22c75e866220422fa5702d1cfde47dd30742b1e0b56a",
    (3, 3): "c5cc5365d5aae3c2a0f7110095a6e1a61406f2c4c1d3483adad8ea42e67c6e79",
    (4, 0): "9e9122a408bdfb4fa08707400cf63b7a269fc4ee4bd283aae96dadf81dd1a5de",
    (4, 1): "e60277b62c01b652049ecf3f58523ae6934ff40a22b7d60a58e33db6291db1fb",
    (4, 2): "ab909be88a604dde831a40a8e60e200d32f7ef0d7a38fc4d37be7c31c7aad3c9",
    (4, 3): "29d8e5772f5755528c96efe0d54f052bc3b5bcd25693e1e0538f6c96b2e505b3",
}


@pytest.mark.parametrize("ell", [3, 4])
def test_simulate_golden(ell, toy_instance, tmp_path, capsys):
    design_path = tmp_path / "design.json"
    assert main(["design", toy_instance, "--ell", str(ell), "--out", str(design_path)]) == 0
    capsys.readouterr()
    for seed in range(4):
        assert main(["simulate", str(design_path), "--trials", "100", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SIMULATE_GOLDEN_SHA256[ell, seed]


def test_design_table_sweep(toy_instance, tmp_path, capsys):
    out_file = tmp_path / "table.json"
    rc = main(["tables", toy_instance, "--lmax", "4", "--out", str(out_file)])
    assert rc == 0
    rows = json.loads(out_file.read_text())
    assert [(r["n"], r["distance"]) for r in rows] == [
        (15, 7), (19, 11), (23, 15), (27, 19)]
    assert [r["q"] for r in rows] == [2, 3, 4, 5]
    assert [r["cover_dim"] for r in rows] == [9, 9, 9, 9]
    assert rows[1]["parts"] == [10, 9]
    text = capsys.readouterr().out
    assert "[23,9,15]" in text


def test_tables_alias(toy_instance, capsys):
    rc = main(["tables", toy_instance, "--lmax", "2"])
    assert rc == 0
    assert "[19,9,11]" in capsys.readouterr().out


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_design_rejects_nonpositive_ell(ell, toy_instance, capsys):
    rc = main(["design", toy_instance, "--ell", ell])
    assert rc == 2
    captured = capsys.readouterr()
    assert "ell >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lmax", ["0", "-2"])
def test_tables_rejects_nonpositive_lmax(lmax, toy_instance, capsys):
    rc = main(["tables", toy_instance, "--lmax", lmax])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--lmax" in captured.err
    assert captured.out == ""


def test_design_instance_missing_key_exit_code(tmp_path, capsys):
    doc = json.loads(TOY_JSON)
    del doc["ell"]
    path = tmp_path / "noell.json"
    path.write_text(json.dumps(doc))
    rc = main(["design", str(path)])
    assert rc == 2
    assert '"ell"' in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("ell", "3"), ("t", 1.5), ("rho", True), ("r", 9), ("S", [1, 2]), ("S", [["1"]]),
], ids=["ell-str", "t-float", "rho-bool", "r-int", "S-flat", "S-str"])
def test_design_instance_wrong_type_exit_code(key, value, tmp_path, capsys):
    doc = json.loads(TOY_JSON)
    doc[key] = value
    path = tmp_path / "badtype.json"
    path.write_text(json.dumps(doc))
    rc = main(["design", str(path)])
    assert rc == 2
    assert f'"{key}"' in capsys.readouterr().err


def test_design_unreachable_message(tmp_path, capsys):
    doc = {"h": 2, "r": [1, 1], "S": [[1]], "t": 0, "rho": 0, "ell": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["design", str(path)])
    assert rc == 2
    assert "message 2" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"h": 1, "r": [1], "S": [[1]], "t": 0, "rho": 0, "ell": 2},
    {"h": 2, "r": [1, 1], "S": [[1, 2]], "t": 0, "rho": 0, "ell": 3},
], ids=["h1-ell2", "h2-ell3"])
def test_design_pads_to_one_symbol_per_block(doc, tmp_path, capsys):
    # the demands alone ask for fewer symbols than blocks
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    rc = main(["design", str(path), "--build"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["n"] == sum(out["lengths"]) == doc["ell"]
    assert out["parts"] == [1] * doc["ell"]


def test_simulate_no_adversary_recovers(tmp_path, capsys):
    # micro instance with t = rho = 0: every decode trial must succeed
    doc = {"h": 2, "r": [1, 1], "S": [[1, 2], [1, 2]], "t": 0, "rho": 0, "ell": 2}
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    design_path = tmp_path / "design.json"
    rc = main(["design", str(inst_path), "--build", "--out", str(design_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["simulate", str(design_path), "--trials", "40"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["channel"]["bounds_ok"]
    assert out["decode"]["successes"] == out["decode"]["trials"]


def test_simulate_adversarial_micro_design(tmp_path, capsys):
    # two fully informed sources, one malicious node: the designed [4,2,3]
    # code over F_16 corrects the injected weight-1 errors in every trial
    doc = {"h": 2, "r": [1, 1], "S": [[1, 2], [1, 2]], "t": 1, "rho": 0, "ell": 1}
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    design_path = tmp_path / "design.json"
    rc = main(["design", str(inst_path), "--build", "--out", str(design_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["simulate", str(design_path), "--trials", "30", "--seed", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["design"]["distance"] == 3
    assert out["decode"]["error_weight"] == 1
    assert out["decode"]["successes"] == out["decode"]["trials"]


@pytest.mark.parametrize("flag", ["--q", "--m"])
def test_construct_lone_field_flag_exit_code(flag, tmp_path, capsys):
    path = tmp_path / "micro.pattern"
    path.write_text("2\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--parts", "2,2", flag, "5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--q and --m" in captured.err
    assert captured.out == ""


def test_construct_q_not_prime_power_exit_code(tmp_path, capsys):
    path = tmp_path / "micro.pattern"
    path.write_text("2\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--parts", "2,2", "--q", "6", "--m", "2"])
    assert rc == 2
    assert "prime power" in capsys.readouterr().err


def test_construct_parts_mismatch_exit_code(tmp_path, capsys):
    path = tmp_path / "p.pattern"
    path.write_text("2\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--parts", "2,3"])
    assert rc == 2
    assert "sum" in capsys.readouterr().err


def test_construct_ell_must_match_parts(tmp_path, capsys):
    path = tmp_path / "micro.pattern"
    path.write_text("2\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--ell", "3", "--parts", "2,2",
               "--q", "3", "--m", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--ell 3" in captured.err and "2 blocks" in captured.err
    assert captured.out == ""
    # without --ell the blocks are those of --parts; with neither, one block
    assert main(["construct", str(path), "--n", "4", "--parts", "2,2", "--q", "3",
                 "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["parts"] == [2, 2]
    assert main(["construct", str(path), "--n", "4", "--q", "3", "--m", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["parts"] == [4]


@pytest.mark.parametrize("ell", ["0", "-1"])
def test_construct_rejects_nonpositive_ell(ell, tmp_path, capsys):
    path = tmp_path / "micro.pattern"
    path.write_text("2\n1\n")
    rc = main(["construct", str(path), "--n", "4", "--ell", ell])
    assert rc == 2
    captured = capsys.readouterr()
    assert "ell >= 1" in captured.err
    assert captured.out == ""


def test_simulate_binary_field_channel(toy_instance, tmp_path, capsys):
    # ell = 1 design suggests q = 2; the channel then runs over F_2
    design_path = tmp_path / "design1.json"
    rc = main(["design", toy_instance, "--ell", "1", "--out", str(design_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["simulate", str(design_path), "--trials", "30", "--seed", "4"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["design"]["q"] == 2
    assert out["channel"]["bounds_ok"]


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_simulate_rejects_nonpositive_trials(trials, toy_instance, tmp_path, capsys):
    design_path = tmp_path / "design.json"
    assert main(["design", toy_instance, "--out", str(design_path)]) == 0
    capsys.readouterr()
    rc = main(["simulate", str(design_path), "--trials", trials])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert captured.out == ""


@pytest.fixture
def toy_design_doc(toy_instance, tmp_path, capsys):
    design_path = tmp_path / "design.json"
    assert main(["design", toy_instance, "--out", str(design_path)]) == 0
    capsys.readouterr()
    return json.loads(design_path.read_text())


@pytest.mark.parametrize("key", ["n", "lengths", "instance"])
def test_simulate_design_missing_key_exit_code(key, toy_design_doc, tmp_path, capsys):
    del toy_design_doc[key]
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps(toy_design_doc))
    rc = main(["simulate", str(path), "--trials", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f'"{key}"' in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key,value", [
    ("n", "23"), ("k", 9.0), ("cover_dim", None), ("distance", True), ("q", [4]),
    ("m", "10"), ("lengths", [6, "7", 2, 8]), ("parts", 23),
], ids=["n-str", "k-float", "cover_dim-null", "distance-bool", "q-list", "m-str",
        "lengths-str", "parts-int"])
def test_simulate_design_wrong_type_exit_code(key, value, toy_design_doc, tmp_path, capsys):
    toy_design_doc[key] = value
    path = tmp_path / "badtype.json"
    path.write_text(json.dumps(toy_design_doc))
    rc = main(["simulate", str(path), "--trials", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f'"{key}"' in captured.err
    assert captured.out == ""


def test_simulate_design_not_an_object_exit_code(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    rc = main(["simulate", str(path)])
    assert rc == 2
    assert "object" in capsys.readouterr().err


def _simulate_rejects(doc, tmp_path, capsys, message):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", str(path), "--trials", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key,value,message", [
    ("n", 40, '"n" is 40'), ("k", 10, '"k" is 10'), ("cover_dim", 10, '"cover_dim" is 10'),
    ("distance", 16, '"distance" is 16'), ("parts", [8, 8, 7], '"parts"'), ("q", 5, '"q" is 5'),
    ("m", 11, '"m" is 11'), ("lengths", [2, 7, 6, 9], '"n" is 23'),
    ("lengths", [2, 7, 14], '"lengths"'), ("lengths", [2, 7, 16, -2], '"lengths"'),
], ids=["n", "k", "cover_dim", "distance", "parts", "q", "m", "lengths-sum",
        "lengths-count", "lengths-negative"])
def test_simulate_rejects_tampered_design(key, value, message, toy_design_doc, tmp_path,
                                          capsys):
    toy_design_doc[key] = value
    _simulate_rejects(toy_design_doc, tmp_path, capsys, message)


def test_simulate_rejects_design_beyond_decoding_bound(toy_design_doc, tmp_path, capsys):
    # one source carries everything, so message 4's rows vanish on every
    # column: every derived field is made consistent, only the bound fails
    inst = NetworkInstance.from_json(TOY_JSON)
    lengths = [23, 0, 0, 0]
    ktil = cover_dimension(derive_zero_sets(inst.access, inst.lengths, lengths))
    parts = even_partition(23, 3).parts
    params = suggest_field_params(ktil, 3, parts)
    toy_design_doc.update(lengths=lengths, cover_dim=ktil, parts=list(parts),
                          q=params.q, m=params.m)
    _simulate_rejects(toy_design_doc, tmp_path, capsys, "decoding-capability bound")


@pytest.fixture(scope="module")
def toy_built_design():
    return json.loads(build_distributed_code(NetworkInstance.from_json(TOY_JSON)).to_json())


def _rows(csv):
    return [line.split(",") for line in csv.split("\n")]


def _csv(rows):
    return "\n".join(",".join(row) for row in rows)


def _nonzero_in_zero(code):
    rows = _rows(code["matrix_csv"])
    rows[0][code["zero_sets"][0][0] - 1] = "1"
    code["matrix_csv"] = _csv(rows)


def _singular_transform(code):
    rows = _rows(code["transform_csv"])
    rows[-1] = rows[0]
    code["transform_csv"] = _csv(rows)


def _short_matrix(code):
    code["matrix_csv"] = _csv(_rows(code["matrix_csv"])[:-1])


def _outside_field(code):
    rows = _rows(code["matrix_csv"])
    rows[0][0] = str(4 ** 10)
    code["matrix_csv"] = _csv(rows)


def _dropped_zero(code):
    code["zero_sets"][0] = code["zero_sets"][0][1:]


@pytest.mark.parametrize("tamper,message", [
    (lambda code: code.update(field="x"), '"field"'),
    (lambda code: code.pop("multipliers"), '"multipliers"'),
    (lambda code: code.update(k="9"), '"k"'),
    (_nonzero_in_zero, "first k rows"),
    (_singular_transform, "singular"),
    (_short_matrix, "9 x 23"),
    (_outside_field, "outside"),
    (_dropped_zero, "zero sets"),
], ids=["field-str", "no-multipliers", "k-str", "nonzero-in-zero", "singular-transform",
        "short-matrix", "outside-field", "dropped-zero"])
def test_simulate_rejects_tampered_code(tamper, message, toy_built_design, tmp_path, capsys):
    doc = copy.deepcopy(toy_built_design)
    tamper(doc["code"])
    _simulate_rejects(doc, tmp_path, capsys, message)


def test_simulate_rejects_code_of_another_design(toy_built_design, tmp_path, capsys):
    pattern = tmp_path / "micro.pattern"
    pattern.write_text("2\n1\n")
    code_path = tmp_path / "code.json"
    assert main(["construct", str(pattern), "--n", "4", "--parts", "2,2", "--q", "3",
                 "--m", "2", "--out", str(code_path)]) == 0
    capsys.readouterr()
    doc = copy.deepcopy(toy_built_design)
    doc["code"] = json.loads(code_path.read_text())
    _simulate_rejects(doc, tmp_path, capsys, "does not match the design")


def test_simulate_rejects_code_missing_a_derived_zero(toy_built_design, tmp_path, capsys):
    # swapping the first two sources (and their lengths) keeps n, k, cover_dim,
    # field and parts but moves the columns message 3 must vanish on
    doc = copy.deepcopy(toy_built_design)
    s = doc["instance"]["S"]
    s[0], s[1] = s[1], s[0]
    lengths = doc["lengths"]
    lengths[0], lengths[1] = lengths[1], lengths[0]
    _simulate_rejects(doc, tmp_path, capsys, "lacks a zero")


def test_simulate_rejects_instance_beyond_its_columns(toy_design_doc, tmp_path, capsys):
    # 10^6 rows of message 4 cannot fit the design's 23 columns; the shape
    # check fails before any zero set is scanned or matched
    toy_design_doc["instance"]["r"] = [1, 3, 2, 10**6]
    start = time.perf_counter()
    _simulate_rejects(toy_design_doc, tmp_path, capsys, "needs n >= k")
    assert time.perf_counter() - start < 1.0


def test_simulate_rejects_huge_length_at_once(toy_design_doc, tmp_path, capsys):
    # lengths summing to ~10^6 against n = 23: n is compared with their sum
    # before the 10^6-column zero pattern is built and matched
    toy_design_doc["lengths"] = [1000000, 7, 2, 8]
    start = time.perf_counter()
    _simulate_rejects(toy_design_doc, tmp_path, capsys, '"n" is 23')
    assert time.perf_counter() - start < 5.0


def test_simulate_deterministic(toy_instance, tmp_path, capsys):
    design_path = tmp_path / "design.json"
    main(["design", toy_instance, "--out", str(design_path)])
    capsys.readouterr()
    main(["simulate", str(design_path), "--trials", "25", "--seed", "9"])
    first = capsys.readouterr().out
    main(["simulate", str(design_path), "--trials", "25", "--seed", "9"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# fuzzing the JSON boundaries: one mutation of a valid document at any depth

MICRO_INSTANCE = {"h": 2, "r": [1, 1], "S": [[1, 2], [1, 2]], "t": 1, "rho": 0, "ell": 1}


@pytest.fixture(scope="module")
def micro_built_design():
    # the F_16 [4,2,3] design of test_simulate_adversarial_micro_design
    inst = NetworkInstance.from_json(json.dumps(MICRO_INSTANCE))
    return json.loads(build_distributed_code(inst).to_json())


def _json_paths(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_paths(item, path + (i,))


_OTHER_TYPES = ("x", 1.5, True, None, [], {})


def _mutations(doc, large_values):
    """(kind, path, value) for every dropped key, every value of another JSON
    type and, with large_values, every integer set to 0, -1 or 10^6."""
    out = []
    for path, value in _json_paths(doc):
        if not path:
            continue
        if isinstance(path[-1], str):
            out.append(("drop", path, None))
        out.extend(("type", path, alt) for alt in _OTHER_TYPES if type(alt) is not type(value))
        if large_values and type(value) is int:
            out.extend(("int", path, alt) for alt in (0, -1, 10**6))
    return out


def _mutated(doc, mutation):
    kind, path, value = mutation
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run_main_on(doc, argv):
    """Exit code and stdout of main on doc written to a file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([argv[0], path] + argv[1:])
    return rc, out.getvalue()


def _assert_contract(mutation, rc, stdout):
    kind, path, value = mutation
    assert rc in (0, 1, 2)
    if rc:
        assert stdout == ""
    if kind != "int" and not (path == ("code",) and value is None):
        assert rc == 2, mutation


_fuzz_settings = settings(max_examples=300, deadline=None)


@_fuzz_settings
@given(st.data())
def test_simulate_fuzzed_micro_design(micro_built_design, data):
    mutation = data.draw(st.sampled_from(_mutations(micro_built_design, large_values=True)))
    rc, stdout = _run_main_on(_mutated(micro_built_design, mutation),
                              ["simulate", "--trials", "1"])
    _assert_contract(mutation, rc, stdout)


@pytest.mark.parametrize("path", [("code", "field", "m"), ("lengths", 0)],
                         ids=["field-m", "lengths"])
def test_simulate_rejects_huge_value_at_once(micro_built_design, path):
    # q^m - 1 used to be factored before the modulus length was checked, and
    # a 10^6-symbol block made the sharp degree search quadratic in m
    start = time.perf_counter()
    rc, stdout = _run_main_on(_mutated(micro_built_design, ("int", path, 10**6)),
                              ["simulate", "--trials", "1"])
    assert rc == 2 and stdout == ""
    assert time.perf_counter() - start < 1.0


# large values are left out here: they can make the design ILP grind (ROADMAP item 2)
@_fuzz_settings
@given(st.sampled_from(_mutations(MICRO_INSTANCE, large_values=False)))
def test_design_fuzzed_instance(mutation):
    rc, stdout = _run_main_on(_mutated(MICRO_INSTANCE, mutation), ["design"])
    _assert_contract(mutation, rc, stdout)
