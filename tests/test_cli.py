import argparse
import ast
import json
import math

import pytest

from freecomm.cli import build_parser, main
from freecomm.groups import symmetric_group
from freecomm.matrices import sample_cue, subseed, unitary_with_trace

from oracles import dense_decay_curve


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def exit_code(argv):
    """main's exit status, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_verify_identity_default_grid(capsys):
    code, doc = run_json(capsys, ["verify-identity"])
    assert code == 0
    assert doc["pass"] is True
    assert doc["max_deviation"] == 0.0
    assert doc["config"]["subcommand"] == "verify-identity"
    assert "tol" not in doc["config"]
    assert doc["config"]["version"]
    assert len(doc["results"]) == 64


def test_verify_identity_zero_grid(capsys):
    code, doc = run_json(capsys, ["verify-identity", "--alpha-grid", "0", "--beta-grid", "0"])
    assert code == 0
    assert doc["results"][0]["deviation"] == 0.0


def test_verify_identity_wrong_closed_form_fails(capsys, monkeypatch):
    # deviations are exact: a closed form off by alpha^2 beta^2 shows as
    # exactly that at (0.5, 0.5), and the identity is no longer proved
    monkeypatch.setattr("freecomm.algebra.COMMUTATOR_CLOSED_FORM", ((0, 0, 1), (0, 0, 0), (1, 0, -2)))
    code, doc = run_json(capsys, ["verify-identity", "--alpha-grid", "0.5,0",
                                  "--beta-grid", "0.5"])
    assert code == 1
    assert doc["pass"] is False
    assert [r["deviation"] for r in doc["results"]] == [0.0625, 0.0]
    assert doc["max_deviation"] == 0.0625


def test_verify_identity_rejects_tol(capsys):
    # with exact deviations a tolerance decides nothing, so there is none
    assert exit_code(["verify-identity", "--tol", "0"]) == 2


def test_verify_identity_bad_grid_is_usage_error(capsys):
    assert main(["verify-identity", "--alpha-grid", "1.5"]) == 2
    assert main(["verify-identity", "--alpha-grid", "abc"]) == 2
    assert main(["verify-identity", "--alpha-grid", ""]) == 2


def test_dynamics_exact_csv(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["dynamics", "--alpha", "0.9", "--n-max", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,ell,ell_bar,lower,upper,in_bounds,source"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 5
    assert all(r[5] == "1" for r in rows)
    assert [r[6] for r in rows] == ["exact"] * 4 + ["exact_trace"]


def test_dynamics_single_row(capsys):
    code = main(["dynamics", "--alpha", "0.9", "--n-max", "1", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["report"]["steps"]) == 1


def test_dynamics_matrix_model(capsys):
    code = main([
        "dynamics", "--alpha", "0.9", "--model", "matrix", "--n", "64",
        "--seed", "5", "--n-max", "3", "--format", "json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    steps = doc["report"]["steps"]
    assert [s["source"] for s in steps] == ["matrix"] * 3
    assert doc["report"]["slack"] == 0.05


@pytest.mark.parametrize("alpha, dim, width", [(0.9, 2, 0), (0.0, 64, 32)])
def test_dynamics_matrix_edge_factors(capsys, alpha, dim, width):
    # the empty factor (m_plus rounds to N, so u = I) and the widest one
    # (k = N/2) run through the CLI and match the dense products
    code, doc = run_json(capsys, [
        "dynamics", "--model", "matrix", f"--alpha={alpha}", "--n", str(dim),
        "--seed", "4", "--n-max", "4", "--format", "json",
    ])
    assert code == 0
    u, _ = unitary_with_trace(alpha, dim, subseed(4, 0))
    assert u.basis.shape == (dim, width)
    # the CLI draws v as a CMV matrix; the oracle multiplies it out densely
    rows = dense_decay_curve(u.array, sample_cue(dim, subseed(4, 1)).array, 4)
    steps = doc["report"]["steps"]
    assert len(steps) == 4
    for step, (trace, ell, ell_bar) in zip(steps, rows):
        assert step["trace"] == pytest.approx(trace, rel=1e-11, abs=1e-13)
        assert step["ell"] == pytest.approx(ell, rel=1e-11, abs=1e-13)
        assert step["ell_bar"] == pytest.approx(ell_bar, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("alpha", [0.9, 0.75, -0.42])
def test_dynamics_long_curve_reports_past_float_range(tmp_path, alpha):
    # sqrt(2)^(n-1) alone leaves the float range at n = 2049, and ell(u)^n
    # from n = 1360 for alpha = -0.42; the upper bound still has its value,
    # which stays ell(u) = sqrt(1/2) at every n for alpha = 3/4
    out = tmp_path / "curve.csv"
    assert main(["dynamics", "--alpha", str(alpha), "--n-max", "2100", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [int(r[0]) for r in rows] == list(range(1, 2101))
    assert all(r[5] == "1" for r in rows)
    log_ell = math.log(math.sqrt(2.0 - 2.0 * alpha))
    for n in (1, 1000, 2048, 2049, 2100):
        row = rows[n - 1]
        log_upper = (n - 1) * math.log(math.sqrt(2.0)) + n * log_ell
        if log_upper > math.log(1.7e308):
            assert row[4] == "inf"
        elif log_upper < math.log(1e-300):
            assert float(row[4]) < 1e-290
        else:
            assert float(row[4]) == pytest.approx(math.exp(log_upper), rel=1e-9)


def test_dynamics_exact_rows_default_slack(capsys):
    # the report prints the slack its exact rows were judged with
    code, doc = run_json(capsys, ["dynamics", "--alpha", "0.9", "--n-max", "1", "--format", "json"])
    assert code == 0
    assert doc["report"]["slack"] == 1e-10


def test_dynamics_require_contraction(capsys):
    assert main(["dynamics", "--alpha", "0.5", "--require-contraction"]) == 2
    assert main(["dynamics", "--alpha", "1.5"]) == 2


def test_zassenhaus_bundled(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["zassenhaus", "--out", str(out)])
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "binary_tetrahedral_su2.json",
        "cyclic13_u1.json",
        "pauli_u2.json",
        "quaternion_su2.json",
    ]
    for p in out.iterdir():
        doc = json.loads(p.read_text())
        assert doc["closed"] is True
        assert doc["filter"]["is_abelian"] is True
        assert doc["filter"]["is_normal"] is True
    cyc = json.loads((out / "cyclic13_u1.json").read_text())
    assert cyc["filter"]["subgroup_order"] == 13


def test_zassenhaus_empty_catalog(tmp_path, capsys):
    cat = tmp_path / "empty.json"
    cat.write_text(json.dumps({"entries": {}}))
    out = tmp_path / "reports"
    assert main(["zassenhaus", "--catalog", str(cat), "--out", str(out)]) == 0


def test_zassenhaus_threshold_zero(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["zassenhaus", "--t", "0", "--out", str(out)])
    assert code == 0
    for p in out.iterdir():
        doc = json.loads(p.read_text())
        assert doc["filter"]["subgroup_order"] == 1


def test_zassenhaus_irrational_rotation_does_not_close(tmp_path, capsys):
    # a rotation by 1 rad has infinite order: a power lands inside the
    # near-identity band without merging with the identity
    c, s = math.cos(1.0), math.sin(1.0)
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"entries": {"rot1": {"generators": [
        [[[c, 0], [-s, 0]], [[s, 0], [c, 0]]]]}}}))
    out = tmp_path / "reports"
    assert main(["zassenhaus", "--catalog", str(cat), "--out", str(out)]) == 1
    doc = json.loads((out / "rot1.json").read_text())
    assert doc["closed"] is False and "filter" not in doc
    assert doc["non_closure"]["reason"] == "near_identity"
    assert 0.0 < doc["non_closure"]["ell"] <= 0.01
    assert doc["non_closure"]["elements_found"] > 1


def test_zassenhaus_unreadable_catalog(tmp_path, capsys):
    assert main(["zassenhaus", "--catalog", str(tmp_path / "nope.json")]) == 2


_ONE = [[1, 0]]  # the row of a 1 x 1 identity, one (re, im) pair
_EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("doc", [
    {"entries": {"a": {"generators": [[1, 0]]}}},  # rows are numbers, not pairs
    {"entries": {"a": {"generators": [[[[1, 0], [0, 0]]]]}}},  # 1 x 2
    {"entries": {"a": {"generators": [_EYE2, [_ONE]]}}},  # 2 x 2 and 1 x 1
    {"entries": {"a": {"generators": [[[[2, 0]]]]}}},  # [[2]] is not unitary
    {"entries": {"a": {"generators": []}}},
    {"entries": []},
    [],
], ids=["numbers", "one-by-two", "mixed-dims", "not-unitary", "no-generators", "entries-list",
        "list"])
def test_zassenhaus_malformed_catalog_is_usage_error(doc, tmp_path, capsys):
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(doc))
    assert main(["zassenhaus", "--catalog", str(cat), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable catalog {cat}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [{"order": 1, "table": [0], "labels": 5}, []],
                         ids=["labels-number", "list"])
def test_mif_malformed_group_file_is_usage_error(doc, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    assert main(["mif", "--group", str(path), "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable group file {path}: ") and err.count("\n") == 1


_C2 = {"order": 2, "table": [0, 1, 1, 0]}


@pytest.mark.parametrize("doc, field", [
    ({**_C2, "table": [0, 1, 1, 0.5]}, "'table'"),  # int() would truncate it to C2
    ({**_C2, "order": 2.7}, "'order'"),
    ({**_C2, "order": True}, "'order'"),
    ({**_C2, "labels": "ab"}, "'labels'"),  # a string is not a list of two labels
    ({**_C2, "name": ["q"]}, "'name'"),
    ({**_C2, "labels": 5}, "'labels'"),
    ([], "JSON object"),
    ({"order": 2}, "'table'"),
], ids=["table-float", "order-float", "order-bool", "labels-string", "name-list",
        "labels-number", "list", "no-table"])
def test_mif_group_file_error_names_the_field(doc, field, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    assert main(["mif", "--group", str(path), "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unreadable group file {path}: ") and err.count("\n") == 1
    assert field in err


def test_mif_group_file_without_labels_or_name(tmp_path, capsys):
    # the probes' base document is a group: labels and name may be left out
    path = tmp_path / "group.json"
    path.write_text(json.dumps(_C2))
    assert main(["mif", "--group", str(path), "--depth", "1"]) == 0
    capsys.readouterr()


def test_zassenhaus_custom_catalog_roundtrip(tmp_path, capsys):
    # the documented file format, written by hand: each generator a
    # row-major matrix of (re, im) pairs; diag(i, -i) has order 4 and the
    # swap [[0, 1], [1, 0]] order 2
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps({"entries": {
        "diag_i": {"generators": [[[[0, 1], [0, 0]], [[0, 0], [0, -1]]]]},
        "swap": {"generators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]},
    }}))
    out = tmp_path / "reports"
    assert main(["zassenhaus", "--catalog", str(cat), "--out", str(out)]) == 0
    orders = {p.stem: json.loads(p.read_text())["filter"]["group_order"] for p in out.iterdir()}
    assert orders == {"diag_i": 4, "swap": 2}


def test_mif_c2_square(capsys):
    code, doc = run_json(capsys, ["mif", "--group-name", "cyclic2", "--depth", "2"])
    assert code == 0
    assert doc["exponent_word"]["is_identity"] is True
    assert "e . t^2 . e" in doc["scan"]["identities"]


def test_mif_sym3_word_check(capsys, tmp_path):
    path = tmp_path / "sym3.json"
    symmetric_group(3).save(path)
    literal = "e . t^1 . (12) . t^1 . (12) . t^-1 . (12) . t^-1 . (12)"
    code, doc = run_json(
        capsys, ["mif", "--group", str(path), "--depth", "1", "--word", literal]
    )
    assert code == 0
    chk = doc["word_checks"][0]
    assert chk["is_identity"] is False
    assert chk["witness"] == "(13)"
    assert chk["value"] == "(123)"
    assert doc["scan"]["identities"] == []


def test_mif_huge_exponent_matches_its_residue(capsys):
    # t^(10^9) on Sym3 is t^4, since a^6 = 1: the same verdict and witness
    # at the cost of four products
    checks = []
    for e in (10**9, 10**9 % 6):
        code, doc = run_json(capsys, ["mif", "--group-name", "sym3", "--depth", "1",
                                      "--word", f"e . t^{e} . (12)"])
        assert code == 0
        checks.append(doc["word_checks"][0])
    assert checks[0].pop("word") == "e . t^1000000000 . (12)"
    assert checks[1].pop("word") == "e . t^4 . (12)"
    assert checks[0] == checks[1] and checks[0]["is_identity"] is False


def test_mif_second_call_forgets_the_first_calls_words(capsys):
    # main reuses one parser; an appended option must not carry over
    argv = ["mif", "--group-name", "sym3", "--depth", "1"]
    code, first = run_json(capsys, [*argv, "--word", "e . t^6 . e"])
    assert code == 0 and first["config"]["word"] == ["e . t^6 . e"]
    code, second = run_json(capsys, argv)
    assert code == 0 and second["config"]["word"] is None and second["word_checks"] == []


def test_usage_error_between_good_calls_changes_neither_report(capsys):
    good = ["mif", "--group-name", "klein4", "--depth", "2", "--word", "e|e . t^2 . e|e"]
    assert main(good) == 0
    before = capsys.readouterr().out
    # --word is parsed before --depth fails the parse
    bad = ["mif", "--group-name", "sym3", "--word", "e . t^1 . e", "--exp-bound", "3",
           "--depth", "0"]
    assert exit_code(bad) == 2
    assert "error:" in capsys.readouterr().err
    assert main(good) == 0
    assert capsys.readouterr().out == before


def test_mif_depth_validation(capsys):
    assert exit_code(["mif", "--group-name", "cyclic2", "--depth", "0"]) == 2


def test_mif_bad_group_name(capsys):
    assert main(["mif", "--group-name", "nope", "--depth", "1"]) == 2


def test_mif_bad_word_literal(capsys):
    assert main(["mif", "--group-name", "sym3", "--depth", "1", "--word", "bogus"]) == 2


def test_freeness_subcommand(capsys):
    code, doc = run_json(capsys, ["freeness", "--n", "64", "--trials", "2", "--seed", "2026"])
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["results"]) == 2


def test_freeness_failing_tolerance(capsys):
    code = main(["freeness", "--n", "8", "--trials", "1", "--seed", "0", "--tol", "1e-9"])
    assert code == 1  # an 8x8 pair is nowhere near free to 1e-9


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main([
            "dynamics", "--alpha", "0.9", "--model", "matrix", "--n", "64",
            "--seed", "5", "--n-max", "3", "--format", "json", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code_on_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["dynamics", "--nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["dynamics", "--alpha", "0.9", "--n-max", "0"], id="dynamics-n-max-0"),
    pytest.param(["dynamics", "--alpha", "0.9", "--model", "matrix", "--n", "1"],
                 id="dynamics-matrix-n-1"),
    pytest.param(["freeness", "--n", "0"], id="freeness-n-0"),
    pytest.param(["freeness", "--trials", "0"], id="freeness-trials-0"),
    pytest.param(["mif", "--group-name", "cyclic2", "--depth", "1", "--exp-bound", "0"],
                 id="mif-exp-bound-0"),
    pytest.param(["mif", "--group-name", "cyclic2", "--depth", "x"], id="mif-depth-x"),
    pytest.param(["zassenhaus", "--cap", "0"], id="zassenhaus-cap-0"),
    pytest.param(["zassenhaus", "--cap", "2"], id="zassenhaus-cap-below-generators"),
    pytest.param(["zassenhaus", "--t", "-1"], id="zassenhaus-t-negative"),
    pytest.param(["zassenhaus", "--t", "nan"], id="zassenhaus-t-nan"),
    pytest.param(["dynamics", "--alpha", "0.9", "--tol", "-1e-3"], id="dynamics-tol-negative"),
    pytest.param(["dynamics", "--alpha", "0.9", "--tol", "nan"], id="dynamics-tol-nan"),
    pytest.param(["freeness", "--n", "8", "--trials", "1", "--tol", "-0.5"],
                 id="freeness-tol-negative"),
    pytest.param(["freeness", "--n", "8", "--trials", "1", "--tol", "NaN"], id="freeness-tol-nan"),
    pytest.param(["freeness", "--n", "8", "--trials", "1", "--seed", "-1"],
                 id="freeness-seed-negative"),
    pytest.param(["dynamics", "--model", "matrix", "--alpha", "0.9", "--n", "8", "--seed", "-3",
                  "--n-max", "2"], id="dynamics-seed-negative"),
])
def test_bad_numeric_argument_is_usage_error(argv, capsys):
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


_CONFIG_ARGV = {
    "verify-identity": ["--alpha-grid", "0", "--beta-grid", "0"],
    "dynamics": ["--alpha", "0.9", "--n-max", "1"],
    "zassenhaus": [],
    "mif": ["--depth", "1"],
    "freeness": ["--n", "2", "--trials", "1"],
}


@pytest.mark.parametrize("command", sorted(_CONFIG_ARGV))
def test_config_embeds_every_option_but_out(command, tmp_path, capsys):
    # rerunning the embedded configuration reproduces the report only if
    # it holds every option the parser knows, --out aside
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions} - {"help", "out"}
    out = tmp_path / "out"
    main([command, *_CONFIG_ARGV[command], "--out", str(out)])
    report = next(out.iterdir()) if out.is_dir() else out
    config = (json.loads(report.read_text())["config"] if command != "dynamics" else
              ast.literal_eval(report.read_text().splitlines()[0].removeprefix("# config: ")))
    assert set(config) - {"subcommand", "version"} == dests
