import concurrent.futures
import json
import os
import re
import sys
import time

import pytest

from matroid_invariants import cli, invariants, poset
from matroid_invariants.cli import main, parse_matroid_spec
from matroid_invariants.matroid import Matroid, boolean, complete_graph, uniform, vamos
from matroid_invariants.poly import ONE, Poly, binomial_eulerian
from matroid_invariants.poset import GradedPoset

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
POSET_FILE = os.path.join(FIXTURES, "non_gamma_positive.poset.json")
# `certify vamos gamma real-rooted dominance interlace --json`, recorded
# when each certificate built its own lattice
CERTIFY_VAMOS_FILE = os.path.join(FIXTURES, "certify_vamos.json")
# stdout of further certify commands, recorded before the matroid and poset
# paths of `certify` became one; the poset spec is relative to FIXTURES
POSET_SPEC = "file:non_gamma_positive.poset.json"
RECORDED_CERTIFY = [
    (["uniform:3,5", "koszul-prefix:6", "unimodal", "--json"], "certify_uniform_3_5.json", 0, 1),
    (["uniform:3,5", "koszul-prefix:6", "unimodal"], "certify_uniform_3_5.txt", 0, 1),
    (["--poset", POSET_SPEC, "gamma", "real-rooted", "unimodal", "--json"], "certify_poset.json", 3, 0),
    (["--poset", POSET_SPEC, "gamma", "real-rooted", "unimodal"], "certify_poset.txt", 3, 0),
]
# `hrs --max-n 4 --json`, and `crosscheck uniform:3,5 chow --json` without its
# timing fields, recorded when the report classes were dataclasses
HRS_FILE = os.path.join(FIXTURES, "hrs_max_n_4.json")
CROSSCHECK_FILE = os.path.join(FIXTURES, "crosscheck_uniform_3_5_chow.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


# -- spec grammar ----------------------------------------------------------------


def test_parse_matroid_specs():
    m, braid = parse_matroid_spec("uniform:2,4")
    assert m == uniform(2, 4) and braid is None
    m, braid = parse_matroid_spec("braid:4")
    assert m == complete_graph(4) and braid == 4
    m, _ = parse_matroid_spec("uniform+coloop:2,3")
    assert m == uniform(2, 3).add_coloop()
    m, _ = parse_matroid_spec("boolean:3")
    assert m == boolean(3)
    m, _ = parse_matroid_spec("vamos")
    assert m == vamos()
    m, _ = parse_matroid_spec("dual(uniform:2,5)")
    assert m == uniform(3, 5)
    m, _ = parse_matroid_spec("relax(braid:4;0,1,3)")
    assert m.n == 6 and len(m.bases) == 17


def test_parse_matroid_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(uniform(2, 4).to_json()))
    m, _ = parse_matroid_spec("file:%s" % path)
    assert m == uniform(2, 4)


def test_parse_matroid_spec_rejects_bad_specs():
    bad = ("relax(uniform:2,4)", "foo:1", "uniform:a,b", "uniform:3", "uniform:3,,5", "uniform:3,5,")
    for spec in bad:
        with pytest.raises(cli.SpecError):
            parse_matroid_spec(spec)


def test_relax_names_an_element_outside_the_ground_set(capsys):
    for element in ("-1", "4"):
        assert main(["crosscheck", "relax(uniform:2,4;0,%s)" % element, "chow"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relax element %s is not in the ground set 0..3\n" % element


def test_empty_integer_fields_are_one_error_line(capsys):
    for spec in ("uniform:3,,5", "uniform:3,5,"):
        assert main(["crosscheck", spec, "chow"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected comma-separated integers in %r\n" % spec[8:]
    # a wholly empty list is still no integers
    code, data = run_json(capsys, "hz", "--s", "")
    assert code == 0 and data["input"] == "s=()"


@pytest.mark.parametrize(
    "blob, poset_flag",
    [
        ({"n": 3}, False),
        ({"n": 3, "bases": [["a"]]}, False),
        ({"rank": [0, 1]}, True),
        ([[0, 1]], True),
        ({"n": 2, "bases": [[0, 0], [1, 1]]}, False),
    ],
)
def test_malformed_json_files_print_one_error_line(tmp_path, capsys, blob, poset_flag):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    argv = ["certify", "file:%s" % path, "gamma"] + (["--poset"] if poset_flag else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_json_shapes_are_checked():
    for blob in (
        None, {"n": True, "bases": [[]]}, {"n": 25, "bases": [[]]}, {"n": -1, "bases": [[]]},
        {"n": 2, "bases": [[2]]}, {"n": 2, "bases": [[-1]]}, {"n": 2, "bases": [0]}, {"n": 2, "bases": "01"},
    ):
        with pytest.raises(ValueError):
            Matroid.from_json(blob)
    # a repeated element would be dropped by the bit mask, loading U(1,2)
    for bases, bad in (([[0, 0], [1, 1]], "[0, 0]"), ([[0, 1], [1, 2, 2]], "[1, 2, 2]")):
        with pytest.raises(ValueError, match=r"^basis %s repeats an element$" % re.escape(bad)):
            Matroid.from_json({"n": 3, "bases": bases})
    for blob in (
        {"covers": []}, {"rank": [0, 1.5], "covers": []}, {"rank": [0, 1], "covers": [[0, 1, 1]]},
        {"rank": [0, 1], "covers": [[0, "1"]]}, {"rank": "01", "covers": []}, {"rank": [0, 1], "covers": 1},
    ):
        with pytest.raises(ValueError):
            GradedPoset.from_json(blob)
    assert GradedPoset.from_json({"rank": [0, 1], "covers": [[0, 1]]}).size == 2


def test_matroid_json_round_trip_bytes():
    for m in (uniform(2, 4), vamos(), complete_graph(4)):
        blob = json.dumps(m.to_json(), sort_keys=True)
        reloaded = Matroid.from_json(json.loads(blob))
        assert json.dumps(reloaded.to_json(), sort_keys=True) == blob


# -- invariant / crosscheck --------------------------------------------------------


def test_invariant_command_agreement(capsys):
    code, data = run_json(capsys, "invariant", "vamos", "augchow", "all")
    assert code == 0
    assert data["schema"] == "1"
    assert data["agree"] is True
    coeff_sets = {tuple(m["coeffs"]) for m in data["methods"].values()}
    assert coeff_sets == {("1", "78", "234", "78", "1")}


def test_invariant_single_method(capsys):
    code, data = run_json(capsys, "invariant", "boolean:5", "z", "conv_def")
    assert code == 0
    assert data["methods"]["conv_def"]["coeffs"] == ["1", "5", "10", "10", "5", "1"]


def test_closed_form_answers_for_the_loopless_core(capsys):
    # U(1,4) plus a loop: uniform_closed reads the core U(1,4), as paving does
    for method in ("uniform_closed", "paving"):
        code, out = run(capsys, "invariant", "dual(uniform+coloop:3,4)", "augchow", method)
        assert code == 0, method
        assert re.search(r"^  %s +x \+ 1 " % method, out, re.M), out


def test_crosscheck_alias(capsys):
    code, data = run_json(capsys, "crosscheck", "uniform:3,5", "chow")
    assert code == 0 and data["agree"] is True


def test_invariant_parse_error_exit_code(capsys):
    code = main(["invariant", "nonsense:2", "chow", "all"])
    assert code == 1
    code = main(["invariant", "uniform:2,4", "chow", "bogus_method"])
    assert code == 1


def test_usage_error_exit_code():
    assert main(["not-a-command"]) == 1


# -- certify -----------------------------------------------------------------------


def test_certify_pass(capsys):
    code, data = run_json(
        capsys, "certify", "vamos", "gamma", "real-rooted", "dominance", "interlace"
    )
    assert code == 0 and data["ok"] is True


def test_certify_builds_one_lattice(capsys, monkeypatch):
    builds = []
    init = poset.FlatsLattice.__init__

    def counting_init(self, matroid):
        builds.append(matroid)
        init(self, matroid)

    monkeypatch.setattr(poset.FlatsLattice, "__init__", counting_init)
    code, data = run_json(
        capsys, "certify", "vamos", "gamma", "real-rooted", "dominance", "interlace"
    )
    assert code == 0 and builds == [vamos()]
    with open(CERTIFY_VAMOS_FILE, encoding="utf-8") as fh:
        assert data == json.load(fh)
    monkeypatch.chdir(FIXTURES)
    for argv, recorded, exit_code, lattices in RECORDED_CERTIFY:
        builds.clear()
        code, out = run(capsys, "certify", *argv)
        assert code == exit_code and len(builds) == lattices
        with open(recorded, encoding="utf-8") as fh:
            assert out == fh.read(), recorded


def test_certify_koszul_and_unimodal(capsys):
    code, data = run_json(capsys, "certify", "uniform:3,5", "koszul-prefix:6", "unimodal")
    assert code == 0 and data["ok"] is True


def test_certify_dominance_witness(capsys, monkeypatch):
    # a bound of 1 that uH of vamos exceeds in degrees 1 to 3; H keeps its bound
    monkeypatch.setattr(invariants, "chow_uniform", lambda k, n: ONE)
    code, data = run_json(capsys, "certify", "vamos", "dominance")
    assert code == 3 and data["ok"] is False
    block = data["checks"]["dominance"]
    assert block["ok"] is False
    assert [(w["kind"], w["degree"]) for w in block["witnesses"]] == [("chow", 1), ("chow", 2), ("chow", 3)]
    for w in block["witnesses"]:
        assert set(w) == {"kind", "degree", "value", "bound"} and w["bound"] == "0"
    code, out = run(capsys, "certify", "vamos", "dominance")
    assert code == 3
    assert "    witness: {'kind': 'chow', 'degree': 1, " in out
    assert out.splitlines()[-1] == "overall: FAIL"


def test_certify_poset_counterexample(capsys):
    code, data = run_json(capsys, "certify", "file:%s" % POSET_FILE, "gamma", "--poset")
    assert code == 3
    gammas = {e["name"]: e["gamma"] for e in data["checks"]["gamma"]["entries"]}
    assert gammas["chow"] == ["1", "3", "-1"]
    assert data["ok"] is False


def test_certify_rejects_a_poset_spec_without_file_and_loops(capsys):
    for argv in (["certify", "uniform:2,3", "gamma", "--poset"], ["certify", "uniform:0,2", "gamma"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_certify_unknown_check(capsys):
    assert main(["certify", "vamos", "deeply-magical"]) == 1


def test_certify_rejects_a_repeated_check(capsys):
    for checks in (["koszul-prefix:2", "koszul-prefix:5"], ["gamma", "unimodal", "gamma"]):
        assert main(["certify", "uniform:2,4", *checks, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: check %r is given more than once\n" % checks[-1].split(":")[0]


def test_certify_poset_rejects_matroid_checks(capsys):
    for check in ("dominance", "interlace", "koszul-prefix:3"):
        assert main(["certify", "--poset", "file:%s" % POSET_FILE, "gamma", check]) == 1
        assert capsys.readouterr().out == ""


def test_term_counts_below_one_rejected(capsys):
    for n in ("-2", "0"):
        assert main(["certify", "uniform:3,5", "koszul-prefix:" + n]) == 1
        assert main(["whitney-inverse", "uniform:3,5", "--terms", n]) == 1
    assert capsys.readouterr().out == ""
    code, data = run_json(capsys, "certify", "uniform:3,5", "koszul-prefix:1")
    assert code == 0 and data["checks"]["koszul-prefix"]["entries"][0]["prefix"] == ["1"]
    code, data = run_json(capsys, "whitney-inverse", "uniform:3,5", "--terms", "1")
    assert code == 0 and data["inverse_prefix"] == ["1"]
    code, data = run_json(capsys, "whitney-inverse", "uniform:3,5")
    assert code == 0 and len(data["inverse_prefix"]) == 6  # default 2 * rank


def test_whitney_inverse_default_of_rank_0_is_one_term(capsys):
    # 2 * rank would ask for 0 terms, which `--terms 0` rejects
    code, data = run_json(capsys, "whitney-inverse", "boolean:0")
    assert code == 0 and data["whitney"] == ["1"]
    assert data["inverse_prefix"] == ["1"] and data["nonnegative"] is True


def test_series_prefixes_stop_at_the_digit_limit(capsys):
    # a coefficient with more digits than the interpreter converts to a
    # string cannot be printed: the expansion stops at the first one, with
    # one error naming the request and the term
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit: the reference prefixes of uH and H
        code, data = run_json(capsys, "certify", "uniform:3,5", "koszul-prefix:1600")
        assert code == 0
        chow, aug = (next(i for i, c in enumerate(e["prefix"]) if len(c.lstrip("-")) > 640)
                     for e in data["checks"]["koszul-prefix"]["entries"])
        assert aug < chow
        sys.set_int_max_str_digits(640)
        assert main(["certify", "uniform:3,5", "koszul-prefix:8000"]) == 1
        assert main(["certify", "uniform:3,5", "koszul-prefix:%d" % (aug + 1)]) == 1
        assert main(["whitney-inverse", "uniform:3,5", "--terms", "10000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        reason = "has more than 640 digits, the interpreter's limit for integer string conversion"
        lines = err.splitlines()
        assert lines[:2] == [
            "error: koszul-prefix:8000 of chow: the coefficient of x^%d %s" % (chow, reason),
            "error: koszul-prefix:%d of augchow: the coefficient of x^%d %s" % (aug + 1, aug, reason),
        ]
        assert re.fullmatch(r"error: whitney-inverse --terms 10000: the coefficient of x\^\d+ " + reason, lines[2])
        assert len(lines) == 3
        code, data = run_json(capsys, "certify", "uniform:3,5", "koszul-prefix:%d" % aug)
        assert code == 0 and [len(e["prefix"]) for e in data["checks"]["koszul-prefix"]["entries"]] == [aug] * 2
    finally:
        sys.set_int_max_str_digits(old)


# -- other subcommands ----------------------------------------------------------------


def test_hz_command(capsys):
    code, data = run_json(capsys, "hz", "--uniform", "3,5")
    assert code == 0 and data["poly"] == ["1", "16", "16", "1"]
    code, data = run_json(capsys, "hz", "--s", "3,4,5")
    assert code == 0
    assert main(["hz"]) == 1
    assert main(["hz", "--s", "2", "--uniform", "2,2"]) == 1
    code, data = run_json(capsys, "hz", "--s", ",".join(str(v) for v in range(2, 13)))
    assert code == 0 and data["poly"] == [str(c) for c in binomial_eulerian(12).coeffs]


def test_flags_only_where_read(capsys):
    # --jobs is read by sweep alone, --timeout-secs by invariant/crosscheck and sweep
    assert main(["hz", "--s", "3,4", "--jobs", "2"]) == 1
    assert main(["certify", "vamos", "gamma", "--timeout-secs", "1"]) == 1
    assert main(["crosscheck", "uniform:2,3", "chow", "--jobs", "2"]) == 1
    assert main(["hrs", "--max-n", "2", "--timeout-secs", "1"]) == 1
    assert main(["hrs", "--max-n", "2", "--direct-max-n", "3"]) == 1
    capsys.readouterr()
    assert main(["crosscheck", "uniform:2,3", "chow", "--timeout-secs", "60"]) == 0
    assert main(["invariant", "uniform:2,3", "chow", "chains", "--timeout-secs", "60"]) == 0
    sweep = ["sweep", "sparse-paving", "--n", "6", "--k", "3", "--jobs", "1", "--timeout-secs", "60"]
    assert main(sweep) == 0


def test_timeout_secs_rejects_negative_and_nan(capsys):
    # a negative budget used to be spent before the first method, and NaN
    # silently disabled the budget; both are usage errors naming the flag
    sweep = ["sweep", "sparse-paving", "--n", "6", "--k", "3", "--jobs", "1"]
    for head in (
        ["invariant", "uniform:3,6", "chow", "chains"],
        ["crosscheck", "uniform:3,6", "chow"],
        sweep,
    ):
        # argparse reads a bare "-inf" as a flag, so that one goes after "="
        for value in (["--timeout-secs", "-1"], ["--timeout-secs", "-0.5"], ["--timeout-secs", "nan"],
                      ["--timeout-secs", "NaN"], ["--timeout-secs=-inf"]):
            assert main(head + value) == 1, (head, value)
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: --timeout-secs "), (head, value)
        for value in ("0", "60", "inf"):
            assert main(head + ["--timeout-secs", value]) == 0, (head, value)
            capsys.readouterr()


def test_malformed_command_line_names_the_argument(capsys):
    # the top-level parser reports a subcommand's unknown flag: its message,
    # not only the top-level usage line, must name the flag
    assert main(["crosscheck", "uniform:2,3", "chow", "--jobs", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --jobs 2" in captured.err
    assert main(["crosscheck", "uniform:2,3", "nokind"]) == 1
    assert "'nokind'" in capsys.readouterr().err


def test_equivariant_command(capsys):
    code, data = run_json(
        capsys, "equivariant", "--uniform", "2,2", "--kind", "z", "--gamma"
    )
    assert code == 0
    assert data["gamma_positive"] is False
    assert data["dims"] == ["1", "2", "1"]
    assert main(["equivariant", "--uniform", "2,4", "--kind", "kl", "--gamma"]) == 1


def test_usage_errors_print_one_line(capsys):
    for argv in (
        ["equivariant", "--uniform", "0,3", "--kind", "kl"],
        ["equivariant", "--uniform", "2,4", "--kind", "kl", "--restrict", "9"],
        ["invariant", "file:%s" % os.path.join(FIXTURES, "missing.json"), "chow", "all"],
        ["certify", "uniform:3,5", "koszul-prefix:x"],
        ["whitney-inverse", "dual(uniform:3,3)"],
        ["hrs", "--max-n", "0"],
        ["hrs", "--max-n", "-2"],
        ["sweep", "sparse-paving", "--n", "8", "--k", "4", "--jobs", "0"],
        ["sweep", "sparse-paving", "--n", "8", "--k", "4", "--jobs", "-3"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    # a bad term count names its check token
    main(["certify", "vamos", "koszul-prefix:x"])
    assert "'koszul-prefix:x'" in capsys.readouterr().err


def test_whitney_inverse_command(capsys):
    code, data = run_json(capsys, "whitney-inverse", "uniform:3,5", "--terms", "6")
    assert code == 0
    assert data["whitney"] == ["1", "5", "10", "1"]
    assert data["inverse_prefix"] == ["1", "5", "15", "26", "-15", "-320"]
    assert data["nonnegative"] is False


def test_hrs_command(capsys):
    code, data = run_json(capsys, "hrs", "--max-n", "6")
    assert code == 0 and data["ok"] is True
    assert len(data["cases"]) == 21


def test_report_json_matches_the_recordings(capsys):
    code, out = run(capsys, "hrs", "--max-n", "4", "--json")
    with open(HRS_FILE, encoding="utf-8") as fh:
        assert code == 0 and out == fh.read()
    code, data = run_json(capsys, "crosscheck", "uniform:3,5", "chow")
    for method in data["methods"].values():
        assert method.pop("seconds") >= 0
    with open(CROSSCHECK_FILE, encoding="utf-8") as fh:
        assert code == 0 and data == json.load(fh)


def test_hrs_command_reports_a_failure(capsys, monkeypatch):
    def fail(k, n):
        raise RuntimeError("identity fails at (%d, %d)" % (k, n))

    monkeypatch.setattr(cli, "hrs_identity", fail)
    code, data = run_json(capsys, "hrs", "--max-n", "2")
    assert code == 3 and data["ok"] is False
    assert [c["ok"] for c in data["cases"]] == [False] * 3
    assert data["cases"][0]["error"] == "identity fails at (1, 1)"


# -- sweep ------------------------------------------------------------------------------


def test_sweep_small(capsys):
    code, data = run_json(
        capsys, "sweep", "sparse-paving", "--n", "8", "--k", "4", "--lambda-max", "10"
    )
    assert code == 0
    assert data["count"] == 11 and data["failures"] == 0


def test_sweep_lambda_max_is_at_most_the_circuit_hyperplane_bound(capsys):
    # C(8, 4) // (8 - 4 + 1) = 14: the default and the largest --lambda-max
    base = ["sweep", "sparse-paving", "--n", "8", "--k", "4"]
    code, data = run_json(capsys, *base, "--lambda-max", "14")
    assert code == 0 and data["count"] == 15 and data["failures"] == 0
    assert data["lambda_range"] == [0, 14]
    for extra in (["--lambda-min", "15", "--lambda-max", "40"], ["--lambda-max", "15"]):
        assert main(base + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --lambda-max %s is above 14, the most circuit-hyperplanes of a "
            "sparse paving matroid with n=8, k=4\n" % extra[-1]
        )


def test_sweep_determinism_across_jobs(capsys):
    base = ["sweep", "sparse-paving", "--n", "10", "--k", "5", "--lambda-max", "20"]
    _, first = run_json(capsys, *base, "--jobs", "1")
    _, second = run_json(capsys, *base, "--jobs", "2")
    assert first == second


def test_sweep_vamos_parameters_reproduce_vamos(capsys):
    code, data = run_json(
        capsys,
        "sweep",
        "sparse-paving",
        "--n",
        "8",
        "--k",
        "4",
        "--lambda-min",
        "5",
        "--lambda-max",
        "5",
    )
    assert code == 0 and data["count"] == 1 and data["failures"] == 0
    from matroid_invariants.invariants import chow_paving

    assert chow_paving(4, 8, {4: 5}).coeffs == (1, 70, 70, 1)


def test_sweep_reports_failures(capsys, monkeypatch):
    # each check made to fail in turn, with the keys of its failure detail
    for check, name, failing, keys in (
        ("real-rooted", "real_rooted", lambda q: False, {"check", "poly", "coeffs"}),
        ("gamma", "gamma_vector", lambda q, center: Poly([1, -1]), {"check", "poly", "gamma"}),
        ("unimodal", "is_unimodal", lambda q: False, {"check", "poly"}),
    ):
        argv = ["sweep", "sparse-paving", "--n", "8", "--k", "4", "--lambda-max", "3",
                "--jobs", "1", "--certify", check]
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, failing)
            code, data = run_json(capsys, *argv)
            assert code == 3
            assert data["count"] == 4 and data["failures"] == 4
            assert data["first_failure"]["lambda"] == 0
            details = data["first_failure"]["details"]
            assert [d["poly"] for d in details] == ["chow", "augchow"]
            for d in details:
                assert d["check"] == check and set(d) == keys and all(d.values()), d
            code, out = run(capsys, *argv)
            assert code == 3
            assert "4 cases, 4 failures" in out
            assert "first failure at lambda=0: " in out
        assert main(argv) == 0
        capsys.readouterr()


def test_sweep_invalid_range(capsys):
    assert main(["sweep", "sparse-paving", "--n", "8", "--k", "4", "--lambda-min", "5", "--lambda-max", "2"]) == 1
    assert main(["sweep", "unknown-family", "--n", "8", "--k", "4"]) == 1


def test_sweep_rejects_k_above_n(capsys):
    assert main(["sweep", "sparse-paving", "--n", "3", "--k", "5"]) == 1
    assert capsys.readouterr().err == "error: need 1 <= k <= n\n"


def test_sweep_rejects_unknown_checks(capsys):
    base = ["sweep", "sparse-paving", "--n", "8", "--k", "4", "--certify"]
    assert main([*base, "gama,realrooted"]) == 1
    assert "'gama'" in capsys.readouterr().err
    for check in ("dominance", "interlace", "koszul-prefix:3"):
        assert main([*base, "gamma," + check]) == 1
        assert "'%s'" % check.split(":")[0] in capsys.readouterr().err
    code, data = run_json(capsys, *base, "gamma,real-rooted,unimodal")
    assert code == 0 and data["checks"] == ["gamma", "real-rooted", "unimodal"]


def test_sweep_rejects_a_repeated_check(capsys):
    assert main(["sweep", "sparse-paving", "--n", "8", "--k", "4", "--certify", "gamma,gamma"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: check 'gamma' is given more than once\n"


def test_sweep_rejects_empty_check_list(capsys):
    for certify in (",", ""):
        assert main(["sweep", "sparse-paving", "--n", "8", "--k", "4", "--certify", certify]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --certify needs at least one check\n"


def test_sweep_rejects_an_empty_check_field(capsys):
    for certify in ("gamma,,unimodal", ",gamma", "gamma,"):
        assert main(["sweep", "sparse-paving", "--n", "8", "--k", "4", "--certify", certify]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --certify has an empty check name in %r\n" % certify


def test_sweep_counts_the_zero_chow_polynomial_as_real_rooted(capsys):
    # at k = 1, lambda = 1 the member is U(1, n-1) plus a loop, so uH = 0
    base = ["sweep", "sparse-paving", "--n", "4", "--k", "1"]
    for certify in ([], ["--certify", "real-rooted"], ["--certify", "gamma,real-rooted,unimodal"]):
        code, data = run_json(capsys, *base, *certify)
        assert code == 0 and data["count"] == 2 and data["failures"] == 0, certify


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_sweep_starts_no_more_workers_than_chunks(capsys, monkeypatch):
    started = []
    # cmd_sweep imports the pool class when it starts one, so patch it at its source
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(started, max_workers)
    )
    base = ["sweep", "sparse-paving", "--n", "10", "--k", "5"]
    # (extra arguments, cases, workers started); chunks hold 16 lambdas,
    # and one chunk runs in-process without a pool
    for extra, count, workers in (
        (["--lambda-max", "5", "--jobs", "64"], 6, []),
        (["--lambda-max", "16", "--jobs", "64"], 17, [2]),
        (["--jobs", "64"], 43, [3]),
        (["--jobs", "2"], 43, [2]),
        (["--jobs", "1"], 43, []),
    ):
        started.clear()
        code, data = run_json(capsys, *base, *extra)
        assert code == 0 and data["count"] == count and data["failures"] == 0
        assert started == workers, extra


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_timeout(capsys, jobs):
    # 43 cases, three chunks: --jobs 2 runs on a two-worker pool
    argv = ["sweep", "sparse-paving", "--n", "10", "--k", "5", "--jobs", jobs, "--timeout-secs", "0.000001"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: timeout exceeded\n"


def test_sweep_timeout_stops_the_workers(capsys):
    # the 58787 cases take about 12 s on one core; a spent 0.5 s budget must not wait for them
    argv = ["sweep", "sparse-paving", "--n", "22", "--k", "11", "--jobs", "2", "--timeout-secs", "0.5"]
    t0 = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: timeout exceeded\n"


def test_sweep_peels_each_gamma_once(capsys, monkeypatch):
    # with both checks, real-rootedness is decided on the gamma vector the
    # gamma check already has: one peel per polynomial, two per lambda
    from matroid_invariants import realroots

    calls = []
    for module in (cli, realroots):
        real = module.gamma_vector

        def counted(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "gamma_vector", counted)
    argv = ["sweep", "sparse-paving", "--n", "8", "--k", "4", "--jobs", "1"]
    code, data = run_json(capsys, *argv, "--certify", "gamma,real-rooted")
    assert code == 0 and data["count"] == 15 and data["failures"] == 0
    assert len(calls) == 2 * data["count"]
    # real-rooted alone still peels inside real_rooted, once per polynomial
    calls.clear()
    code, data = run_json(capsys, *argv, "--certify", "real-rooted")
    assert code == 0 and len(calls) == 2 * data["count"]
