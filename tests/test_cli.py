import json

import pytest

from metabox.cli import cli_main
from metabox.problem_file import bundled_problem_path

MLP = str(bundled_problem_path("mlp"))
TOY = str(bundled_problem_path("toy"))


def test_validate_ok(capsys):
    assert cli_main(["validate", MLP]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_rejects_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    assert cli_main(["validate", str(path)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_enumerate_reports_dimensions(capsys):
    assert cli_main(["enumerate", MLP]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "meta components: 4"
    rows = {line.split(":")[0]: line for line in out[1:]}
    assert rows["l=2;o=Adam"].endswith("n^q=1 n^z=2 n^c=4 |C^m|=1")
    assert rows["l=3;o=ASGD"].endswith("n^q=1 n^z=3 n^c=4 |C^m|=2")


def test_usage_errors_exit_one(capsys):
    assert cli_main([]) == 1
    assert cli_main(["solve", TOY, "--solver", "annealing",
                     "--out", "x.csv"]) == 1
    assert cli_main(["frobnicate"]) == 1


def test_solve_direct_writes_history(tmp_path, capsys):
    out = tmp_path / "history.csv"
    code = cli_main(["solve", TOY, "--solver", "direct", "--budget", "60",
                     "--seed", "0", "--out", str(out), "--quiet"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("eval_index,cached,feasible,objective,m,pA,pB,s,k")
    assert len(lines) > 1
    assert "best objective" in capsys.readouterr().out


def test_solve_reruns_byte_identical(tmp_path):
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert cli_main(["solve", TOY, "--solver", "direct", "--budget", "60",
                         "--seed", "3", "--out", str(out), "--quiet"]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_solve_direct_on_mlp_leaves_nonacting_cells_empty(tmp_path):
    out = tmp_path / "mlp.csv"
    assert cli_main(["solve", MLP, "--solver", "direct", "--budget", "30",
                     "--seed", "0", "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    u3, l = header.index("u3"), header.index("l")
    lam = header.index("lam")
    o = header.index("o")
    saw_l2 = False
    for line in lines[1:]:
        cells = line.split(",")
        if cells[l] == "2":
            saw_l2 = True
            assert cells[u3] == ""
        if cells[o] == "Adam":
            assert cells[lam] == ""
    assert saw_l2


def test_solve_bo_with_aux_log(tmp_path):
    out = tmp_path / "history.csv"
    aux = tmp_path / "aux.csv"
    code = cli_main(["solve", TOY, "--solver", "bo", "--budget", "15",
                     "--seed", "0", "--out", str(out), "--aux-log", str(aux),
                     "--quiet"])
    assert code == 0
    assert aux.read_text().splitlines()[0] == "iteration,meta,acquisition,surrogate_feasible"


def test_solver_config_file_overrides(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"direct": {"subproblem_budget": 5,
                                             "global_search": "none"}}))
    out = tmp_path / "history.csv"
    assert cli_main(["solve", TOY, "--solver", "direct", "--budget", "40",
                     "--seed", "0", "--out", str(out), "--config", str(config),
                     "--quiet"]) == 0


def test_unknown_config_key_is_a_validation_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"direct": {"warp_factor": 9}}))
    out = tmp_path / "history.csv"
    assert cli_main(["solve", TOY, "--solver", "direct", "--budget", "10",
                     "--seed", "0", "--out", str(out), "--config", str(config),
                     "--quiet"]) == 2


def test_missing_problem_file_exits_validation(tmp_path):
    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2


def test_unwritable_history_is_a_runtime_error(tmp_path):
    assert cli_main(["solve", TOY, "--solver", "direct", "--budget", "5",
                     "--seed", "0", "--out", str(tmp_path / "nodir" / "x.csv"),
                     "--quiet"]) == 3


def test_invalid_file_timeout_is_a_validation_error(tmp_path, capsys):
    document = json.loads(bundled_problem_path("toy").read_text())
    document["blackbox"]["timeout"] = "abc"
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(document))
    assert cli_main(["validate", str(path)]) == 2
    assert "blackbox.timeout" in capsys.readouterr().err


def test_invalid_timeout_env_var_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("METABOX_BLACKBOX_TIMEOUT", "abc")
    assert cli_main(["solve", TOY, "--solver", "bo", "--budget", "5", "--seed", "0",
                     "--out", str(tmp_path / "x.csv"), "--quiet"]) == 3
    assert "METABOX_BLACKBOX_TIMEOUT" in capsys.readouterr().err


def family_first(document):
    document["variables"][3]["first"] = "a"


def rule_without_id(document):
    del document["neighborhoods"]["meta"][0]["id"]


@pytest.mark.parametrize("edit, where", [
    (lambda d: d["variables"][0]["scope"].update(lo="x"), "variables[0].scope.lo"),
    (family_first, "variables[3].first"),
    (rule_without_id, "neighborhoods.meta[0]"),
    (lambda d: d.update(neighborhoods=[]), "neighborhoods"),
    (lambda d: d.update(metadata=3), "metadata"),
    (lambda d: d["variables"][0]["scope"].update(lo_open="false"), "variables[0].scope.lo_open"),
    (lambda d: d["variables"][3].update(first=1.7), "variables[3].first"),
    (lambda d: d.update(blackbox={"command": [3]}), "blackbox.command[0]"),
    # Solver options, given as the contents of a --config file.
    ({"bo": {"acq_starts": 2.5}}, "bo"),
    ({"bo": {"fit_sweeps": 2.5}}, "bo"),
    ({"bo": {"categorical_cap": 1.5}}, "bo"),
    ({"bo": {"max_iterations": True}}, "bo"),
    ({"direct": {"opportunistic": "no"}}, "direct"),
    ({"bo": 3}, "bo"),
    ([1], "bo"),
    ({"bo": {"kernel": 3}}, "bo"),
    ({"bo": {"kernel": {"meta_correlations": 0.3}}}, "bo"),
    ({"bo": {"kernel": {"meta_correlations": {"o": "x"}}}}, "bo"),
    ({"bo": {"kernel": {"signal_variance": "x"}}}, "bo"),
    ({"bo": {"kernel": {"meta_correlations": {"oo": 0.2}}}}, "bo"),
    ({"bo": {"kernel": {"meta_correlation": {"o": 0.2}}}}, "bo"),
    ({"bo": {"encoder_kind": "nope"}}, "bo"),
], ids=["scope-bound", "family-index", "rule-id", "neighborhoods", "metadata", "open-flag",
        "fractional-index", "command-entry", "fractional-acq-starts", "fractional-fit-sweeps",
        "fractional-categorical-cap", "bool-max-iterations", "string-opportunistic",
        "section-not-object", "file-not-object", "kernel-not-object",
        "kernel-table-not-object", "kernel-string-value", "kernel-string-variance",
        "kernel-unknown-id", "kernel-unknown-table", "unknown-encoder-kind"])
def test_malformed_values_are_validation_errors(tmp_path, capsys, edit, where):
    # Each of these once escaped validation as a raw Python exception, was
    # coerced (an open flag read as true, an index truncated, a bool option
    # read as a count or a string as true), was ignored (a kernel override of
    # an unknown id or table), or passed validation only to fail in solve (a
    # command entry that is not a string).
    document = json.loads(bundled_problem_path("mlp").read_text())
    path = tmp_path / "mlp.json"
    if callable(edit):
        edit(document)
        argv = ["validate", str(path)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(edit))
        argv = ["solve", str(path), "--solver", "direct" if "direct" in edit else "bo",
                "--budget", "40", "--seed", "0", "--out", str(tmp_path / "history.csv"),
                "--config", str(config), "--quiet"]
    path.write_text(json.dumps(document))
    assert cli_main(argv) == 2
    assert f"at {where}:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, where", [
    (lambda d: d["variables"][3].update(decree=[3]), "variables[3].decree[0]"),
    (lambda d: d.update(constraints=3), "constraints"),
    (lambda d: d["variables"][1]["scope"].update(categories=3), "variables[1].scope.categories"),
    (lambda d: d["variables"][5].update(decree=3), "variables[5].decree"),
    (lambda d: d["constraints"][0]["analytic"].update(terms=3), "constraints[0].analytic.terms"),
    (lambda d: d["constants"].update(u_hat=[1]), "constants.u_hat"),
], ids=["family-decree-atom", "constraints", "categories", "variable-decree", "terms",
        "constant"])
def test_wrongly_typed_containers_are_validation_errors(tmp_path, capsys, edit, where):
    # Each of these once escaped as a TypeError or AttributeError (exit 1).
    document = json.loads(bundled_problem_path("mlp").read_text())
    edit(document)
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps(document))
    assert cli_main(["validate", str(path)]) == 2
    assert f"at {where}:" in capsys.readouterr().err


def test_enumerate_renders_meta_like_the_history(tmp_path, capsys):
    document = {
        "variables": [
            {"id": "lr", "type": "meta-categorical", "role": "meta",
             "scope": {"categories": [0.1, 0.25]}},
            {"id": "warm", "type": "meta-categorical", "role": "meta",
             "scope": {"categories": [True, False]}},
            {"id": "x", "type": "integer", "role": "global", "scope": {"lo": 0, "hi": 3}},
        ],
        "blackbox": {"command": ["true"]},
    }
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(document))
    assert cli_main(["enumerate", str(path)]) == 0
    labels = {line.split(":")[0] for line in capsys.readouterr().out.splitlines()[1:]}
    assert labels == {f"lr={lr};warm={warm}" for lr in ("0.10000000000000001", "0.25")
                      for warm in ("true", "false")}
