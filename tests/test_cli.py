import json
from pathlib import Path

import pytest

from normda.bench import config_from_dict, config_to_dict
from normda.cli import _read_config, main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

SYNTH_CFG = {
    "n_subjects": 3,
    "n_sessions": 1,
    "n_classes": 2,
    "samples_per_class_per_domain": 10,
    "dim": 3,
    "class_separation": 4.0,
    "domain_shift_scale": 5.0,
    "noise_std": 1.0,
    "seed": 2,
}

RUN_CFG = {
    "dataset": {"synthetic": SYNTH_CFG},
    "protocol": "loso",
    "strategies": ["noNorm", "Z2"],
    "methods": [{"kind": "noDA-SVM"}],
    "seed": 4,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_synth_writes_dataset(tmp_path, capsys):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    out = tmp_path / "data.csv"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 2 * 10
    assert "n=60 m=3 domains=3" in capsys.readouterr().out


def test_synth_bad_config_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "synth.json", dict(SYNTH_CFG, noise_std=-1.0))
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 2
    assert "noise_std" in capsys.readouterr().err


def test_synth_unwritable_path_exits_3(tmp_path):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "no" / "dir" / "d.csv")]) == 3


def test_run_minimal_experiment(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", dict(RUN_CFG, output_dir=str(tmp_path / "report")))
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "| strategy | noDA-SVM |" in out
    report_md = (tmp_path / "report" / "report.md").read_text()
    assert "noNorm" in report_md and "Z2" in report_md


def test_run_is_deterministic_across_invocations(tmp_path):
    cfg_a = write_json(tmp_path / "a.json", dict(RUN_CFG, output_dir=str(tmp_path / "ra")))
    cfg_b = write_json(tmp_path / "b.json", dict(RUN_CFG, output_dir=str(tmp_path / "rb")))
    assert main(["run", "--config", cfg_a, "--jobs", "1"]) == 0
    assert main(["run", "--config", cfg_b, "--jobs", "1"]) == 0
    assert (tmp_path / "ra" / "report.csv").read_bytes() == (tmp_path / "rb" / "report.csv").read_bytes()


def test_run_hlso_on_single_session_data_exits_2(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "exp.json",
        dict(RUN_CFG, protocol="hlso", output_dir=str(tmp_path / "r")),
    )
    assert main(["run", "--config", cfg]) == 2
    assert "session" in capsys.readouterr().err


def test_run_seed_override_changes_report(tmp_path):
    cfg = write_json(tmp_path / "exp.json", dict(RUN_CFG, output_dir=str(tmp_path / "r")))
    assert main(["run", "--config", cfg, "--jobs", "1", "--seed", "99"]) == 0
    echoed = json.loads((tmp_path / "r" / "config.json").read_text())
    assert echoed["seed"] == 99


def test_validate_well_formed(tmp_path, capsys):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    data = tmp_path / "d.csv"
    main(["synth", "--config", cfg, "--out", str(data)])
    capsys.readouterr()
    assert main(["validate", "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "rows=60" in out and "domain subject=0" in out


def test_validate_missing_column_exits_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("subject,label,f1\n0,0,1.0\n")
    assert main(["validate", "--data", str(data)]) == 2
    assert "session" in capsys.readouterr().err


def test_validate_single_row_domain_warns_but_passes(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text(
        "subject,session,label,f1\n"
        "0,0,0,1.0\n0,0,1,2.0\n1,0,0,3.0\n"
    )
    assert main(["validate", "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "Z2/Z3" in out


def test_validate_missing_file_exits_3(tmp_path):
    assert main(["validate", "--data", str(tmp_path / "nope.csv")]) == 3


def test_project_emits_csv(tmp_path, capsys):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    data = tmp_path / "d.csv"
    main(["synth", "--config", cfg, "--out", str(data)])
    capsys.readouterr()
    out = tmp_path / "proj.csv"
    code = main([
        "project", "--data", str(data), "--protocol", "loso",
        "--fold-index", "0", "--strategy", "Z2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,subject,session,split,label"
    assert len(lines) == 61


def test_project_bad_fold_index_exits_2(tmp_path):
    cfg = write_json(tmp_path / "synth.json", SYNTH_CFG)
    data = tmp_path / "d.csv"
    main(["synth", "--config", cfg, "--out", str(data)])
    assert main(["project", "--data", str(data), "--fold-index", "9"]) == 2


def test_table_rerenders_report(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", dict(RUN_CFG, output_dir=str(tmp_path / "r")))
    main(["run", "--config", cfg, "--jobs", "1"])
    first = capsys.readouterr().out.strip().splitlines()
    assert main(["table", "--report", str(tmp_path / "r")]) == 0
    rendered = capsys.readouterr().out.strip().splitlines()
    assert rendered[0] == "| strategy | noDA-SVM |"
    assert rendered == first[: len(rendered)]


def test_run_missing_csv_exits_3_and_names_path(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    cfg = write_json(
        tmp_path / "exp.json",
        dict(RUN_CFG, dataset={"csv": str(missing)}, output_dir=str(tmp_path / "r")),
    )
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 3
    assert str(missing) in capsys.readouterr().err


def test_run_loads_csv_once(tmp_path, monkeypatch, capsys):
    import normda.bench as bench

    synth = write_json(tmp_path / "synth.json", dict(SYNTH_CFG, n_sessions=2))
    data = tmp_path / "d.csv"
    assert main(["synth", "--config", synth, "--out", str(data)]) == 0
    calls = []
    real_load_csv = bench.load_csv

    def counting_load_csv(*args, **kwargs):
        calls.append(args)
        return real_load_csv(*args, **kwargs)

    monkeypatch.setattr(bench, "load_csv", counting_load_csv)
    cfg = write_json(
        tmp_path / "exp.json",
        dict(
            RUN_CFG, dataset={"csv": str(data)}, protocol="hlso", emit_projections=True,
            output_dir=str(tmp_path / "r"),
        ),
    )
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
    assert len(calls) == 1
    assert len(list((tmp_path / "r").glob("projection_*.csv"))) == 2 * 3  # strategies x folds


def test_run_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "exp.json",
        dict(RUN_CFG, emit_projection=True, output_dir=str(tmp_path / "r")),
    )
    assert main(["run", "--config", cfg]) == 2
    assert "emit_projection" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_run_unknown_strategy_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "exp.json", dict(RUN_CFG, strategies=["noNorm", "Z9"]))
    assert main(["run", "--config", cfg]) == 2
    assert "Z9" in capsys.readouterr().err


def one_row_subject_csv(tmp_path):
    """A synthetic CSV plus subject 9 with a single row: a one-row domain
    cannot be standardized per domain on the test side (Z2/Z3). Its LOSO
    fold is the last one, index 3."""
    synth = write_json(tmp_path / "synth.json", SYNTH_CFG)
    data = tmp_path / "d.csv"
    main(["synth", "--config", synth, "--out", str(data)])
    header = data.read_text().splitlines()[0].split(",")
    row = {"subject": "9", "session": "0", "label": "0"}
    with data.open("a") as fh:
        fh.write(",".join(row.get(col, "0.0") for col in header) + "\n")
    return data


def test_table_rerenders_failed_cells(tmp_path, capsys):
    # A one-row subject cannot be standardized per domain on the test side,
    # so its Z2 fold fails and the Z2 cell renders as FAIL.
    data = one_row_subject_csv(tmp_path)
    cfg = write_json(
        tmp_path / "exp.json",
        dict(RUN_CFG, dataset={"csv": str(data)}, output_dir=str(tmp_path / "r")),
    )
    capsys.readouterr()
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 0
    first = capsys.readouterr().out.strip().splitlines()
    assert main(["table", "--report", str(tmp_path / "r")]) == 0
    rendered = capsys.readouterr().out.strip().splitlines()
    assert any("FAIL" in line for line in rendered)
    assert rendered == first[: len(rendered)]


@pytest.mark.parametrize(
    "grid, named",
    [
        ({"Cc": [1.0]}, "Cc"),
        ({"C": []}, "no values"),
        ({"C": "10"}, "no values for ['C']; need a non-empty list, got '10'"),
        ({"C": 1.0}, "need a non-empty list, got 1.0"),
        ({"C": ["x"]}, "C must be a number, got 'x'"),
        ({"batch_size": [2.5]}, "batch_size must be an integer"),
        ({"kernel": [{"kind": "poly"}]}, "poly"),
        ({"kernel": [{"kind": "rbf", "bogus": 1}]}, "bogus"),
        ({"activation": ["bogus"]}, "unknown activation 'bogus'"),
    ],
)
def test_run_bad_grid_exits_2(tmp_path, capsys, grid, named):
    cfg = write_json(
        tmp_path / "exp.json",
        dict(RUN_CFG, grids={"noDA-SVM": grid}, output_dir=str(tmp_path / "r")),
    )
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_non_utf8_csv_exits_2_and_names_byte(tmp_path, capsys, command):
    data = tmp_path / "latin1.csv"
    data.write_bytes("subject,session,label,fé\n0,0,0,1.0\n1,0,1,2.0\n".encode("latin-1"))
    if command == "run":
        cfg = write_json(
            tmp_path / "exp.json",
            dict(RUN_CFG, dataset={"csv": str(data)}, output_dir=str(tmp_path / "r")),
        )
        argv = ["run", "--config", cfg, "--jobs", "1"]
    else:
        argv = ["validate", "--data", str(data)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(data) in err and "byte 23 is not valid UTF-8" in err


@pytest.mark.parametrize(
    "method, named",
    [
        ({"kind": "noDA-SVM", "C": "x"}, "C must be a number, got 'x'"),
        ({"kind": "noDA-SVM", "train": {"batch_size": 2.5}}, "batch_size must be an integer, got 2.5"),
        ({"kind": "noDA-ANN", "activation": "bogus"}, "unknown activation 'bogus'"),
        ({"kind": "noDA-ANN", "hidden": [2.5]}, "hidden must be a list of integers, got [2.5]"),
        ({"kind": "noDA-ANN", "hidden": 16}, "hidden must be a list of integers, got 16"),
        ({"kind": "noDA-ANN", "hidden": ["x"]}, "hidden must be a list of integers, got ['x']"),
        ({"kind": "noDA-ANN", "hidden": [0]}, "all >= 1; got (1, 0, 8)"),
        ({"kind": "noDA-ANN", "hidden": [2, 2, 2, 2]}, "at most 3 hidden layers are supported; got 4"),
        ({"kind": "noDA-ANN", "feature_dim": 0}, "all >= 1; got (1, 16, 0)"),
        ({"kind": "noDA-ANN", "train": {"seed": 99}}, "unknown train fields: ['seed']"),
    ],
)
def test_run_wrong_typed_method_field_exits_2(tmp_path, capsys, method, named):
    cfg = write_json(
        tmp_path / "exp.json", dict(RUN_CFG, methods=[method], output_dir=str(tmp_path / "r"))
    )
    assert main(["run", "--config", cfg, "--jobs", "1"]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_non_finite_csv_exits_2_and_names_row_and_column(tmp_path, capsys, command, cell):
    data = tmp_path / "d.csv"
    data.write_text(f"subject,session,label,f1,f2\n0,0,0,1.0,2.0\n1,0,1,{cell},2.0\n")
    if command == "run":
        cfg = write_json(
            tmp_path / "exp.json",
            dict(RUN_CFG, dataset={"csv": str(data)}, output_dir=str(tmp_path / "r")),
        )
        argv = ["run", "--config", cfg, "--jobs", "1"]
    else:
        argv = ["validate", "--data", str(data)]
    assert main(argv) == 2
    assert f"row 2, column f1: {cell!r} is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "project"])
def test_directory_as_data_exits_3(tmp_path, capsys, command):
    assert main([command, "--data", str(tmp_path)]) == 3
    assert str(tmp_path) in capsys.readouterr().err


def test_project_rejected_fold_exits_2(tmp_path, capsys):
    data = one_row_subject_csv(tmp_path)
    argv = ["project", "--data", str(data), "--fold-index", "3", "--strategy", "Z2"]
    assert main(argv) == 2
    assert "subject=9" in capsys.readouterr().err


def test_run_strict_exits_4_only_for_failed_cells(tmp_path, capsys):
    data = one_row_subject_csv(tmp_path)
    cfg = write_json(
        tmp_path / "exp.json",
        dict(RUN_CFG, dataset={"csv": str(data)}, output_dir=str(tmp_path / "r")),
    )
    assert main(["run", "--config", cfg, "--jobs", "1", "--strict"]) == 4
    assert "FAILED Z2/noDA-SVM" in capsys.readouterr().err
    ok = write_json(tmp_path / "ok.json", dict(RUN_CFG, output_dir=str(tmp_path / "ok")))
    assert main(["run", "--config", ok, "--jobs", "1", "--strict"]) == 0


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("run", b"{", "Expecting property name"),
        ("synth", b"{", "Expecting property name"),
        ("run", b"[1]", "config keys: expected an object, got [1]"),
        ("synth", b"[1]", "must be a mapping, not list"),
        ("run", b'{"seed": "\xe9"}', "can't decode byte 0xe9"),
        ("synth", b'{"seed": "\xe9"}', "can't decode byte 0xe9"),
        ("run", b'{"dataset": {"csv": "d.csv"}, "emit_projections": "false"}', "emit_projections must be a boolean"),
        ("run", b'{"dataset": {"csv": "d.csv"}, "seed": 2.7}', "seed must be an integer, got 2.7"),
        ("run", b'{"dataset": {"csv": "d.csv"}, "seed": true}', "seed must be an integer, got True"),
        ("run", b'{"dataset": {"synthetic": {"seed": -1}}}', "seed must be >= 0"),
        ("synth", b'{"seed": -1}', "seed must be >= 0"),
    ],
)
def test_malformed_json_config_exits_2(tmp_path, capsys, command, content, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    argv = [command, "--config", str(cfg), *(["--out", str(tmp_path / "d.csv")] if command == "synth" else [])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and named in err


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_config_files_load_and_round_trip(path):
    cfg = _read_config(path)
    assert config_from_dict(config_to_dict(cfg)) == cfg
