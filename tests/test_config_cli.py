import json
import shutil
import warnings
from dataclasses import fields

import numpy as np
import pytest

from kinverify import cli
from kinverify.cli import _run_config, build_parser, main
from kinverify.comparator import ComparatorConfig
from kinverify.config import _SECTIONS, ConfigError, RunConfig, parse_config
from kinverify.synth import SPLITS, SynthConfig
from kinverify.training import (
    L2_LAMBDA,
    LR_INITIAL,
    LR_LATE,
    LR_SWITCH_AFTER_EPOCH,
    AblationCell,
    TrainConfig,
    default_ablation_grid,
)


def test_defaults_match_published_training_recipe():
    config = RunConfig()
    assert config.model.hidden == 192
    assert config.model.dropout == 0.2
    assert config.model.activation == "lrelu"
    assert config.train.batch_size == 200
    assert config.train.epochs == 4
    # the rest of the recipe is fixed, not configured
    assert (LR_INITIAL, LR_LATE, LR_SWITCH_AFTER_EPOCH, L2_LAMBDA) == (0.001, 0.0005, 2, 2e-4)


def test_parse_config_empty_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert parse_config(path) == RunConfig()


def test_parse_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"hidden": 192}, "seed": 9}))
    config = parse_config(path, {"model.hidden": 512})
    assert config.model.hidden == 512
    assert config.seed == 9


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"hiden": 512}}))
    with pytest.raises(ConfigError, match="hiden"):
        parse_config(path)
    path.write_text(json.dumps({"modle": {}}))
    with pytest.raises(ConfigError, match="modle"):
        parse_config(path)


def test_parse_config_type_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"hidden": "big"}}))
    with pytest.raises(ConfigError, match="model.hidden"):
        parse_config(path)


# the manifest "config" block of a run with every default
DEFAULT_CONFIG_DICT = {
    "eval": {"bins": 50, "objective": "macro"},
    "model": {"activation": "lrelu", "dropout": 0.2, "hidden": 192, "sharing": "per-expert"},
    "seed": 4,
    "synth": {
        "children_choices": [3, 4],
        "dim": 64,
        "expression_flip_fraction": 0.55,
        "founder_scale": 3.0,
        "gender_weight": 0.45,
        "heritability": 1.414,
        "identity_dims": 32,
        "n_test_families": 90,
        "n_train_families": 900,
        "n_val_families": 90,
        "noise_weight": 0.33,
    },
    "train": {"batch_size": 200, "epochs": 4},
}


def test_config_surface_is_pinned():
    assert RunConfig().to_dict() == DEFAULT_CONFIG_DICT
    # the fixed recipe and the one heredity rule are not keys; an old file naming one fails
    for key in ("train.adam_beta1", "train.seed", "synth.seed", "train.lr_initial",
                "train.lr_late", "train.lr_switch_after_epoch", "train.l2_lambda",
                "train.l2_includes_biases", "synth.parent_blend"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(overrides={key: 1})


def test_section_defaults_are_the_library_defaults():
    config = RunConfig()
    assert config.seed == SynthConfig().seed
    assert config.synth_config() == SynthConfig()
    assert config.train_config() == TrainConfig(seed=config.seed)
    assert config.comparator_config(input_dim=128) == ComparatorConfig(input_dim=128)
    # the synth and train sections take every library field but the seed
    for section, library in (("synth", SynthConfig), ("train", TrainConfig)):
        names = [f.name for f in fields(library) if f.name != "seed"]
        assert [f.name for f in fields(_SECTIONS[section])] == names
    # the ablation grid's default cell is the comparator default
    default = ComparatorConfig(128)
    assert default_ablation_grid()[-1] == AblationCell(
        default.activation.value, default.dropout_p, default.hidden
    )


SYNTH_ARGS = [
    "--dim",
    "8",
    "--train-families",
    "8",
    "--val-families",
    "3",
    "--test-families",
    "3",
]


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    config = tmp_path_factory.mktemp("cfg") / "cfg.json"
    config.write_text(json.dumps({"synth": {"identity_dims": 4}}))
    code = main(["synth", "--config", str(config), "--out", str(out), "--seed", "4"] + SYNTH_ARGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, world_dir):
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train",
            "--data",
            str(world_dir),
            "--out",
            str(out),
            "--epochs",
            "1",
            "--batch-size",
            "64",
            "--hidden",
            "4",
            "--seed",
            "4",
            "--attention",
        ]
    )
    assert code == 0
    return out


def _assert_outputs(out_dir, manifest_name, files, elsewhere=()):
    """``out_dir`` holds exactly ``files`` and the manifest, no temp file; the
    manifest lists ``files`` plus the ``elsewhere`` artifacts. Returns the manifest."""
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*files, manifest_name])
    manifest = json.loads((out_dir / manifest_name).read_text())
    assert sorted(manifest["artifacts"]) == sorted([*files, *elsewhere])
    return manifest


def test_synth_outputs(world_dir):
    files = ["embeddings.csv", "pedigree.csv"]
    files += [f"{kind}_{split}.csv" for kind in ("pairs", "tri") for split in SPLITS]
    manifest = _assert_outputs(world_dir, "manifest.json", files)
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 4


def test_synth_deterministic(world_dir, tmp_path):
    out = tmp_path / "again"
    code = main(["synth", "--out", str(out), "--seed", "4"] + SYNTH_ARGS + [
        "--config", str(_write_cfg(tmp_path)),
    ])
    assert code == 0
    for name in ("embeddings.csv", "pairs_val.csv", "pedigree.csv"):
        assert (out / name).read_bytes() == (world_dir / name).read_bytes()


def _write_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"synth": {"identity_dims": 4}}))
    return path


def test_train_outputs(model_dir):
    manifest = _assert_outputs(model_dir, "manifest.json", ["model.kinc", "history.csv"])
    assert manifest["command"] == "train"
    history = (model_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,lr,train_loss,val_macro_acc"
    assert len(history) == 2


def test_eval_calibrate_stores_threshold(model_dir, world_dir, tmp_path):
    out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--model",
            str(model_dir / "model.kinc"),
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--pairs",
            str(world_dir / "pairs_val.csv"),
            "--out",
            str(out),
            "--calibrate",
        ]
    )
    assert code == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "relation,accuracy,count"
    assert report[-1].startswith("macro,")

    from kinverify.config import sha256_file
    from kinverify.model_io import load_model

    params = load_model(model_dir / "model.kinc")
    assert params.threshold is not None
    # the rewritten model lies outside the output directory, but the manifest records it
    manifest = _assert_outputs(out, "manifest.json", ["report.csv"], elsewhere=["model.kinc"])
    assert manifest["artifacts"]["model.kinc"] == sha256_file(model_dir / "model.kinc")


def test_eval_calibrate_refuses_a_threshold_the_model_file_cannot_hold(
    model_dir, world_dir, tmp_path, capsys
):
    # the lowest-scoring kin pair below the highest-scoring nonkin pair: the best
    # cut is the sentinel below every score, which lies outside [0, 1]
    from kinverify.data import PairLabel, PairSet, load_embeddings, load_pairs, save_pairs
    from kinverify.evaluation import score_pairs
    from kinverify.model_io import load_model

    model = tmp_path / "model.kinc"
    model.write_bytes((model_dir / "model.kinc").read_bytes())
    store = load_embeddings(world_dir / "embeddings.csv")
    scored = score_pairs(load_model(model), store, load_pairs(world_dir / "pairs_val.csv", store))
    kin = min((s for s in scored if s.pair.label is PairLabel.KIN), key=lambda s: s.score)
    nonkin = max((s for s in scored if s.pair.label is PairLabel.NONKIN), key=lambda s: s.score)
    assert kin.score < nonkin.score
    save_pairs(PairSet((kin.pair, nonkin.pair)), tmp_path / "pairs.csv")
    before = model.read_bytes()
    out = tmp_path / "eval"
    code = main(
        ["eval", "--model", str(model), "--embeddings", str(world_dir / "embeddings.csv"),
         "--pairs", str(tmp_path / "pairs.csv"), "--out", str(out), "--calibrate"]
    )
    assert code == 1
    _one_error_line(capsys, f"threshold {kin.score - 1.0} is not in [0, 1]")
    assert model.read_bytes() == before
    assert not out.exists()


def test_failed_eval_calibrate_leaves_the_model_as_it_was(model_dir, world_dir, tmp_path, capsys):
    model = tmp_path / "model.kinc"
    model.write_bytes((model_dir / "model.kinc").read_bytes())
    before = model.read_bytes()
    out = tmp_path / "taken"
    out.write_text("a file where the output directory should go\n")
    code = main(
        ["eval", "--model", str(model), "--embeddings", str(world_dir / "embeddings.csv"),
         "--pairs", str(world_dir / "pairs_val.csv"), "--out", str(out), "--calibrate"]
    )
    assert code == 1
    _one_error_line(capsys, "File exists")
    assert model.read_bytes() == before


def test_eval_calibrate_with_a_directory_manifest_writes_nothing(
    model_dir, world_dir, tmp_path, capsys
):
    model = tmp_path / "model.kinc"
    model.write_bytes((model_dir / "model.kinc").read_bytes())
    before = model.read_bytes()
    out = tmp_path / "eval"
    (out / "manifest.json").mkdir(parents=True)
    # the test pairs calibrate to another threshold than any the model may hold
    args = ["eval", "--model", str(model), "--embeddings", str(world_dir / "embeddings.csv"),
            "--pairs", str(world_dir / "pairs_test.csv"), "--out", str(out), "--calibrate"]
    assert main(args) == 1
    _one_error_line(capsys, f"Is a directory: '{out / 'manifest.json'}'")
    assert model.read_bytes() == before
    assert not (out / "report.csv").exists()
    # the same run with the manifest path free rewrites the model
    (out / "manifest.json").rmdir()
    assert main(args) == 0
    assert model.read_bytes() != before


@pytest.mark.parametrize("model_at", ["eval/manifest.json", "elsewhere/report.csv"])
def test_eval_calibrate_refuses_a_model_named_like_another_output(
    model_at, model_dir, world_dir, tmp_path, capsys
):
    # the manifest keys checksums by file name, so two outputs of one name would share one
    out, model = tmp_path / "eval", tmp_path / model_at
    model.parent.mkdir()
    model.write_bytes((model_dir / "model.kinc").read_bytes())
    before = model.read_bytes()
    code = main(["eval", "--model", str(model), "--embeddings", str(world_dir / "embeddings.csv"),
                 "--pairs", str(world_dir / "pairs_test.csv"), "--out", str(out), "--calibrate"])
    assert code == 1
    twin = out / model.name  # report.csv, or the manifest itself
    _one_error_line(capsys, f"outputs {twin} and {model} share a file name")
    assert model.read_bytes() == before
    assert [p.name for p in out.glob("*")] == ([model.name] if twin == model else [])


def test_train_with_a_directory_history_writes_no_model(world_dir, tmp_path, capsys):
    out = tmp_path / "run"
    (out / "history.csv").mkdir(parents=True)
    code = main(["train", "--data", str(world_dir), "--out", str(out), "--epochs", "1",
                 "--batch-size", "64", "--hidden", "4", "--seed", "4"])
    assert code == 1
    _one_error_line(capsys, f"Is a directory: '{out / 'history.csv'}'")
    assert not (out / "model.kinc").exists()
    assert [p.name for p in out.iterdir()] == ["history.csv"]


@pytest.mark.parametrize(
    "foreign", [None, b"[]\n", b'{"seed": 4}\n', b"\xff not json\n"],
    ids=["synth", "list", "no-command", "not-utf8"],
)
def test_outputs_never_replace_another_commands_manifest(foreign, world_dir, tmp_path, capsys):
    # the world's manifest holds synth's checksums; train into the world must keep it
    out = tmp_path / "world"
    shutil.copytree(world_dir, out)
    if foreign is not None:
        (out / "manifest.json").write_bytes(foreign)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    args = ["train", "--data", str(out), "--epochs", "0", "--hidden", "4", "--seed", "4"]
    assert main([*args, "--out", str(out)]) == 1
    _one_error_line(capsys, f"{out / 'manifest.json'} is not a train manifest")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # each command still rewrites its own manifest
    assert main([*args, "--out", str(tmp_path / "run")]) == 0
    assert main([*args, "--out", str(tmp_path / "run")]) == 0
    if foreign is None:
        cfg = str(_write_cfg(tmp_path))
        assert main(["synth", "--out", str(out), "--config", cfg, *SYNTH_ARGS]) == 0


def _run_args(command, out, world_dir, model_dir):
    """argv of ``command`` writing to ``out``; its manifest path; its first artifact path."""
    emb, pairs = str(world_dir / "embeddings.csv"), str(world_dir / "pairs_val.csv")
    argv = {
        "synth": ["synth", *SYNTH_ARGS, "--identity-dims", "4"],
        "train": ["train", "--data", str(world_dir), "--epochs", "1", "--hidden", "4"],
        "eval": ["eval", "--model", str(model_dir / "model.kinc"), "--embeddings", emb,
                 "--pairs", pairs],
        "histogram": ["histogram", "--embeddings", emb, "--pairs", pairs, "--scorer", "cosine"],
        "ablate": ["ablate", "--data", str(world_dir), "--epochs", "1"],
    }[command]
    if command in ("histogram", "ablate"):
        manifest, artifact = out.with_name(f"{out.name}.manifest.json"), out
    else:
        first = {"synth": "embeddings.csv", "train": "model.kinc", "eval": "report.csv"}[command]
        manifest, artifact = out / "manifest.json", out / first
    return [*argv, "--out", str(out)], manifest, artifact


def _refuse_work(*_args, **_kwargs):
    raise AssertionError("the run started its work before refusing its outputs")


@pytest.mark.parametrize("fault", ["foreign-manifest", "directory", "artifact-over-manifest",
                                   "file-as-directory", "out-is-a-world-manifest"])
@pytest.mark.parametrize("command", ["synth", "train", "eval", "histogram", "ablate"])
def test_refused_outputs_fail_before_the_work(
    command, fault, world_dir, model_dir, tmp_path, capsys, monkeypatch
):
    for name in ("generate_world", "train", "score_pairs", "ablation_run"):
        monkeypatch.setattr(cli, name, _refuse_work)
    out = tmp_path / ("taken" if fault == "file-as-directory" else "run") / "out"
    if fault == "out-is-a-world-manifest":  # the manifest of a synth run
        shutil.copytree(world_dir, tmp_path / "world")
        out = tmp_path / "world" / "manifest.json"
    argv, manifest, artifact = _run_args(command, out, world_dir, model_dir)
    # leading JSON whitespace, which the check skips before it looks for "{"
    foreign = " \r\n\t" + json.dumps({"command": "other", "artifacts": {}})
    if fault == "file-as-directory":  # --out, or the directory it is in, is a file
        (tmp_path / "taken").write_text("a file where a directory goes\n")
        message = f"File exists: '{tmp_path / 'taken'}'"
    elif fault == "out-is-a-world-manifest":
        if command in ("histogram", "ablate"):  # --out names the file they write
            message = f"{out} is a 'synth' manifest; refusing to replace it"
        else:
            message = f"File exists: '{out}'"
    else:
        manifest.parent.mkdir(parents=True)
    if fault == "foreign-manifest":
        manifest.write_text(foreign)
        message = f"{manifest} is not a {command} manifest; refusing to replace it"
    elif fault == "directory":
        artifact.mkdir()
        message = f"Is a directory: '{artifact}'"
    elif fault == "artifact-over-manifest":
        artifact.write_text(foreign)
        message = f"{artifact} is a 'other' manifest; refusing to replace it"
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv) == 1
    _one_error_line(capsys, message)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("fault", ["foreign-manifest", "directory"])
def test_outputs_are_checked_again_after_the_work(fault, world_dir, tmp_path, capsys, monkeypatch):
    # a target that changes while the run trains is refused before the first write
    out = tmp_path / "run"
    taken = out / ("manifest.json" if fault == "foreign-manifest" else "history.csv")
    train = cli.train

    def train_then_take(*args, **kwargs):
        result = train(*args, **kwargs)
        out.mkdir()
        if fault == "foreign-manifest":
            taken.write_text(json.dumps({"command": "other", "artifacts": {}}))
        else:
            taken.mkdir()
        return result

    monkeypatch.setattr(cli, "train", train_then_take)
    argv, _, _ = _run_args("train", out, world_dir, tmp_path)
    assert main(argv) == 1
    if fault == "foreign-manifest":
        _one_error_line(capsys, f"{out / 'manifest.json'} is not a train manifest")
        assert json.loads(taken.read_text())["command"] == "other"
    else:
        _one_error_line(capsys, f"Is a directory: '{taken}'")
    assert [p.name for p in out.iterdir()] == [taken.name]


def test_eval_per_relation_extension(model_dir, world_dir, tmp_path, capsys):
    out = tmp_path / "eval_pr"
    code = main(
        [
            "eval",
            "--model",
            str(model_dir / "model.kinc"),
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--pairs",
            str(world_dir / "pairs_val.csv"),
            "--out",
            str(out),
            "--per-relation",
        ]
    )
    assert code == 0
    assert "per-relation thresholds" in capsys.readouterr().out
    # the model file is left as it was, so the manifest lists only the report
    _assert_outputs(out, "manifest.json", ["report.csv"])


def test_verify_uses_stored_threshold(model_dir, world_dir, capsys):
    from kinverify.data import load_embeddings, load_pairs

    store = load_embeddings(world_dir / "embeddings.csv")
    pairs = load_pairs(world_dir / "pairs_val.csv", store)
    pair = pairs.pairs[0]
    code = main(
        [
            "verify",
            "--model",
            str(model_dir / "model.kinc"),
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--id1",
            pair.id1,
            "--id2",
            pair.id2,
            "--relation",
            pair.relation.value,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "score=" in out and "decision=" in out


def test_tri_verify(model_dir, world_dir, capsys):
    from kinverify.data import load_embeddings, load_tri

    store = load_embeddings(world_dir / "embeddings.csv")
    tris = load_tri(world_dir / "tri_val.csv", store)
    sample = tris.samples[0]
    code = main(
        [
            "tri-verify",
            "--model",
            str(model_dir / "model.kinc"),
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--father",
            sample.father_id,
            "--mother",
            sample.mother_id,
            "--child",
            sample.child_id,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fused=" in out


def test_histogram_command(model_dir, world_dir, tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code = main(
        [
            "histogram",
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--pairs",
            str(world_dir / "pairs_val.csv"),
            "--scorer",
            "cosine",
            "--relations",
            "FD,MS,SIBS",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _assert_outputs(tmp_path, "hist.csv.manifest.json", ["hist.csv"])
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,kin,nonkin"
    assert len(lines) == 51
    pair_lines = (world_dir / "pairs_val.csv").read_text().splitlines()[1:]
    kept = sum(line.split(",")[2] in ("FD", "MS", "SIBS") for line in pair_lines)
    assert sum(int(n) for line in lines[1:] for n in line.split(",")[2:]) == kept
    # an empty relation list is one unknown code, not every relation
    code = main(["histogram", "--embeddings", str(world_dir / "embeddings.csv"), "--pairs",
                 str(world_dir / "pairs_val.csv"), "--scorer", "cosine", "--relations", "",
                 "--out", str(tmp_path / "none.csv")])
    assert code == 1
    _one_error_line(capsys, "unknown relation code ''")
    assert not (tmp_path / "none.csv").exists()


def test_histogram_of_one_class_writes_nothing(world_dir, tmp_path, capsys):
    # the training pairs are all kin, so the two classes' overlap is undefined
    code = main(["histogram", "--embeddings", str(world_dir / "embeddings.csv"), "--pairs",
                 str(world_dir / "pairs_train.csv"), "--scorer", "cosine",
                 "--out", str(tmp_path / "h.csv")])
    assert code == 1
    _one_error_line(capsys, "overlap needs both classes")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1", "a,b"])
def test_histogram_range_errors_name_the_flag(value, world_dir, tmp_path, capsys):
    args = ["histogram", "--embeddings", str(world_dir / "embeddings.csv"), "--pairs",
            str(world_dir / "pairs_val.csv"), "--scorer", "cosine", "--out", str(tmp_path / "h.csv")]
    assert main(args + ["--range", "0,2"]) == 0
    assert (tmp_path / "h.csv").read_text().splitlines()[1].startswith("0.0,0.04,")
    with pytest.raises(SystemExit) as exc:
        main(args + ["--range", value])
    assert exc.value.code == 2
    assert f"argument --range: expected two numbers lo,hi, got '{value}'" in capsys.readouterr().err


def test_predict_relation(model_dir, world_dir, capsys):
    from kinverify.data import load_embeddings, load_pairs

    store = load_embeddings(world_dir / "embeddings.csv")
    pairs = load_pairs(world_dir / "pairs_val.csv", store)
    pair = pairs.pairs[0]
    code = main(
        [
            "predict-relation",
            "--model",
            str(model_dir / "model.kinc"),
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--id1",
            pair.id1,
            "--id2",
            pair.id2,
            "--pooling",
            "soft",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted relation:" in out and "kin score" in out


def test_queries_reject_embeddings_of_another_width(model_dir, tmp_path, capsys):
    # the model reads two 8-dim embeddings; this world's embeddings have 6 dims
    world = tmp_path / "world6"
    synth = ["synth", "--out", str(world), *SYNTH_ARGS, "--dim", "6", "--identity-dims", "4"]
    assert main(synth) == 0
    id1, id2, *_ = (world / "pairs_val.csv").read_text().splitlines()[1].split(",")
    model = ["--model", str(model_dir / "model.kinc"), "--embeddings", str(world / "embeddings.csv")]
    capsys.readouterr()
    pairs = ["--pairs", str(world / "pairs_val.csv")]
    assert main(["eval", *model, *pairs, "--out", str(tmp_path / "e")]) == 1
    _one_error_line(capsys, "feature dim 12 does not match model input 16")
    for pooling in ([], ["--pooling", "mean"]):
        assert main(["predict-relation", *model, "--id1", id1, "--id2", id2, *pooling]) == 1
        _one_error_line(capsys, "feature dim 12 does not match model input 16")


def test_ablate_command(world_dir, tmp_path):
    out = tmp_path / "ablation.csv"
    code = main(["ablate", "--data", str(world_dir), "--out", str(out), "--epochs", "1", "--seed", "4"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "activation,dropout,hidden,accuracy"
    assert len(lines) == 14  # header + 13 grid rows
    _assert_outputs(tmp_path, "ablation.csv.manifest.json", ["ablation.csv"])


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert "max relative gradient error" in capsys.readouterr().out


def test_error_exit_codes(tmp_path, capsys):
    # missing file: validation failure, exit 1
    assert main(["eval", "--model", str(tmp_path / "nope.kinc"), "--embeddings",
                 str(tmp_path / "nope.csv"), "--pairs", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 1
    # usage error: argparse exits with 2
    with pytest.raises(SystemExit) as exc:
        main(["train"])
    assert exc.value.code == 2


def test_verify_without_threshold_fails(world_dir, tmp_path, capsys):
    from kinverify.comparator import ComparatorConfig, init_params
    from kinverify.model_io import save_model

    params = init_params(ComparatorConfig(input_dim=16, hidden=3), seed=0)
    path = tmp_path / "raw.kinc"
    save_model(params, path)
    from kinverify.data import load_embeddings, load_pairs

    store = load_embeddings(world_dir / "embeddings.csv")
    pairs = load_pairs(world_dir / "pairs_val.csv", store)
    pair = pairs.pairs[0]
    code = main(
        [
            "verify",
            "--model",
            str(path),
            "--embeddings",
            str(world_dir / "embeddings.csv"),
            "--id1",
            pair.id1,
            "--id2",
            pair.id2,
            "--relation",
            pair.relation.value,
        ]
    )
    assert code == 1
    assert "threshold" in capsys.readouterr().err


def test_verify_rejects_relation_genders(model_dir, world_dir, capsys):
    from kinverify.data import load_embeddings
    from kinverify.relations import Gender

    store = load_embeddings(world_dir / "embeddings.csv")
    female = next(p for p in store.person_ids if store.person(p).gender is Gender.FEMALE)
    male = next(p for p in store.person_ids if store.person(p).gender is Gender.MALE)
    common = ["verify", "--model", str(model_dir / "model.kinc"),
              "--embeddings", str(world_dir / "embeddings.csv"), "--threshold", "0.5"]
    code = main(common + ["--id1", female, "--id2", male, "--relation", "BB"])
    assert code == 1
    assert "do not fit relation BB" in capsys.readouterr().err
    # the same two people under a relation that fits their genders
    assert main(common + ["--id1", female, "--id2", male, "--relation", "MS"]) == 0


def test_tri_verify_validates_roles(model_dir, world_dir, capsys):
    from kinverify.data import PairLabel, load_embeddings, load_tri

    store = load_embeddings(world_dir / "embeddings.csv")
    samples = load_tri(world_dir / "tri_val.csv", store).samples
    common = ["tri-verify", "--model", str(model_dir / "model.kinc"),
              "--embeddings", str(world_dir / "embeddings.csv"), "--threshold", "0.5"]
    t = samples[0]
    swapped = ["--father", t.mother_id, "--mother", t.father_id, "--child", t.child_id]
    assert main(common + swapped) == 1
    assert "is not male" in capsys.readouterr().err
    # the label of a queried triple is unknown: a nonkin triple still scores
    nonkin = next(s for s in samples if s.label is PairLabel.NONKIN)
    argv = ["--father", nonkin.father_id, "--mother", nonkin.mother_id, "--child", nonkin.child_id]
    assert main(common + argv) == 0
    assert "fused=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, value",
    [("tri-verify", "1.5"), ("tri-verify", "nan"), ("tri-verify", "-3"), ("eval", "nan")],
)
def test_threshold_flag_outside_unit_interval_fails(
    model_dir, world_dir, tmp_path, capsys, command, value
):
    from kinverify.data import load_embeddings, load_tri

    embeddings = world_dir / "embeddings.csv"
    common = [command, "--model", str(model_dir / "model.kinc"), "--embeddings", str(embeddings)]
    if command == "tri-verify":
        t = load_tri(world_dir / "tri_val.csv", load_embeddings(embeddings)).samples[0]
        argv = common + ["--father", t.father_id, "--mother", t.mother_id, "--child", t.child_id]
    else:
        argv = common + ["--pairs", str(world_dir / "pairs_val.csv"), "--out", str(tmp_path)]
    assert main(argv + ["--threshold", value]) == 1
    captured = capsys.readouterr()
    assert "threshold must lie in [0, 1]" in captured.err
    assert "decision=" not in captured.out and "macro accuracy" not in captured.out
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("command", ["verify", "tri-verify", "predict-relation"])
def test_queries_reject_a_person_paired_with_themselves(model_dir, world_dir, capsys, command):
    from kinverify.data import load_embeddings, load_tri

    embeddings = world_dir / "embeddings.csv"
    t = load_tri(world_dir / "tri_val.csv", load_embeddings(embeddings)).samples[0]
    father = t.father_id
    argv = {
        "verify": ["--id1", father, "--id2", father, "--relation", "FS", "--threshold", "0.5"],
        "tri-verify": ["--father", father, "--mother", t.mother_id, "--child", father,
                       "--threshold", "0.5"],
        "predict-relation": ["--id1", father, "--id2", father, "--pooling", "soft"],
    }[command]
    common = [command, "--model", str(model_dir / "model.kinc"), "--embeddings", str(embeddings)]
    assert main(common + argv) == 1
    captured = capsys.readouterr()
    assert f"references the same person twice: {father!r}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [["--calibrate", "--per-relation"], ["--calibrate", "--threshold", "0.5"],
     ["--per-relation", "--threshold", "0.5"]],
)
def test_eval_rejects_conflicting_threshold_flags(model_dir, world_dir, tmp_path, capsys, flags):
    model = model_dir / "model.kinc"
    before = model.read_bytes()
    out = tmp_path / "eval"
    argv = ["eval", "--model", str(model), "--embeddings", str(world_dir / "embeddings.csv"),
            "--pairs", str(world_dir / "pairs_val.csv"), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert model.read_bytes() == before
    assert not out.exists()


def _one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert text in err


def test_train_refuses_a_diverging_run(tmp_path, capsys):
    from kinverify.data import EmbeddingStore, load_embeddings, save_embeddings

    world, run = tmp_path / "world", tmp_path / "run"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"synth": {"identity_dims": 4}}))
    assert main(["synth", "--config", str(config), "--out", str(world), "--seed", "1"] + SYNTH_ARGS) == 0
    store = load_embeddings(world / "embeddings.csv")
    refs = [store.person(pid) for pid in store.person_ids]
    save_embeddings(EmbeddingStore(refs, store.matrix * 1e300), world / "embeddings.csv")
    capsys.readouterr()
    argv = ["train", "--data", str(world), "--out", str(run), "--hidden", "4", "--epochs", "2"]
    assert main(argv) == 1
    _one_error_line(capsys, "error: training diverged in epoch 1: expert0.W1 is not finite")
    assert not run.exists()


@pytest.mark.parametrize(
    "document,key",
    [
        ('{"model": {"dropout": NaN}}', "model.dropout"),
        ('{"synth": {"noise_weight": Infinity}}', "synth.noise_weight"),
        ('{"synth": {"heritability": -Infinity}}', "synth.heritability"),
        ('{"model": {"dropout": 1e400}}', "model.dropout"),
        ('{"synth": {"gender_weight": 1%s}}' % ("0" * 400), "synth.gender_weight"),
    ],
    ids=["nan", "infinity", "minus-infinity", "1e400", "long-integer"],
)
def test_config_rejects_non_finite_numbers(document, key, world_dir, tmp_path, capsys):
    # json reads NaN, Infinity and 1e400 as floats; they stop at the config, not in training
    path = tmp_path / "cfg.json"
    path.write_text(document)
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--data", str(world_dir), "--out", str(out)]) == 1
    _one_error_line(capsys, f"config key '{key}' must be a finite number")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0,inf", "nan,1", "-inf,0"])
def test_histogram_range_must_be_finite(value, world_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["histogram", "--embeddings", str(world_dir / "embeddings.csv"), "--pairs",
              str(world_dir / "pairs_val.csv"), "--scorer", "cosine", f"--range={value}",
              "--out", str(tmp_path / "h.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --range: lo and hi must be finite, got '{value}'" in err
    assert "Traceback" not in err


def test_file_and_numeric_failures_end_in_one_error_line(model_dir, world_dir, tmp_path, capsys):
    from kinverify.data import EmbeddingStore, load_embeddings, save_embeddings

    small = ["--data", str(world_dir), "--epochs", "1", "--batch-size", "64", "--hidden", "4"]
    # a directory given as the model file: IsADirectoryError
    code = main(["verify", "--model", str(tmp_path), "--embeddings",
                 str(world_dir / "embeddings.csv"), "--id1", "a", "--id2", "b", "--relation", "BB"])
    assert code == 1
    _one_error_line(capsys, "Is a directory")
    # an existing file given as the output directory: FileExistsError
    taken = tmp_path / "taken"
    taken.write_text("x")
    assert main(["train", *small, "--out", str(taken)]) == 1
    _one_error_line(capsys, "File exists")
    assert taken.read_text() == "x"
    # embeddings of magnitude 1.5e308, which overflow when dropout scales them by 1/(1-p):
    # training fails with FloatingPointError, and no numpy warnings
    huge = tmp_path / "huge"
    shutil.copytree(world_dir, huge)
    store = load_embeddings(huge / "embeddings.csv")
    refs = [store.person(pid) for pid in store.person_ids]
    matrix = np.copysign(1.5e308, store.matrix)
    save_embeddings(EmbeddingStore(refs, matrix), huge / "embeddings.csv")
    small[1] = str(huge)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", *small, "--out", str(tmp_path / "run")])
    assert code == 1
    _one_error_line(capsys, "non-finite")


# every config-backed flag of each command, with a valid non-default value
FLAG_KEYS = {
    "synth": [("--dim", "synth.dim", 9), ("--identity-dims", "synth.identity_dims", 3),
              ("--train-families", "synth.n_train_families", 5),
              ("--val-families", "synth.n_val_families", 6),
              ("--test-families", "synth.n_test_families", 7)],
    "train": [("--hidden", "model.hidden", 5), ("--activation", "model.activation", "prelu"),
              ("--dropout", "model.dropout", 0.3), ("--sharing", "model.sharing", "shared-trunk"),
              ("--epochs", "train.epochs", 3), ("--batch-size", "train.batch_size", 17)],
    "eval": [("--objective", "eval.objective", "micro")],
    "histogram": [("--bins", "eval.bins", 7)],
    "ablate": [("--epochs", "train.epochs", 2)],
}
REQUIRED = {
    "synth": ["--out", "o"],
    "train": ["--data", "d", "--out", "o"],
    "eval": ["--model", "m", "--embeddings", "e", "--pairs", "p", "--out", "o"],
    "histogram": ["--embeddings", "e", "--pairs", "p", "--out", "o"],
    "ablate": ["--data", "d", "--out", "o"],
}


@pytest.mark.parametrize("command", sorted(FLAG_KEYS))
def test_config_flags_set_their_config_keys(command):
    flags = FLAG_KEYS[command] + [("--seed", "seed", 11)]
    argv = [command, *REQUIRED[command]]
    for flag, _, value in flags:
        argv += [flag, str(value)]
    args = build_parser().parse_args(argv)
    # the table names every flag whose dest is a config key
    assert {k for k in vars(args) if "." in k} == {key for _, key, _ in FLAG_KEYS[command]}
    config = _run_config(args)
    for _, key, value in flags:
        node = config
        for part in key.split("."):
            node = getattr(node, part)
        assert node == value, key


# non-default config flags of each command whose run the replay check repeats
REPLAY_FLAGS = {
    "synth": ["--seed", "5", "--dim", "9", "--identity-dims", "3", "--train-families", "5",
              "--val-families", "3", "--test-families", "3"],
    "train": ["--seed", "6", "--hidden", "5", "--activation", "prelu", "--dropout", "0.3",
              "--sharing", "shared-trunk", "--epochs", "1", "--batch-size", "17"],
    "eval": ["--seed", "7", "--objective", "micro", "--threshold", "0.5"],
}


@pytest.mark.parametrize("command", sorted(REPLAY_FLAGS))
def test_manifest_config_replays_the_run_config(command, model_dir, world_dir, tmp_path):
    # a manifest's config block, passed back as --config, parses to the config the run used
    inputs = {
        "synth": [],
        "train": ["--data", str(world_dir)],
        "eval": ["--model", str(model_dir / "model.kinc"), "--embeddings",
                 str(world_dir / "embeddings.csv"), "--pairs", str(world_dir / "pairs_val.csv")],
    }
    argv = [command, *inputs[command], *REPLAY_FLAGS[command], "--out", str(tmp_path / "run")]
    used = _run_config(build_parser().parse_args(argv))
    assert used != RunConfig()
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    config = tmp_path / "replay.json"
    config.write_text(json.dumps(manifest["config"]))
    assert parse_config(config) == used
    if command == "synth":  # and the replay writes the same eight files
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "replay")]) == 0
        replay = json.loads((tmp_path / "replay" / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 8
        assert replay["artifacts"] == manifest["artifacts"]


@pytest.mark.parametrize(
    "command, document, flags, message",
    [
        ("synth", {"train": {"epochs": -3}}, [], "epochs must be non-negative, got -3"),
        ("synth", {"train": {"batch_size": 0}}, [], "batch_size must be positive, got 0"),
        ("synth", {"model": {"activation": "bogus"}}, [], "'bogus' is not a valid Activation"),
        ("synth", {"model": {"hidden": 0}}, [], "hidden must be positive, got 0"),
        ("synth", {"eval": {"objective": "nope"}}, [], "'nope' is not a valid Objective"),
        ("synth", {"eval": {"bins": 0}}, [], "eval.bins must be at least 1, got 0"),
        ("synth", {}, ["--dim", "1"], "dim must be at least 2, got 1"),
        ("train", {"synth": {"dim": 1}}, [], "dim must be at least 2, got 1"),
        ("train", {"synth": {"founder_scale": -1.0}}, [], "founder_scale must be positive"),
    ],
    ids=["epochs", "batch-size", "activation", "hidden", "objective", "bins", "dim-flag", "dim",
         "founder-scale"],
)
def test_bad_config_values_stop_every_command(
    command, document, flags, message, world_dir, tmp_path, capsys
):
    # each value is checked when the config is parsed, whichever command reads it
    path = tmp_path / "cfg.json"
    out = tmp_path / "run"
    if command == "synth":
        document = {**document, "synth": {"identity_dims": 4}}
        argv = ["synth", *SYNTH_ARGS]
    else:
        argv = ["train", "--data", str(world_dir), "--epochs", "1", "--hidden", "4"]
    path.write_text(json.dumps(document))
    assert main(argv + flags + ["--config", str(path), "--out", str(out)]) == 1
    _one_error_line(capsys, message)
    assert not (out / "manifest.json").exists()


# Records over one store: (person, family, gender) rows, written as an embeddings file.
FAULT_PEOPLE = [("a", "f1", "M"), ("b", "f1", "F"), ("c", "f1", "M"), ("d", "f2", "F"),
                ("e", "f2", "M")]
RELATIONS = "BB, SIBS, SS, FD, FS, MD, MS, GFGD, GFGS, GMGD, GMGS"
# kind, the CSV row, the reason, and whether the fault lies in the label: a query has no
# label, so then its command scores the same fields instead of failing
RECORD_FAULTS = [
    ("pairs", "a,b,XX,kin", f"unknown relation code 'XX', expected one of {RELATIONS}", False),
    ("pairs", "a,b,FD,maybe", "unknown label 'maybe', expected 'kin' or 'nonkin'", True),
    ("pairs", "a,zz,FD,kin", "unknown person_id 'zz'", False),
    ("pairs", "yy,zz,FD,kin", "unknown person_id 'yy'", False),
    ("pairs", "a,a,FD,kin", "pair references the same person twice: 'a'", False),
    ("pairs", "a,b,BB,kin", "genders (M,F) do not fit relation BB", False),
    ("pairs", "a,d,FD,kin", "kin pair spans two families", True),
    ("pairs", "a,b,FD,nonkin", "nonkin pair within a single family", True),
    ("tri", "a,b,c,maybe", "unknown label 'maybe', expected 'kin' or 'nonkin'", True),
    ("tri", "a,b,zz,kin", "unknown person_id 'zz'", False),
    ("tri", "yy,b,zz,kin", "unknown person_id 'yy'", False),
    ("tri", "a,b,a,kin", "tri-sample references the same person twice: 'a'", False),
    ("tri", "d,b,c,kin", "father 'd' is not male", False),
    ("tri", "a,e,c,kin", "mother 'e' is not female", False),
    ("tri", "a,d,c,kin", "father and mother belong to different families", False),
    ("tri", "a,b,e,kin", "kin tri-sample child from a different family", True),
    ("tri", "a,b,c,nonkin", "nonkin tri-sample child from the parents' family", True),
]


@pytest.mark.parametrize("kind, row, reason, in_label", RECORD_FAULTS)
def test_loaders_and_queries_give_each_record_fault_one_message(
    tmp_path, capsys, kind, row, reason, in_label
):
    from kinverify.comparator import init_params
    from kinverify.data import DataFormatError, load_embeddings, load_pairs, load_tri
    from kinverify.model_io import save_model

    embeddings = tmp_path / "emb.csv"
    lines = [f"{pid},{fam},{gender},{i}.0,0.5" for i, (pid, fam, gender) in enumerate(FAULT_PEOPLE)]
    embeddings.write_text("person_id,family_id,gender,f0,f1\n" + "\n".join(lines) + "\n")
    store = load_embeddings(embeddings)
    header = {"pairs": "id1,id2,relation,label", "tri": "father_id,mother_id,child_id,label"}[kind]
    load = {"pairs": load_pairs, "tri": load_tri}[kind]
    path = tmp_path / f"{kind}.csv"
    # the fault on line 2 is named before the field-count fault on line 3
    path.write_text(f"{header}\n{row}\na,b\n")
    with pytest.raises(DataFormatError) as exc:
        load(path, store)
    assert str(exc.value) == f"{path}, line 2: {reason}"

    model = tmp_path / "model.kinc"
    save_model(init_params(ComparatorConfig(input_dim=4, hidden=2), seed=0), model)
    fields = row.split(",")[:3]
    command, flags = {
        "pairs": ("verify", ["--id1", "--id2", "--relation"]),
        "tri": ("tri-verify", ["--father", "--mother", "--child"]),
    }[kind]
    argv = [command, "--model", str(model), "--embeddings", str(embeddings), "--threshold", "0.5"]
    capsys.readouterr()
    code = main(argv + [arg for pair in zip(flags, fields) for arg in pair])
    captured = capsys.readouterr()
    if in_label:
        assert code == 0 and captured.err == "" and "decision=" in captured.out
    else:
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {reason}\n"
