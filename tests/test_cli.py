import json
from pathlib import Path

import numpy as np
import pytest

import stancegen.files as files
import stancegen.tensor as T
from stancegen.cli import (
    EXIT_CAPABILITY,
    EXIT_CHECKPOINT,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    _gradcheck_components,
    build_parser,
    build_run_config,
    main,
    parse_config_file,
)
from stancegen.data import DEV_TARGET, TEST_TARGET, TRAIN_TARGETS
from stancegen.errors import ConfigError
from stancegen.models import EMBEDDINGS_ARRAY

HEADER = "ID\tTarget\tTweet\tStance"
CUE = {"FAVOR": "love", "AGAINST": "hate", "NONE": "weather"}
FILLER = ["one", "two", "three", "four"]


def write_dataset(dir_path, per_class=2):
    """Tiny six-target corpus shaped like the official distribution files."""
    rows = []
    rid = 1
    for target in TRAIN_TARGETS + (DEV_TARGET, TEST_TARGET):
        for stance in ("FAVOR", "AGAINST", "NONE"):
            for k in range(per_class):
                text = f"{CUE[stance]} it {FILLER[k % len(FILLER)]} times"
                rows.append(f"{rid}\t{target}\t{text}\t{stance}")
                rid += 1
    third = len(rows) // 3
    for name, chunk in (
        ("train.tsv", rows[:third]),
        ("dev.tsv", rows[third : 2 * third]),
        ("test.tsv", rows[2 * third :]),
    ):
        (dir_path / name).write_text(HEADER + "\n" + "\n".join(chunk) + "\n", encoding="utf-8")


def write_config(path, data_dir, out_dir, **overrides):
    values = {
        "train_path": data_dir / "train.tsv",
        "dev_path": data_dir / "dev.tsv",
        "test_path": data_dir / "test.tsv",
        "out_dir": out_dir,
        "variant": "BCA",
        "embed_dim": 5,
        "hidden_dim": 3,
        "attn_dim": 4,
        "dropout": 0.0,
        "batch_size": 4,
        "learning_rate": 0.05,
        "l2": 0.0,
        "patience": 5,
        "max_epochs": 2,
        "count_check": "false",
        "seeds": 0,
    }
    values.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return path


@pytest.fixture
def workspace(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_dataset(data_dir)
    out_dir = tmp_path / "run"
    config = write_config(tmp_path / "run.cfg", data_dir, out_dir)
    return tmp_path, data_dir, out_dir, config


# ---------------------------------------------------------- config parsing


def test_parse_config_skips_comments_and_blanks(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n\nvariant=BCA\nseeds = 1,2\n")
    assert parse_config_file(cfg) == {"variant": "BCA", "seeds": "1,2"}


def test_parse_config_duplicate_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("variant=BCA\nvariant=Concat\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(cfg)


def test_parse_config_requires_equals(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("variant BCA\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(cfg)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config_file(tmp_path / "absent.cfg")


def _args(argv):
    return build_parser().parse_args(argv)


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("mystery=1\n")
    with pytest.raises(ConfigError, match="mystery"):
        build_run_config(_args(["train", "--config", str(cfg)]))


def test_bad_numeric_config_value(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("hidden_dim=abc\n")
    with pytest.raises(ConfigError, match="hidden_dim"):
        build_run_config(_args(["train", "--config", str(cfg)]))


def test_bad_seed_list(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seeds=1,x\n")
    with pytest.raises(ConfigError, match="seeds"):
        build_run_config(_args(["train", "--config", str(cfg)]))


def test_flag_overrides_win(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("variant=BCA\nlambda=0.9\nout_dir=from_file\nseeds=1\n")
    run = build_run_config(
        _args(
            [
                "train",
                "--config",
                str(cfg),
                "--variant",
                "BCAInvar",
                "--lambda",
                "0.25",
                "--seeds",
                "3,4",
                "--no-count-check",
                "--out-dir",
                "from_flag",
            ]
        )
    )
    assert run.variant == "BCAInvar"
    assert run.hp.lam == 0.25
    assert run.seeds == [3, 4]
    assert run.count_check is False
    assert run.out_dir == "from_flag"


def test_single_seed_flag():
    run = build_run_config(_args(["train", "--seed", "7"]))
    assert run.seeds == [7]


def test_defaults_without_config():
    run = build_run_config(_args(["train"]))
    assert run.variant == "BCAInvar"
    assert run.hp.lam == 0.1
    assert run.seeds == [0]
    assert run.count_check is True


# ------------------------------------------------------------------- train


def test_train_writes_artifacts(workspace, capsys):
    _, _, out_dir, config = workspace
    assert main(["train", "--config", str(config)]) == EXIT_OK
    for name in (
        "vocab.tsv",
        "model_seed0.npz",
        "train_seed0.log",
        "metrics_seed0.txt",
        "summary.txt",
    ):
        assert (out_dir / name).exists(), name
    out = capsys.readouterr().out
    assert "seed 0:" in out
    metrics = (out_dir / "metrics_seed0.txt").read_text()
    assert "dev (seed 0)" in metrics and "test (seed 0)" in metrics
    assert metrics.count("macro-F1") == 2


def test_train_missing_embeddings_exits_2(workspace, capsys):
    tmp_path, data_dir, out_dir, _ = workspace
    config = write_config(
        tmp_path / "bad.cfg", data_dir, out_dir, embeddings_path="/nonexistent/vectors.txt"
    )
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert "embeddings" in capsys.readouterr().err


def test_train_unknown_variant_exits_2(workspace):
    _, _, out_dir, config = workspace
    assert main(["train", "--config", str(config), "--variant", "Transformer"]) == EXIT_CONFIG
    # rejected before the vocabulary is built and saved
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "overrides, message",
    [({"variant": "Bogus"}, "unknown variant"), ({"attn_dim": 0}, "attn_dim must be positive")],
    ids=["variant", "attn_dim"],
)
def test_train_invalid_spec_exits_2_before_reading_data(workspace, capsys, overrides, message):
    tmp_path, data_dir, out_dir, _ = workspace
    # read first, this file would exit 3
    (data_dir / "train.tsv").write_text(HEADER + "\n1\tAtheism\tno stance column\n")
    config = write_config(tmp_path / "spec.cfg", data_dir, out_dir, **overrides)
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_config_file_missing_exits_2(tmp_path):
    assert main(["train", "--config", str(tmp_path / "no.cfg")]) == EXIT_CONFIG


def test_train_malformed_tsv_exits_3(workspace, capsys):
    _, data_dir, _, config = workspace
    (data_dir / "train.tsv").write_text(HEADER + "\n1\tAtheism\tno stance column\n")
    assert main(["train", "--config", str(config)]) == EXIT_DATA
    assert "line" in capsys.readouterr().err


def test_train_non_numeric_embedding_value_exits_3(workspace, capsys):
    tmp_path, data_dir, out_dir, _ = workspace
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("love 0.1 0.2 0.3 0.4 0.5\nhate 0.1 0.2 oops 0.4 0.5\n")
    config = write_config(tmp_path / "emb.cfg", data_dir, out_dir, embeddings_path=vectors)
    assert main(["train", "--config", str(config)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2:")
    assert "Traceback" not in err


def test_train_count_check_on_tiny_data_exits_3(workspace):
    tmp_path, data_dir, out_dir, _ = workspace
    config = write_config(tmp_path / "strict.cfg", data_dir, out_dir, count_check="true")
    assert main(["train", "--config", str(config)]) == EXIT_DATA


def test_multi_seed_median_summary(workspace, capsys):
    _, _, out_dir, config = workspace
    assert main(["train", "--config", str(config), "--seeds", "0,1,2"]) == EXIT_OK
    for seed in (0, 1, 2):
        assert (out_dir / f"model_seed{seed}.npz").exists()
    summary = (out_dir / "summary.txt").read_text()
    assert "median over 3 seeds" in summary
    assert "median over 3 seeds" in capsys.readouterr().out


def _artifacts(out_dir):
    """Every file's bytes; npz files as their arrays, since zip entries carry
    a write time."""
    found = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as archive:
                found[path.name] = {k: archive[k] for k in archive.files}
        else:
            found[path.name] = path.read_bytes()
    return found


def test_parallel_seeds_produce_artifacts(workspace, tmp_path):
    _, data_dir, out_dir, config = workspace
    code = main(["train", "--config", str(config), "--seeds", "0,1", "--parallel-seeds"])
    assert code == EXIT_OK
    assert (out_dir / "model_seed0.npz").exists()
    assert (out_dir / "model_seed1.npz").exists()
    assert "median over 2 seeds" in (out_dir / "summary.txt").read_text()
    # identical, file by file, to the same seeds trained one after another
    serial_dir = tmp_path / "serial"
    serial_cfg = write_config(tmp_path / "serial.cfg", data_dir, serial_dir)
    assert main(["train", "--config", str(serial_cfg), "--seeds", "0,1"]) == EXIT_OK
    parallel, serial = _artifacts(out_dir), _artifacts(serial_dir)
    assert parallel.keys() == serial.keys()
    for name, content in serial.items():
        if name.endswith(".npz"):
            assert content.keys() == parallel[name].keys(), name
            for key, arr in content.items():
                assert arr.dtype == parallel[name][key].dtype, (name, key)
                assert arr.tobytes() == parallel[name][key].tobytes(), (name, key)
        else:
            assert content == parallel[name], name


@pytest.mark.parametrize("cpus,seeds,expected", [(2, "0,1,2", 2), (8, "0,1", 2), (None, "0,1", 1)])
def test_parallel_seeds_worker_count_capped_by_cpus(workspace, monkeypatch, cpus, seeds, expected):
    import concurrent.futures

    created, initializers = [], []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

        def __init__(self, max_workers, initializer):
            created.append(max_workers)
            initializers.append(initializer.__name__)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    _, _, out_dir, config = workspace
    # the pool is sized from the process's CPU affinity where the OS has one
    # (cpus None: neither an affinity set nor a CPU count)
    if cpus is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
    else:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    assert main(["train", "--config", str(config), "--seeds", seeds, "--parallel-seeds"]) == EXIT_OK
    assert created == [expected] and initializers == ["_seed_worker_init"]
    assert len(list(out_dir.glob("model_seed*.npz"))) == len(seeds.split(","))


def test_parallel_seed_workers_run_no_gradient_helper(monkeypatch):
    # each pool worker already has a core of its own
    from stancegen import cli

    monkeypatch.setattr(T, "HELPER", True)
    cli._seed_worker_init()
    assert T.HELPER is False


def test_train_non_finite_loss_exits_1(workspace, capsys):
    tmp_path, data_dir, out_dir, _ = workspace
    emb = tmp_path / "emb.txt"
    emb.write_text("love nan nan nan nan nan\nhate 1 1 1 1 1\n", encoding="utf-8")
    config = write_config(tmp_path / "nan.cfg", data_dir, out_dir, embeddings_path=emb)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "non-finite loss nan at epoch 1, step 1" in err
    assert "Traceback" not in err
    assert not (out_dir / "model_seed0.npz").exists()


def test_rerun_is_byte_identical(workspace, tmp_path):
    tmp, data_dir, _, _ = workspace
    outs = []
    for name in ("runA", "runB"):
        out_dir = tmp / name
        config = write_config(tmp / f"{name}.cfg", data_dir, out_dir)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        outs.append(out_dir)
    for fname in ("train_seed0.log", "metrics_seed0.txt", "summary.txt", "vocab.tsv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_data_dir_env_fallback(workspace, monkeypatch):
    tmp_path, data_dir, out_dir, _ = workspace
    monkeypatch.setenv("STANCEGEN_DATA_DIR", str(data_dir))
    config = tmp_path / "env.cfg"
    config.write_text(
        f"out_dir={out_dir}\nvariant=BCA\nembed_dim=5\nhidden_dim=3\nattn_dim=4\n"
        "dropout=0.0\nbatch_size=4\nmax_epochs=1\ncount_check=false\n"
    )
    assert main(["train", "--config", str(config)]) == EXIT_OK


# -------------------------------------------------------------------- eval


def _trained(workspace):
    _, _, out_dir, config = workspace
    assert main(["train", "--config", str(config)]) == EXIT_OK
    return out_dir, config


def test_eval_matches_train_log_best(workspace, capsys):
    out_dir, config = _trained(workspace)
    capsys.readouterr()
    code = main(
        ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--split", "dev"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    printed = float(out.strip().splitlines()[-1].split()[-1])
    best_logged = max(
        float(line.split("\t")[3]) for line in (out_dir / "train_seed0.log").read_text().splitlines()
    )
    assert abs(printed - best_logged) < 5e-5


def test_eval_corrupted_checkpoint_exits_4(workspace, capsys):
    out_dir, config = _trained(workspace)
    bad = out_dir / "model_seed0.npz"
    bad.write_bytes(b"definitely not a checkpoint")
    code = main(["eval", "--config", str(config), "--checkpoint", str(bad)])
    assert code == EXIT_CHECKPOINT
    assert "checkpoint error" in capsys.readouterr().err


def test_eval_vocab_mismatch_exits_4(workspace):
    out_dir, config = _trained(workspace)
    vocab_file = out_dir / "vocab.tsv"
    lines = vocab_file.read_text().splitlines()
    vocab_file.write_text("\n".join(lines + [f"zzzz\t{len(lines)}"]) + "\n")
    code = main(
        ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz")]
    )
    assert code == EXIT_CHECKPOINT


def test_eval_non_integer_vocab_id_exits_3(workspace, capsys):
    out_dir, config = _trained(workspace)
    vocab_file = out_dir / "vocab.tsv"
    lines = vocab_file.read_text().splitlines()
    lines[2] = lines[2].split("\t")[0] + "\tthree"
    vocab_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(
        ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz")]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 3:")
    assert "Traceback" not in err


def test_eval_vocab_with_duplicate_ids_exits_3(workspace, capsys):
    out_dir, config = _trained(workspace)
    vocab_file = out_dir / "vocab.tsv"
    lines = vocab_file.read_text().splitlines()
    lines[3] = lines[3].split("\t")[0] + "\t2"
    vocab_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(
        ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz")]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 4: id 2 is already used on line 3")
    assert "Traceback" not in err


def _rewrite_arrays(path, edit):
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    edit(arrays)
    np.savez(path, **arrays)


def _rewrite_meta(path, edit):
    def edit_meta(arrays):
        meta = json.loads(str(arrays["__meta__"]))
        edit(meta)
        arrays["__meta__"] = np.array(json.dumps(meta))

    _rewrite_arrays(path, edit_meta)


def _eval_exits_4(workspace, capsys, rewrite, edit, message):
    out_dir, config = _trained(workspace)
    checkpoint = out_dir / "model_seed0.npz"
    rewrite(checkpoint, edit)
    capsys.readouterr()
    code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])
    assert code == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.pop("embed_hash"), "lacks a str 'embed_hash'"),
        (lambda m: m.pop("vocab_hash"), "lacks a str 'vocab_hash'"),
        (lambda m: m.pop("spec"), "lacks a dict 'spec'"),
        (lambda m: m.pop("precision"), "lacks a str 'precision'"),
        (lambda m: m.update(precision="int8x"), "unknown checkpoint precision 'int8x'"),
        (lambda m: m.update(precision=["float32"]), "lacks a str 'precision'"),
        (lambda m: m["spec"].update(hidden="3"), "invalid model spec"),
        (lambda m: m["spec"].update(variant="Nope"), "invalid model spec"),
    ],
    ids=["no-embed-hash", "no-vocab-hash", "no-spec", "no-precision", "bad-precision",
         "list-precision", "unknown-spec-key", "bad-variant"],
)
def test_eval_malformed_checkpoint_metadata_exits_4(workspace, capsys, edit, message):
    _eval_exits_4(workspace, capsys, _rewrite_meta, edit, message)


def _poison(name, value):
    def edit(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[1] = value
    return edit


def _as_version_1(arrays):
    # the version-1 layout: parameters only, no embedding matrix
    del arrays[EMBEDDINGS_ARRAY]
    meta = json.loads(str(arrays["__meta__"]))
    arrays["__meta__"] = np.array(json.dumps({**meta, "version": 1}))


@pytest.mark.parametrize(
    "edit, message",
    [
        (_as_version_1, "unsupported checkpoint version 1; retrain to write a version 2 checkpoint"),
        (lambda a: a.pop(EMBEDDINGS_ARRAY), "lacks its embedding matrix __embeddings__"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY].astype(np.float32)),
         "__embeddings__ is float32, not float64"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY][:, :-1]), "but embed_dim is 5"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY][0]), "shape (5,), but embed_dim is 5"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY][:-1]),
         "embedding matrix has 20 rows, but the vocabulary has 21 tokens"),
        (_poison(EMBEDDINGS_ARRAY, np.inf), "__embeddings__ holds a NaN or infinite value"),
        (_poison("stance.w_mlp", np.nan), "stance.w_mlp holds a NaN or infinite value"),
        (_poison("attention.v", -np.inf), "attention.v holds a NaN or infinite value"),
    ],
    ids=["version-1", "no-embeddings", "float32-embeddings", "narrow-embeddings", "1d-embeddings",
         "short-embeddings", "inf-embedding", "nan-parameter", "inf-parameter"],
)
def test_eval_malformed_checkpoint_arrays_exit_4(workspace, capsys, edit, message):
    _eval_exits_4(workspace, capsys, _rewrite_arrays, edit, message)


def test_eval_empty_dataset_exits_3(workspace, tmp_path):
    out_dir, config = _trained(workspace)
    empty = tmp_path / "empty.tsv"
    empty.write_text(HEADER + "\n")
    code = main(
        ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--dataset", str(empty)]
    )
    assert code == EXIT_DATA


def test_eval_external_dataset(workspace, tmp_path, capsys):
    out_dir, config = _trained(workspace)
    external = tmp_path / "extra.tsv"
    external.write_text(HEADER + "\n1\tDonald Trump\tlove it one times\tFAVOR\n")
    capsys.readouterr()
    code = main(
        ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--dataset", str(external)]
    )
    assert code == EXIT_OK
    assert "macro-F1" in capsys.readouterr().out


# -------------------------------------------------------- unreadable inputs

NOT_UTF8 = b"\xff\xfe not text\n"


def _bad_train_tsv(tmp_path, data_dir, out_dir, config):
    (data_dir / "train.tsv").write_bytes(HEADER.encode() + b"\n" + NOT_UTF8)
    return ["train", "--config", str(config)], data_dir / "train.tsv"


def _bad_embeddings(tmp_path, data_dir, out_dir, config):
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes(b"love 0.1 0.2 0.3 0.4 0.5\n" + NOT_UTF8)
    config = write_config(tmp_path / "emb.cfg", data_dir, out_dir, embeddings_path=vectors)
    return ["train", "--config", str(config)], vectors


def _bad_vocab(tmp_path, data_dir, out_dir, config):
    assert main(["train", "--config", str(config)]) == EXIT_OK
    (out_dir / "vocab.tsv").write_bytes(b"<pad>\t0\n<unk>\t1\n" + NOT_UTF8)
    return _eval(config, out_dir), out_dir / "vocab.tsv"


def _bad_config(tmp_path, data_dir, out_dir, config):
    config.write_bytes(config.read_bytes() + NOT_UTF8)
    return ["train", "--config", str(config)], config


def _missing_dataset(tmp_path, data_dir, out_dir, config):
    assert main(["train", "--config", str(config)]) == EXIT_OK
    return _eval(config, out_dir, "--dataset", str(tmp_path / "absent.tsv")), tmp_path / "absent.tsv"


def _directory_dataset(tmp_path, data_dir, out_dir, config):
    assert main(["train", "--config", str(config)]) == EXIT_OK
    return _eval(config, out_dir, "--dataset", str(data_dir)), data_dir


def _eval(config, out_dir, *extra):
    return ["eval", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"), *extra]


@pytest.mark.parametrize(
    "make,code",
    [
        (_bad_train_tsv, EXIT_DATA),
        (_bad_embeddings, EXIT_DATA),
        (_bad_vocab, EXIT_DATA),
        (_bad_config, EXIT_CONFIG),
        (_missing_dataset, EXIT_CONFIG),
        (_directory_dataset, EXIT_DATA),
    ],
    ids=["tsv-not-utf8", "embeddings-not-utf8", "vocab-not-utf8", "config-not-utf8",
         "dataset-missing", "dataset-is-a-directory"],
)
def test_unreadable_input_exits_with_its_code(workspace, capsys, make, code):
    argv, path = make(*workspace)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err


@pytest.mark.parametrize(
    "config_seeds,flags",
    [(-1, []), (0, ["--seed", "-1"]), (0, ["--seeds", "0,-3"])],
    ids=["config-seeds", "seed-flag", "seeds-flag"],
)
def test_negative_seed_exits_2(workspace, capsys, config_seeds, flags):
    tmp_path, data_dir, out_dir, _ = workspace
    config = write_config(tmp_path / "seeds.cfg", data_dir, out_dir, seeds=config_seeds)
    assert main(["train", "--config", str(config), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "non-negative" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key,value,flags",
    [
        ("learning_rate", "nan", []),
        ("learning_rate", "inf", []),
        ("l2", "inf", []),
        ("dropout", "nan", []),
        ("lambda", "nan", []),
        ("lambda", None, ["--lambda", "nan"]),
        ("lambda", None, ["--lambda", "inf"]),
    ],
    ids=["lr-nan", "lr-inf", "l2-inf", "dropout-nan", "lambda-nan", "lambda-flag-nan", "lambda-flag-inf"],
)
def test_non_finite_hyperparameter_exits_2(workspace, capsys, key, value, flags):
    tmp_path, data_dir, out_dir, _ = workspace
    overrides = {} if value is None else {key: value}
    config = write_config(tmp_path / "nonfinite.cfg", data_dir, out_dir, **overrides)
    assert main(["train", "--config", str(config), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "config_seeds,flags,repeated",
    [(0, ["--seeds", "0,0"], 0), ("1,2,1", [], 1)],
    ids=["seeds-flag", "config-seeds"],
)
def test_repeated_seed_exits_2(workspace, capsys, config_seeds, flags, repeated):
    tmp_path, data_dir, out_dir, _ = workspace
    config = write_config(tmp_path / "seeds.cfg", data_dir, out_dir, seeds=config_seeds)
    assert main(["train", "--config", str(config), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"seed {repeated} is listed more than once" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "overrides,flags,named",
    [
        ({"seed": 3, "seeds": "0,1"}, [], "sets both seed and seeds"),
        ({}, ["--seed", "1", "--seeds", "2,3"], "both --seed and --seeds"),
    ],
    ids=["config-file", "flags"],
)
def test_seed_and_seeds_together_exit_2(workspace, capsys, overrides, flags, named):
    # neither setting may silently drop the other's seeds
    tmp_path, data_dir, out_dir, _ = workspace
    config = write_config(tmp_path / "seeds.cfg", data_dir, out_dir, **overrides)
    assert main(["train", "--config", str(config), *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out_dir.exists()


def test_seed_flag_overrides_the_files_seeds(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seeds=0,1\n")
    assert build_run_config(_args(["train", "--config", str(cfg), "--seed", "3"])).seeds == [3]
    cfg.write_text("seed=3\n")
    assert build_run_config(_args(["train", "--config", str(cfg), "--seeds", "0,1"])).seeds == [0, 1]


# ------------------------------------------------------------- vocabulary


def _run_arrays(out_dir):
    with np.load(out_dir / "model_seed0.npz", allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def test_retrain_builds_its_own_vocabulary(workspace):
    tmp_path, data_dir, out_dir, config = workspace
    assert main(["train", "--config", str(config)]) == EXIT_OK
    stale = (out_dir / "vocab.tsv").read_bytes()
    rare = write_config(tmp_path / "rare.cfg", data_dir, out_dir, min_count=1000)
    assert main(["train", "--config", str(rare)]) == EXIT_OK
    fresh_dir = tmp_path / "fresh"
    fresh = write_config(tmp_path / "fresh.cfg", data_dir, fresh_dir, min_count=1000)
    assert main(["train", "--config", str(fresh)]) == EXIT_OK
    vocab = (out_dir / "vocab.tsv").read_bytes()
    assert vocab == (fresh_dir / "vocab.tsv").read_bytes() != stale
    assert vocab == b"<pad>\t0\n<unk>\t1\n"
    retrained, reference = _run_arrays(out_dir), _run_arrays(fresh_dir)
    assert retrained.keys() == reference.keys()
    for name in reference:
        assert np.array_equal(retrained[name], reference[name]), name
    assert (out_dir / "summary.txt").read_bytes() == (fresh_dir / "summary.txt").read_bytes()


@pytest.mark.parametrize("command", ["eval", "predict", "dump-attention"])
def test_checkpoint_commands_need_a_saved_vocabulary(workspace, capsys, command):
    out_dir, config = _trained(workspace)
    (out_dir / "vocab.tsv").unlink()
    argv = [command, "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz")]
    if command == "predict":
        argv += ["--text", "love it", "--target", "Donald Trump"]
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert "vocab.tsv not found" in capsys.readouterr().err


def test_checkpoint_commands_read_vocab_path(workspace):
    tmp_path, data_dir, out_dir, config = workspace
    _trained(workspace)
    moved = tmp_path / "kept_vocab.tsv"
    (out_dir / "vocab.tsv").rename(moved)
    with_path = write_config(tmp_path / "vp.cfg", data_dir, out_dir, vocab_path=moved)
    assert main(_eval(with_path, out_dir)) == EXIT_OK


def _checkpoint_outputs(config, out_dir, capsys):
    """stdout of eval, predict and dump-attention, and the dumped records."""
    checkpoint = ["--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz")]
    dump = out_dir / "att.jsonl"
    outputs = []
    for argv in (
        ["eval", *checkpoint],
        ["predict", *checkpoint, "--text", "love it one times", "--target", "Donald Trump"],
        ["dump-attention", *checkpoint, "--out", str(dump)],
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    return outputs + [dump.read_bytes()]


@pytest.mark.parametrize("spoil", ["deleted", "not-utf8"])
def test_checkpoint_commands_do_not_read_the_embeddings_file(workspace, capsys, spoil):
    tmp_path, data_dir, out_dir, _ = workspace
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(
        "love 0.4 -0.1 0.2 0.3 0.1\nhate -0.4 0.1 -0.2 0.3 0.2\nit 0.05 0.0 0.1 -0.1 0.2\n",
        encoding="utf-8",
    )
    config = write_config(tmp_path / "emb.cfg", data_dir, out_dir, embeddings_path=vectors)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    before = _checkpoint_outputs(config, out_dir, capsys)
    if spoil == "deleted":
        vectors.unlink()
    else:
        vectors.write_bytes(NOT_UTF8)
    assert _checkpoint_outputs(config, out_dir, capsys) == before


# ----------------------------------------------------------------- predict


def test_predict_prints_distribution(workspace, capsys):
    out_dir, config = _trained(workspace)
    capsys.readouterr()
    code = main(
        ["predict", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--text", "love it one times", "--target", "Donald Trump"]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    probs = [float(line.split(": ")[1]) for line in lines[:3]]
    assert abs(sum(probs) - 1.0) < 1e-3
    assert lines[3].startswith("prediction: ")
    assert lines[3].split(": ")[1] in ("FAVOR", "AGAINST", "NONE")


# ----------------------------------------------------------- dump-attention


def test_dump_attention_counts_and_creates_dirs(workspace, capsys):
    out_dir, config = _trained(workspace)
    nested = out_dir / "deep" / "dir" / "att.jsonl"
    capsys.readouterr()
    code = main(
        ["dump-attention", "--config", str(config),
         "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--split", "test", "--out", str(nested)]
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in nested.read_text().splitlines()]
    assert len(records) == 6  # six Trump rows in the synthetic corpus
    assert f"wrote 6 attention records" in capsys.readouterr().out


def test_dump_attention_html(workspace):
    out_dir, config = _trained(workspace)
    html_path = out_dir / "att.html"
    code = main(
        ["dump-attention", "--config", str(config),
         "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--out", str(out_dir / "att.jsonl"), "--html", str(html_path)]
    )
    assert code == EXIT_OK
    assert html_path.exists()


def test_dump_attention_concat_exits_5(workspace, capsys):
    tmp_path, data_dir, _, _ = workspace
    out_dir = tmp_path / "concat_run"
    config = write_config(tmp_path / "concat.cfg", data_dir, out_dir, variant="Concat", max_epochs=1)
    assert main(["train", "--config", str(config)]) == EXIT_OK
    capsys.readouterr()
    jsonl_dir, html_dir = tmp_path / "new" / "jsonl", tmp_path / "new" / "html"
    code = main(
        ["dump-attention", "--config", str(config),
         "--checkpoint", str(out_dir / "model_seed0.npz"),
         "--out", str(jsonl_dir / "att.jsonl"), "--html", str(html_dir / "att.html")]
    )
    assert code == EXIT_CAPABILITY
    err = capsys.readouterr().err
    assert "no attention layer" in err
    assert "Traceback" not in err
    # rejected before anything was created
    assert not (tmp_path / "new").exists()


class _HalfWriter:
    """A file that writes half of its first chunk, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError("simulated full disk")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize(
    "artifact",
    ["vocab.tsv", "train_seed0.log", "model_seed0.npz", "metrics_seed0.txt", "summary.txt",
     "att.jsonl", "att.html"],
)
def test_failed_write_keeps_the_previous_artifact(workspace, monkeypatch, artifact):
    out_dir, config = _trained(workspace)
    dump = ["dump-attention", "--config", str(config),
            "--checkpoint", str(out_dir / "model_seed0.npz"),
            "--out", str(out_dir / "att.jsonl"), "--html", str(out_dir / "att.html")]
    assert main(dump) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert artifact in before

    real_open = open

    def open_failing_on_artifact(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return _HalfWriter(fh) if artifact in Path(file).name else fh

    monkeypatch.setattr(files, "open", open_failing_on_artifact, raising=False)
    command = dump if artifact.startswith("att.") else ["train", "--config", str(config)]
    with pytest.raises(OSError, match="simulated full disk"):
        main(command)
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert after == before


# --------------------------------------------------------------- gradcheck


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("gradcheck passed: ")
    assert not any("FAIL" in line for line in lines)
    # the summary counts the component lines above it
    assert int(lines[-1].split()[2]) == len(lines) - 1
    names = {line.split()[0] for line in lines[:-1]}
    assert {"lstm_step_batch", "lstm_sequence", "conditional_encoder", "attention", "max_pool"} <= names


def test_gradcheck_negative_control(capsys, monkeypatch):
    import stancegen.cli as C
    import stancegen.layers as L

    def broken(x):
        out = T.Tensor(np.tanh(x.value))
        # 1% gradient error
        return T._record(out, lambda g: x.accum(g * (1.0 - out.value * out.value) * 1.01))

    # every module that calls tanh gets the planted one; the layers compute
    # their tanh inside their own nodes
    original = T.tanh
    assert not hasattr(L, "tanh")
    for module in (T, C):
        assert module.tanh is original
        monkeypatch.setattr(module, "tanh", broken)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "tanh" in [line.split()[0] for line in out.splitlines() if "FAIL" in line]
    assert "gradcheck FAILED" in out


def test_gradcheck_components_do_not_share_operands():
    forward = {name: check() for name, check in _gradcheck_components()}
    backward = {name: check() for name, check in reversed(_gradcheck_components())}
    assert backward == forward


def test_gradcheck_checks_the_training_objective(capsys, monkeypatch):
    import stancegen.training as TR

    original = TR.objective_batch

    def domain_off_the_tape(out, batch, lam):
        # a planted bug: the domain term's value counts, its gradient does not
        objective, stance, domain = original(out, batch, lam)
        return T.add(stance, T.Tensor(T.scale(domain, lam).value)), stance, domain

    monkeypatch.setattr(TR, "objective_batch", domain_off_the_tape)
    assert main(["gradcheck"]) == 1
    assert "gradcheck FAILED: bcainvar_objective (" in capsys.readouterr().out


def test_gradcheck_catches_unnegated_reversal(capsys, monkeypatch):
    import stancegen.models as M

    def passthrough(x):
        out = T.Tensor(x.value.copy())
        return T._record(out, lambda g: x.accum(g))

    monkeypatch.setattr(M, "grl", passthrough)
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "bcainvar_objective" in [line.split()[0] for line in out.splitlines() if "FAIL" in line]
    assert "gradcheck FAILED: bcainvar_objective" in out
