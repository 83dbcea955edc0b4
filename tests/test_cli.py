import copy
import dataclasses
import json
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stancegen.cli as cli
import stancegen.files as files
import stancegen.tensor as T
from stancegen.cli import (
    CONFIG_KEYS,
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
from stancegen.data import DEV_TARGET, TEST_TARGET, TRAIN_TARGETS, Vocabulary
from stancegen.errors import ConfigError
from stancegen.training import Hyperparams
from stancegen.models import EMBEDDINGS_ARRAY, PARAMS_ARRAY, VARIANTS, load_checkpoint

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


def test_parse_config_drops_a_byte_order_mark(workspace):
    tmp_path, _, _, config = workspace
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert parse_config_file(marked) == parse_config_file(config)
    plain = build_run_config(_args(["train", "--config", str(config)]))
    assert build_run_config(_args(["train", "--config", str(marked)])) == plain


def _args(argv):
    return build_parser().parse_args(argv)


CHECKPOINT_ARGS = {
    "eval": ["--checkpoint", "m.npz"],
    "predict": ["--checkpoint", "m.npz", "--text", "love it", "--target", "Donald Trump"],
    "dump-attention": ["--checkpoint", "m.npz"],
}
TRAINING_FLAGS = [["--variant", "BCA"], ["--lambda", "0.5"], ["--seed", "1"], ["--seeds", "0,1"]]


@pytest.mark.parametrize(
    "command,flag",
    [(command, flag) for command in CHECKPOINT_ARGS for flag in TRAINING_FLAGS]
    + [("predict", ["--no-count-check"])],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_checkpoint_commands_refuse_flags_they_do_not_read(capsys, command, flag):
    # the model comes from the checkpoint and predict reads no split, so
    # these flags would be silently ignored
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *CHECKPOINT_ARGS[command], *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"unrecognized arguments: {' '.join(flag)}" in err


def test_commands_that_read_a_split_keep_the_count_check_flag():
    # train's flags are covered by test_flag_overrides_win and the seed tests
    for command in ("eval", "dump-attention"):
        run = build_run_config(_args([command, *CHECKPOINT_ARGS[command], "--no-count-check", "--out-dir", "o"]))
        assert run.count_check is False and run.out_dir == "o"
    assert build_run_config(_args(["predict", *CHECKPOINT_ARGS["predict"], "--out-dir", "o"])).out_dir == "o"


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


def _subparsers():
    return next(a for a in build_parser()._actions if a.dest == "command").choices


def test_flags_store_raw_text_under_their_config_key():
    # build_run_config parses a flag's text with the file's parser for that
    # key, so argparse converts nothing
    keyed = {}
    for command, sub in _subparsers().items():
        for action in sub._actions:
            if action.dest in CONFIG_KEYS:
                assert action.type is None, (command, action.option_strings)
                assert action.const in (None, "true", "false")
                keyed[action.option_strings[0]] = action.dest
    assert keyed == {
        "--no-count-check": "count_check",
        "--out-dir": "out_dir",
        "--variant": "variant",
        "--lambda": "lambda",
        "--seed": "seed",
        "--seeds": "seeds",
        "--parallel-seeds": "parallel_seeds",
    }
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)} | {f.name for f in dataclasses.fields(Hyperparams)}
    # every field but the per-seed Hyperparams.seed has its key
    assert {cli._FIELD_OF.get(key, key) for key in CONFIG_KEYS} == fields - {"hp", "seed"}


@pytest.mark.parametrize(
    "key,flag,raw",
    [("lambda", "--lambda", "abc"), ("seed", "--seed", "x")],
)
def test_a_flag_value_is_refused_as_the_file_value_is(tmp_path, key, flag, raw):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={raw}\n")
    with pytest.raises(ConfigError) as from_file:
        build_run_config(_args(["train", "--config", str(cfg)]))
    with pytest.raises(ConfigError) as from_flag:
        build_run_config(_args(["train", flag, raw]))
    assert str(from_flag.value) == str(from_file.value)


def test_a_seed_flag_takes_a_list_as_the_seed_key_does(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed=1,2\n")
    assert build_run_config(_args(["train", "--config", str(cfg)])).seeds == [1, 2]
    assert build_run_config(_args(["train", "--seed", "1,2"])).seeds == [1, 2]


def test_a_flag_replaces_the_files_value_unparsed(tmp_path):
    # the file's text for a key a flag sets is never parsed
    cfg = tmp_path / "c.cfg"
    cfg.write_text("lambda=abc\nseeds=x\ncount_check=maybe\n")
    run = build_run_config(_args(["train", "--config", str(cfg), "--lambda", "0.5", "--seed", "2", "--no-count-check"]))
    assert (run.hp.lam, run.seeds, run.count_check) == (0.5, [2], False)


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
    [
        ({"variant": "Bogus"}, "unknown variant"),
        ({"attn_dim": 0}, "attn_dim must be positive"),
        ({"embed_dim": 0}, "embed_dim must be positive"),
        ({"hidden_dim": 0}, "hidden_dim must be positive"),
        # too large for numpy to describe: refused without allocating
        ({"embed_dim": 10**20}, "too large for numpy to describe: embed_dim 100000000000000000000 ("),
        ({"hidden_dim": 10**20}, "too large for numpy to describe: hidden_dim 100000000000000000000 ("),
        ({"attn_dim": 10**20}, "too large for numpy to describe: attn_dim 100000000000000000000 ("),
        # each describable alone; the gate weights of hidden_dim 3 are not
        ({"embed_dim": 10**18}, "too large for numpy to describe: embed_dim 1000000000000000000, hidden_dim 3, attn_dim 4 ("),
    ],
    ids=["variant", "attn_dim", "embed_dim", "hidden_dim", "huge-embed_dim", "huge-hidden_dim", "huge-attn_dim",
         "huge-dims-together"],
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


@pytest.mark.parametrize("value", ["nan", "-inf", "inf", "1e500"])
def test_train_non_finite_embedding_value_exits_3(workspace, capsys, value):
    tmp_path, data_dir, out_dir, _ = workspace
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"love 0.1 0.2 0.3 0.4 0.5\nhate 0.1 0.2 {value} 0.4 0.5\n")
    config = write_config(tmp_path / "emb.cfg", data_dir, out_dir, embeddings_path=vectors)
    assert main(["train", "--config", str(config)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2: non-finite value in the vector for 'hate'")
    assert not out_dir.exists()  # refused before vocab.tsv or a checkpoint is written


@pytest.mark.parametrize("value", ["1e300", "-3.5e38"])
def test_train_embedding_value_beyond_float32_exits_3(workspace, capsys, value):
    # finite in the float64 file, but the float32 model cannot hold it
    tmp_path, data_dir, out_dir, _ = workspace
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"love 0.1 0.2 0.3 0.4 0.5\nhate 0.1 0.2 {value} 0.4 0.5\n")
    config = write_config(tmp_path / "emb.cfg", data_dir, out_dir, embeddings_path=vectors)
    assert main(["train", "--config", str(config)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 2: value beyond the float32 range in the vector for 'hate'")
    assert "Traceback" not in err
    assert not out_dir.exists()  # refused before vocab.tsv or a checkpoint is written


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
    # a finite learning rate so large that the first Adam step overflows
    # the float32 forward of the second
    config = write_config(tmp_path / "nan.cfg", data_dir, out_dir, learning_rate="1e30")
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "non-finite loss nan at epoch 1, step 2" in err
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


def _eval_with_vocab_path(workspace, edit):
    """eval of a trained checkpoint with vocab_path set to a copy of the
    vocabulary train saved, its lines passed through edit."""
    tmp_path, data_dir, out_dir, _ = workspace
    _trained(workspace)
    kept = tmp_path / "kept_vocab.tsv"
    kept.write_text("\n".join(edit((out_dir / "vocab.tsv").read_text().splitlines())) + "\n")
    return main(_eval(write_config(tmp_path / "vp.cfg", data_dir, out_dir, vocab_path=kept), out_dir))


def test_eval_vocab_mismatch_exits_4(workspace, capsys):
    code = _eval_with_vocab_path(workspace, lambda lines: lines + [f"zzzz\t{len(lines)}"])
    assert code == EXIT_CHECKPOINT
    assert "vocabulary hash mismatch" in capsys.readouterr().err


def _set_id(i, new_id):
    def edit(lines):
        lines[i] = lines[i].split("\t")[0] + "\t" + new_id
        return lines
    return edit


def test_eval_non_integer_vocab_id_exits_3(workspace, capsys):
    code = _eval_with_vocab_path(workspace, _set_id(2, "three"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: line 3:")
    assert "Traceback" not in err


def test_eval_vocab_with_duplicate_ids_exits_3(workspace, capsys):
    code = _eval_with_vocab_path(workspace, _set_id(3, "2"))
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
        (lambda m: m.pop("vocab"), "lacks a list 'vocab'"),
        (lambda m: m.update(vocab="<pad>"), "lacks a list 'vocab'"),
        (lambda m: m["vocab"].__setitem__(2, 3),
         "invalid vocabulary in checkpoint metadata (the vocabulary is not a list of strings)"),
        (lambda m: m["vocab"].__setitem__(3, m["vocab"][2]), "invalid vocabulary in checkpoint metadata (token 'it' is listed twice)"),
        (lambda m: m["vocab"].reverse(), "invalid vocabulary in checkpoint metadata (id 0 must be <pad>, got 'real')"),
        (lambda m: m["vocab"].append("zzzz"),
         "__embeddings__ has shape (21, 5), but the vocabulary and embed_dim need (22, 5)"),
        (lambda m: m.pop("spec"), "lacks a dict 'spec'"),
        (lambda m: m.pop("precision"), "lacks a str 'precision'"),
        (lambda m: m.update(precision="int8x"), "unknown checkpoint precision 'int8x'"),
        (lambda m: m.update(precision=["float32"]), "lacks a str 'precision'"),
        (lambda m: m.pop("index"), "lacks a list 'index'"),
        (lambda m: m["spec"].update(hidden="3"), "invalid model spec"),
        (lambda m: m["spec"].update(variant="Nope"), "invalid model spec"),
    ],
    ids=["no-vocab", "string-vocab", "int-token", "repeated-token", "reversed-vocab", "long-vocab",
         "no-spec", "no-precision", "bad-precision",
         "list-precision", "no-index", "unknown-spec-key", "bad-variant"],
)
def test_eval_malformed_checkpoint_metadata_exits_4(workspace, capsys, edit, message):
    _eval_exits_4(workspace, capsys, _rewrite_meta, edit, message)


def _param_slice(arrays, name):
    """Where parameter `name` sits in the flat __params__ array."""
    offset = 0
    for entry, shape in json.loads(str(arrays["__meta__"]))["index"]:
        size = int(np.prod(shape))
        if entry == name:
            return slice(offset, offset + size)
        offset += size
    raise KeyError(name)


def _poison(name, value):
    def edit(arrays):
        if name == EMBEDDINGS_ARRAY:
            target, start = EMBEDDINGS_ARRAY, 0
        else:
            target, start = PARAMS_ARRAY, _param_slice(arrays, name).start
        arrays[target] = arrays[target].copy()
        arrays[target].flat[start + 1] = value
    return edit


def _edit_index(edit):
    def edit_arrays(arrays):
        meta = json.loads(str(arrays["__meta__"]))
        edit(meta["index"])
        arrays["__meta__"] = np.array(json.dumps(meta))
    return edit_arrays


def _as_version(version):
    def edit(arrays):
        # version 1 stored the parameters one array each and no embedding
        # matrix; version 2 added the matrix; version 3 stored the flat
        # array, and the vocabulary's hash instead of the vocabulary
        meta = json.loads(str(arrays["__meta__"]))
        vocab = meta.pop("vocab")
        meta.update(vocab_hash=Vocabulary.from_tokens(vocab).content_hash(), embed_hash="0" * 64)
        if version == 3:
            arrays["__meta__"] = np.array(json.dumps({**meta, "version": 3}))
            return
        for name, _ in meta.pop("index"):
            arrays[name] = arrays[PARAMS_ARRAY][_param_slice(arrays, name)]
        del arrays[PARAMS_ARRAY]
        if version == 1:
            del arrays[EMBEDDINGS_ARRAY]
        arrays["__meta__"] = np.array(json.dumps({**meta, "version": version}))
    return edit


def _swap_first_two(index):
    index[0], index[1] = index[1], index[0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_as_version(1), "unsupported checkpoint version 1; retrain to write a version 4 checkpoint"),
        (_as_version(2), "unsupported checkpoint version 2; retrain to write a version 4 checkpoint"),
        (_as_version(3), "unsupported checkpoint version 3; retrain to write a version 4 checkpoint"),
        (lambda a: a.pop("__meta__"), "lacks its metadata __meta__"),
        (lambda a: a.update(__meta__=np.array([1.5])), "__meta__ is float64, not a string"),
        (lambda a: a.update(__meta__=np.array([{}], dtype=object)), "__meta__ is object, not a string"),
        (lambda a: a.update(__meta__=a["__meta__"].reshape(1)), "__meta__ has shape (1,), but the format needs ()"),
        (lambda a: a.pop(EMBEDDINGS_ARRAY), "lacks its embedding matrix __embeddings__"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY].astype(np.float32)),
         "__embeddings__ is float32, not float64"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY][:, :-1]),
         "__embeddings__ has shape (21, 4), but the vocabulary and embed_dim need (21, 5)"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY][0]),
         "__embeddings__ has shape (5,), but the vocabulary and embed_dim need (21, 5)"),
        (lambda a: a.update(__embeddings__=a[EMBEDDINGS_ARRAY][:-1]),
         "__embeddings__ has shape (20, 5), but the vocabulary and embed_dim need (21, 5)"),
        (lambda a: a.update(__embeddings__=np.asfortranarray(a[EMBEDDINGS_ARRAY])),
         "__embeddings__ is stored in Fortran order"),
        (_poison(EMBEDDINGS_ARRAY, np.inf), "__embeddings__ holds a NaN or infinite value"),
        (_poison(EMBEDDINGS_ARRAY, -1e300), "__embeddings__ holds a value beyond the float32 range"),
        (lambda a: a.pop(PARAMS_ARRAY), "lacks its parameter array __params__"),
        (lambda a: a.update(__params__=a[PARAMS_ARRAY][:-1]), "__params__ has shape (510,), but the index needs (511,)"),
        (lambda a: a.update(__params__=np.append(a[PARAMS_ARRAY], np.float32(0))),
         "__params__ has shape (512,), but the index needs (511,)"),
        (lambda a: a.update(__params__=a[PARAMS_ARRAY].astype(np.float64)),
         "__params__ is float64, not float32"),
        (lambda a: a.update(__params__=a[PARAMS_ARRAY].reshape(1, -1)),
         "__params__ has shape (1, 511), but the index needs (511,)"),
        (_edit_index(lambda i: i[3].__setitem__(0, "encoder.target_fwd.w_x")),
         "index entry 3 is ['encoder.target_fwd.w_x', [3, 8]], but the spec gives ['encoder.target_fwd.w_g', [3, 8]]"),
        (_edit_index(_swap_first_two),
         "index entry 0 is ['encoder.target_fwd.w_f', [3, 8]], but the spec gives ['encoder.target_fwd.w_i', [3, 8]]"),
        (_edit_index(lambda i: i[0].__setitem__(1, [8, 3])),
         "index entry 0 is ['encoder.target_fwd.w_i', [8, 3]], but the spec gives ['encoder.target_fwd.w_i', [3, 8]]"),
        (_edit_index(lambda i: i.append(["extra", [1]])), "index names 37 parameters, but the spec gives 36"),
        (_edit_index(lambda i: i.pop()), "index names 35 parameters, but the spec gives 36"),
        (_poison("stance.w_mlp", np.nan), "stance.w_mlp holds a NaN or infinite value"),
        (_poison("attention.v", -np.inf), "attention.v holds a NaN or infinite value"),
    ],
    ids=["version-1", "version-2", "version-3", "no-meta", "float-meta", "object-meta", "1d-meta",
         "no-embeddings", "float32-embeddings", "narrow-embeddings", "1d-embeddings", "short-embeddings",
         "fortran-embeddings", "inf-embedding", "float32-overflowing-embedding",
         "no-params", "params-one-short", "params-one-long", "float64-params", "2d-params",
         "index-name", "index-order", "index-shape", "index-extra-entry", "index-missing-entry",
         "nan-parameter", "inf-parameter"],
)
def test_eval_malformed_checkpoint_arrays_exit_4(workspace, capsys, edit, message):
    _eval_exits_4(workspace, capsys, _rewrite_arrays, edit, message)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s.update(hidden_dim=3000), "but the spec gives ['encoder.target_fwd.w_i', [3000, 3005]]"),
        (lambda s: s.update(hidden_dim=10**6), "but the spec gives ['encoder.target_fwd.w_i', [1000000, 1000005]]"),
        (lambda s: s.update(hidden_dim=10**12), "has shapes numpy cannot hold (array is too big;"),
        (lambda s: s.update(attn_dim=10**19), "has shapes numpy cannot hold (Maximum allowed dimension exceeded)"),
        (lambda s: s.update(variant="BCAInvar", num_domains=10**5),
         "spec has 100000 domain heads, but the index names 36 parameters"),
        (lambda s: s.update(hidden_dim=2.5), "invalid model spec in checkpoint metadata (hidden_dim must be an integer)"),
        (lambda s: s.update(num_domains=True), "(num_domains must be an integer)"),
    ],
    ids=["hidden-3000", "hidden-1e6", "hidden-1e12", "attn-1e19", "domains-1e5", "float-dim", "bool-domains"],
)
def test_eval_huge_or_odd_checkpoint_spec_exits_4_without_allocating(workspace, capsys, monkeypatch, edit, message):
    # the spec's shapes are checked against the stored index before anything
    # they size is allocated: the load's traced peak (the zip directory, the
    # metadata string and its JSON, the two arrays) stays within a few times
    # the 10 KB file, where hidden_dim 3000 alone would need 577 MB
    out_dir, config = _trained(workspace)
    checkpoint = out_dir / "model_seed0.npz"
    _rewrite_meta(checkpoint, lambda meta: edit(meta["spec"]))
    growth = []

    def traced_load(*args, **kwargs):
        tracemalloc.start()
        try:
            return load_checkpoint(*args, **kwargs)
        finally:
            growth.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cli, "load_checkpoint", traced_load)
    capsys.readouterr()
    code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])
    assert code == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and message in err
    assert "Traceback" not in err
    assert len(growth) == 1 and growth[0] < 8 * checkpoint.stat().st_size


def _write_with_params(path, compression, shape, chunks):
    """Rewrite the checkpoint at path with a __params__ member whose header
    claims `shape` and whose data are `chunks`, in a zip of `compression`."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files if name != PARAMS_ARRAY}
    with zipfile.ZipFile(path, "w", compression) as archive:
        for name, arr in arrays.items():
            with archive.open(name + ".npy", "w") as out:
                np.lib.format.write_array(out, arr)
        with archive.open(PARAMS_ARRAY + ".npy", "w", force_zip64=True) as out:
            np.lib.format.write_array_header_1_0(out, {"descr": "<f4", "fortran_order": False, "shape": shape})
            for chunk in chunks:
                out.write(chunk)


@pytest.mark.parametrize(
    "compression, shape, chunks, message",
    [
        (zipfile.ZIP_DEFLATED, (25_000_000,), [bytes(10**6)] * 100,
         "__params__ has shape (25000000,), but the index needs (511,)"),
        (zipfile.ZIP_STORED, (25_000_000,), [bytes(8)],
         "__params__ has shape (25000000,), but the index needs (511,)"),
        (zipfile.ZIP_STORED, (511,), [bytes(8)], "__params__ holds 8 bytes of data, but its header gives 2044"),
    ],
    ids=["deflated-25M-params", "header-claims-25M-params", "header-claims-more-than-the-data"],
)
def test_eval_checks_a_members_header_before_reading_its_data(workspace, capsys, compression, shape, chunks, message):
    # numpy's reader allocates what a header claims before it reads the
    # data, and a deflated member of 100 MB of zeros takes 99 KB on disk:
    # the header is checked against the metadata and the member's size first
    out_dir, config = _trained(workspace)
    checkpoint = out_dir / "model_seed0.npz"
    _write_with_params(checkpoint, compression, shape, chunks)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CHECKPOINT
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error: ") and message in err
    assert "Traceback" not in err
    assert peak < 5 * 2**20


@pytest.fixture(scope="module")
def trained_arrays(tmp_path_factory):
    """One small trained BCA checkpoint's arrays and the config to eval it."""
    root = tmp_path_factory.mktemp("meta_fuzz")
    data_dir = root / "data"
    data_dir.mkdir()
    write_dataset(data_dir)
    config = write_config(root / "run.cfg", data_dir, root / "run")
    assert main(["train", "--config", str(config)]) == EXIT_OK
    with np.load(root / "run" / "model_seed0.npz", allow_pickle=False) as archive:
        return config, {name: archive[name] for name in archive.files}


SPEC_DIMS = ("embed_dim", "hidden_dim", "attn_dim", "num_domains", "num_stance_classes")
meta_edits = st.lists(
    st.one_of(
        st.tuples(
            st.just("spec"),
            st.sampled_from(SPEC_DIMS),
            st.one_of(st.integers(-2, 10**7), st.sampled_from([10**7, 2.5, True, None, "3", [3]])),
        ),
        st.tuples(st.just("spec"), st.just("variant"), st.sampled_from(VARIANTS + ("Nope", 3))),
        st.tuples(
            st.just("index"),
            st.integers(0, 40),
            st.sampled_from(["drop", "swap", "rename", "transpose", "grow", "scalar", "unpaired"]),
        ),
        st.tuples(st.just("meta"), st.just("precision"), st.sampled_from(["float32", "float64", "float16", 32])),
        st.tuples(st.just("meta"), st.just("version"), st.sampled_from([1, 2, 3, 4, 4.0, "4", None])),
        st.tuples(st.just("meta"), st.just("index"), st.sampled_from([[], {}, None, "index", [[]]])),
        st.tuples(
            st.just("vocab"),
            st.integers(0, 30),
            st.sampled_from(["drop", "swap", "repeat", "rename", "number", "null", "append"]),
        ),
        st.tuples(
            st.just("meta"),
            st.just("vocab"),
            st.sampled_from([{}, None, "<pad>", [], ["<pad>", "<unk>"], ["<unk>", "<pad>"], [0, 1]]),
        ),
    ),
    max_size=4,
)


def _edit_vocab_entry(vocab, i, how):
    """Mutate one token: dropped or appended (a length the embedding matrix
    disagrees with), swapped with its neighbour (so <pad> or <unk> can move),
    repeated, renamed, or replaced by a non-string."""
    if not vocab:
        return
    i %= len(vocab)
    if how == "drop":
        del vocab[i]
    elif how == "swap":
        vocab[i - 1], vocab[i] = vocab[i], vocab[i - 1]
    elif how == "repeat":
        vocab[i] = vocab[i - 1]
    elif how == "rename":
        vocab[i] = f"{vocab[i]}x"
    elif how == "number":
        vocab[i] = i
    elif how == "null":
        vocab[i] = None
    else:
        vocab.append(f"new{i}")


def _edit_index_entry(index, i, how):
    if not index or not all(isinstance(entry, list) and len(entry) == 2 for entry in index):
        return  # already replaced by a malformed index
    i %= len(index)
    if how == "drop":
        del index[i]
    elif how == "swap":
        index[i - 1], index[i] = index[i], index[i - 1]
    elif how == "rename":
        index[i] = [index[i][0] + "x", index[i][1]]
    elif how == "transpose":
        index[i] = [index[i][0], index[i][1][::-1]]
    elif how == "grow":
        index[i] = [index[i][0], [d + 1 for d in index[i][1]]]
    elif how == "scalar":
        index[i] = [index[i][0], []]
    else:
        index[i] = index[i][0]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=meta_edits)
def test_eval_with_mutated_checkpoint_metadata_exits_0_or_4(trained_arrays, tmp_path, capsys, edits):
    # every spec dimension stays at most 1e7 and the vocabulary grows by at
    # most four tokens, so each mutated file is small and a model it claims
    # is only placeholders or a refusal
    config, arrays = trained_arrays
    meta = json.loads(str(arrays["__meta__"]))
    for kind, *edit in edits:
        if kind == "spec":
            meta["spec"][edit[0]] = copy.deepcopy(edit[1])
        elif kind == "meta":
            meta[edit[0]] = copy.deepcopy(edit[1])
        elif isinstance(meta.get(kind), list):
            (_edit_index_entry if kind == "index" else _edit_vocab_entry)(meta[kind], *edit)
    checkpoint = tmp_path / "mutated.npz"
    np.savez(checkpoint, **{**arrays, "__meta__": np.array(json.dumps(meta))})
    capsys.readouterr()
    code = main(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CHECKPOINT), err
    assert "Traceback" not in err
    assert code == EXIT_OK or err.startswith("checkpoint error: ")


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
    kept = tmp_path / "kept_vocab.tsv"
    kept.write_bytes(b"<pad>\t0\n<unk>\t1\n" + NOT_UTF8)
    return _eval(write_config(tmp_path / "vp.cfg", data_dir, out_dir, vocab_path=kept), out_dir), kept


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


@pytest.mark.parametrize("where", ["--config", "train_path", "--dataset"])
def test_a_path_name_too_long_for_the_os_is_not_found(workspace, capsys, where):
    # os.stat refuses the name (ENAMETOOLONG) rather than finding no file
    tmp_path, data_dir, out_dir, config = workspace
    long_name = "9" * 4301
    if where == "--config":
        argv, message = ["train", "--config", long_name], f"config file not found: {long_name}"
    elif where == "train_path":
        config = write_config(tmp_path / "long.cfg", data_dir, out_dir, train_path=long_name)
        argv, message = ["train", "--config", str(config)], f"train path not found: {long_name}"
    else:
        assert main(["train", "--config", str(config)]) == EXIT_OK
        argv, message = _eval(config, out_dir, "--dataset", long_name), f"dataset path not found: {long_name}"
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


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


@pytest.mark.parametrize(
    "key,flag,code,message",
    [
        ("seeds", "--seeds", EXIT_CONFIG, "config error: at least one seed is required\n"),
        ("variant", "--variant", EXIT_CONFIG, "config error: unknown variant ''; choose from"),
        # an empty out_dir is the working directory
        ("out_dir", "--out-dir", EXIT_OK, ""),
    ],
    ids=["seeds", "variant", "out-dir"],
)
def test_an_empty_flag_value_is_parsed_as_the_empty_file_value(workspace, capsys, monkeypatch, key, flag, code, message):
    tmp_path, data_dir, out_dir, config = workspace
    empty_in_file = tmp_path / "empty.cfg"
    values = {**parse_config_file(config), key: ""}
    empty_in_file.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    results = []
    for where, argv in (("file", ["--config", str(empty_in_file)]), ("flag", ["--config", str(config), flag, ""])):
        cwd = tmp_path / where
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert main(["train", *argv]) == code
        out, err = capsys.readouterr()
        assert err.startswith(message) and "Traceback" not in err
        results.append((out, err, sorted(p.name for p in cwd.iterdir())))
    assert results[0] == results[1]
    assert not out_dir.exists()
    if code == EXIT_OK:
        assert "summary.txt" in results[0][2]


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


def test_checkpoint_commands_read_only_the_checkpoint(workspace, capsys, monkeypatch):
    # the vocabulary is stored in the checkpoint: without vocab_path no
    # vocabulary file is opened, and deleting the one train saved changes
    # no output
    out_dir, config = _trained(workspace)
    before = _checkpoint_outputs(config, out_dir, capsys)
    (out_dir / "vocab.tsv").unlink()

    def refuse(path):
        raise AssertionError(f"read a vocabulary file: {path}")

    monkeypatch.setattr(cli.Vocabulary, "load", refuse)
    assert _checkpoint_outputs(config, out_dir, capsys) == before


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
def test_failed_write_keeps_the_previous_artifact(workspace, capsys, monkeypatch, artifact):
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
    capsys.readouterr()
    assert main(command) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{out_dir / artifact}: cannot write (simulated full disk)" in err and "Traceback" not in err
    after = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert after == before


def _blocker(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    return blocker


def _unwritable_exits_2(capsys, argv, artifact, reason, blocker):
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {artifact}: cannot write ({reason})\n"
    assert blocker.read_text() == "a regular file\n"
    assert sorted(p.name for p in blocker.parent.iterdir() if p.name.startswith(".")) == []


def test_train_out_dir_that_is_a_file_exits_2(workspace, capsys):
    tmp_path, _, _, config = workspace
    blocker = _blocker(tmp_path)
    argv = ["train", "--config", str(config), "--out-dir", str(blocker)]
    _unwritable_exits_2(capsys, argv, blocker / "vocab.tsv", "File exists", blocker)


def test_train_out_dir_under_a_file_exits_2(workspace, capsys):
    tmp_path, _, _, config = workspace
    blocker = _blocker(tmp_path)
    argv = ["train", "--config", str(config), "--out-dir", str(blocker / "sub")]
    _unwritable_exits_2(capsys, argv, blocker / "sub" / "vocab.tsv", "Not a directory", blocker)


def test_dump_attention_out_under_a_file_exits_2(workspace, capsys):
    out_dir, config = _trained(workspace)
    blocker = _blocker(out_dir.parent)
    argv = ["dump-attention", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"),
            "--out", str(blocker / "a.jsonl")]
    _unwritable_exits_2(capsys, argv, blocker / "a.jsonl", "File exists", blocker)


@pytest.mark.parametrize("out", [".", "/"], ids=["dot", "root"])
def test_dump_attention_out_that_names_no_file_exits_2(workspace, capsys, out):
    out_dir, config = _trained(workspace)
    capsys.readouterr()
    code = main(["dump-attention", "--config", str(config), "--checkpoint", str(out_dir / "model_seed0.npz"),
                 "--out", out])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: cannot write {out!r}: not a file path\n"


def test_train_out_dir_with_a_nul_byte_exits_2(workspace, capsys):
    # a config file can hold a NUL byte, which no path may
    tmp_path, data_dir, _, _ = workspace
    config = write_config(tmp_path / "nul.cfg", data_dir, "run\0x")
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: cannot write 'run\\x00x/vocab.tsv': not a file path\n"


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


# ------------------------------------------------ config text and argv fuzz

# Values for any config key or flag. Junk holds no decimal digit, so every
# number comes from the small ones listed: dimensions, epochs and seeds stay
# small, no case lists two seeds (so --parallel-seeds starts no process), and
# an over-long number is longer than int's digit limit. Junk holds no path
# separator either, and the listed paths go at most one level up, so every
# output stays in pytest's temporary directory.
FUZZ_JUNK = st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/\\"), max_size=8
)
FUZZ_VALUES = st.one_of(
    FUZZ_JUNK,
    st.just(""),
    st.sampled_from(["nan", "-inf", "inf", "Infinity", "1e999", "-1e400"]),
    st.integers(4301, 4400).map(lambda digits: "9" * digits),
    st.sampled_from(["３", "٢", "é", "∞", "１e3", "Ⅷ", "²"]),
    st.integers(-1, 3).map(str),
    st.sampled_from(["0.5", "-0.1", "1e-3", " 2 ", "+1", "1_0", "0x1", "1e30"]),
    st.sampled_from(["blocker", "blocker/sub", "blocker/a.jsonl", "data", ".", ".."]),
)
# Values that each key or flag accepts, so that cases also get past parsing.
FUZZ_VALID = {
    **dict.fromkeys(("train_path", "dev_path", "test_path", "--dataset"), ["data/train.tsv", "data/test.tsv"]),
    "embeddings_path": ["emb.txt"],
    "vocab_path": ["ckpt/vocab.tsv"],
    **dict.fromkeys(("out_dir", "--out-dir"), ["run", "run2"]),
    **dict.fromkeys(("--out", "--html"), ["att/a.jsonl", "att.html"]),
    **dict.fromkeys(("variant", "--variant"), list(VARIANTS)),
    **dict.fromkeys(("seeds", "seed", "--seeds", "--seed"), ["0", "1", " 2 "]),
    **dict.fromkeys(("count_check", "parallel_seeds"), ["true", "false", "Yes", "0"]),
    **dict.fromkeys(("embed_dim", "hidden_dim", "attn_dim"), ["1", "2", "3"]),
    "dropout": ["0", "0.5"],
    "batch_size": ["1", "3", "64"],
    **dict.fromkeys(("learning_rate", "l2"), ["0.1", "1e30"]),
    "patience": ["1", "2"],
    **dict.fromkeys(("lambda", "--lambda"), ["0", "5"]),
    "max_epochs": ["1", "2"],
    "min_count": ["0", "2", "100"],
    "--config": ["run.cfg"],
    "--checkpoint": ["ckpt/model_seed0.npz"],
    "--split": ["train", "dev", "test"],
    **dict.fromkeys(("--text", "--target"), ["love it", TEST_TARGET]),
}


def _fuzz_value(key):
    return st.one_of(FUZZ_VALUES, st.sampled_from(FUZZ_VALID.get(key, [""])))


FUZZ_CONFIG = {
    "train_path": "data/train.tsv",
    "dev_path": "data/dev.tsv",
    "test_path": "data/test.tsv",
    "out_dir": "run",
    "variant": "BCAInvar",
    "embed_dim": "3",
    "hidden_dim": "2",
    "attn_dim": "2",
    "dropout": "0.1",
    "batch_size": "4",
    "max_epochs": "1",
    "patience": "1",
    "count_check": "false",
    "seeds": "0",
}


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A working directory with a tiny corpus, embeddings for a few of its
    tokens, a config that trains on it in one short epoch, that run's
    checkpoint, and a regular file to write under."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "data").mkdir()
    write_dataset(root / "data", per_class=1)
    (root / "emb.txt").write_text("love 0.1 0.2 0.3\nhate 0.3 -0.2 0.1\n", encoding="utf-8")
    (root / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in FUZZ_CONFIG.items()), encoding="utf-8")
    (root / "blocker").write_text("a regular file\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(["train", "--config", "run.cfg", "--out-dir", "ckpt"]) == EXIT_OK
    return root


@pytest.fixture
def in_fuzz_root(fuzz_root, monkeypatch):
    monkeypatch.chdir(fuzz_root)
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    return fuzz_root


def _exit_code(argv, capsys):
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 after --help
        code = exc.code
    return code, capsys.readouterr().err


def _assert_documented_exit(code, err):
    assert code in range(6), err
    assert "Traceback" not in err
    assert code == EXIT_OK or err.strip(), "a failure without a message"


# a key from the table or an unknown one, and its text: None drops the key,
# and bytes are not UTF-8
fuzz_edit = st.sampled_from([*sorted(CONFIG_KEYS), "mystery", "Seeds", "embed-dim", None]).flatmap(
    lambda key: st.tuples(
        FUZZ_JUNK if key is None else st.just(key),
        st.one_of(st.none(), _fuzz_value(key), st.sampled_from([b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"])),
    )
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(fuzz_edit, max_size=4), bom=st.booleans())
def test_any_config_text_ends_in_a_documented_exit_code(in_fuzz_root, capsys, edits, bom):
    values = dict(FUZZ_CONFIG)
    for key, value in edits:
        if value is None:
            values.pop(key, None)
        else:
            values[key] = value
    data = b"".join(
        k.encode("utf-8") + b"=" + (v if isinstance(v, bytes) else v.encode("utf-8")) + b"\n" for k, v in values.items()
    )
    (in_fuzz_root / "fuzz.cfg").write_bytes(b"\xef\xbb\xbf" + data if bom else data)
    _assert_documented_exit(*_exit_code(["train", "--config", "fuzz.cfg"], capsys))


FUZZ_BASE_ARGV = {
    "train": ["--config", "run.cfg"],
    "eval": ["--config", "run.cfg", "--checkpoint", "ckpt/model_seed0.npz"],
    "predict": ["--config", "run.cfg", "--checkpoint", "ckpt/model_seed0.npz", "--text", "love it", "--target", TEST_TARGET],
    "dump-attention": ["--config", "run.cfg", "--checkpoint", "ckpt/model_seed0.npz"],
    "gradcheck": [],
}


def _flag_strategy(command):
    """One flag of the command's own parser, with a value if it takes one,
    or a flag it does not know."""
    choices = [st.just(["--bogus"])]
    for action in _subparsers()[command]._actions:
        if action.nargs == 0:
            choices.append(st.sampled_from(action.option_strings).map(lambda flag: [flag]))
        else:
            name = action.option_strings[-1]
            # argv cannot hold a NUL byte
            value = _fuzz_value(name).filter(lambda v: "\0" not in v)
            choices.append(st.tuples(st.just(name), value).map(list))
    return st.one_of(choices)


@pytest.mark.parametrize("command", sorted(FUZZ_BASE_ARGV))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_ends_in_a_documented_exit_code(in_fuzz_root, capsys, command, data):
    # gradcheck takes no flag: with one, it stops in argparse instead of
    # running its checks
    flags = data.draw(st.lists(_flag_strategy(command), min_size=command == "gradcheck", max_size=4))
    argv = [command, *FUZZ_BASE_ARGV[command], *[part for flag in flags for part in flag]]
    _assert_documented_exit(*_exit_code(argv, capsys))
