"""tools/bitcheck.py --compare on hand-made run directories, and its
--blas-threads setting (no training)."""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitcheck.py"
spec = importlib.util.spec_from_file_location("bitcheck", TOOL)
bitcheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bitcheck)


def _fake_run(root, weights):
    run = root / "runs" / "BCA" / "serial"
    run.mkdir(parents=True)
    np.savez(
        run / "model_seed0.npz",
        __meta__=np.array(json.dumps({"version": 1, "precision": "float32"})),
        w=weights,
        b=np.zeros(3, dtype=np.float32),
    )
    (run / "summary.txt").write_text("seed 0: best epoch 1\n", encoding="utf-8")
    entries = {**bitcheck.file_entries(root / "runs"), "cmd:gradcheck:exit": "0"}
    (root / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")
    return root


def test_compare_reports_a_one_ulp_change_in_one_array(tmp_path, capsys):
    weights = np.random.default_rng(0).uniform(-1, 1, (3, 4)).astype(np.float32)
    nudged = weights.copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2], np.float32(np.inf))
    a = _fake_run(tmp_path / "a", weights)
    same = _fake_run(tmp_path / "same", weights.copy())
    b = _fake_run(tmp_path / "b", nudged)

    assert bitcheck.main(["--compare", str(a), str(same)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("0 of ")

    assert bitcheck.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    differing = [line for line in out.splitlines() if line and not line.startswith(" ")]
    assert differing == [
        "array:BCA/serial/model_seed0.npz:w",
        "file:BCA/serial/model_seed0.npz",
        "2 of 6 entries differ",
    ]


def test_compare_reports_entries_only_one_side_has(tmp_path, capsys):
    a = _fake_run(tmp_path / "a", np.ones((2, 2), dtype=np.float32))
    b = _fake_run(tmp_path / "b", np.ones((2, 2), dtype=np.float32))
    (b / "runs" / "extra.txt").write_text("x", encoding="utf-8")
    entries = {**bitcheck.file_entries(b / "runs"), "cmd:gradcheck:exit": "0"}
    (b / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")
    assert bitcheck.main(["--compare", str(a), str(b)]) == 1
    assert "file:extra.txt\n  A: <absent>\n  B: '" in capsys.readouterr().out


def test_normalise_hides_the_output_directory_and_elapsed_seconds(tmp_path):
    text = f"wrote 3 attention records to {tmp_path}/a.jsonl\ngradcheck passed: 16 components (2.5s)\n"
    assert bitcheck.normalise(text, tmp_path) == (
        "wrote 3 attention records to <out>/a.jsonl\ngradcheck passed: 16 components (<seconds>s)\n"
    )


def test_paper_size_script_text_is_fixed():
    # its manifest entry is only comparable with older trees' while the
    # script stays the same; a new case gets a new script and entry
    digest = hashlib.sha256(bitcheck.PAPER_SIZE.encode()).hexdigest()
    assert digest == "c34e712dc8dd399055d84d72dd0ac5fb396bd1004f33aefb187c44e071ff8cf3"


def test_blas_threads_sets_every_thread_variable(tmp_path):
    env = bitcheck.Runner(tmp_path, tmp_path, blas_threads=2).env
    assert [env[var] for var in bitcheck.THREAD_VARS] == ["2", "2", "2"]
    assert [bitcheck.Runner(tmp_path, tmp_path).env[var] for var in bitcheck.THREAD_VARS] == ["1", "1", "1"]


def test_blas_threads_below_one_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        bitcheck.main(["--out", str(tmp_path / "out"), "--blas-threads", "0"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
