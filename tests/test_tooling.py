"""The benchmark run as a user would run it: its self-test, one round of each
workload with every output check, and a traced round of the tuned-embeddings
workload.  The output-digest script run twice, and run as a script on a new
directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("workload", ["cv_paper", "preprocess_dense", "tune_predict"])
def test_perfbench_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]


def test_perfbench_traced_run_of_tuned_embeddings():
    """A traced run counts every optimizer step's gradients, the row-sparse word
    gradient among them, times the model's passes, still checks every output
    and dumps its spans, which the test removes."""
    spans = ROOT / ".perfbench_work" / "spans-tune_predict-seed1.tsv"
    spans.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune_predict", "--seed", "1",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
    metrics = result["metrics"]
    assert metrics["optim.adam_step_calls"]["value"] > 0
    assert metrics["optim.tensors_per_step"]["value"] == 2  # the model and the word vectors
    assert metrics["neural.calls"]["value"] > 0 and metrics["neural.busy_s"]["value"] > 0
    assert spans.stat().st_size > 0
    spans.unlink()


def test_a_failing_property_reports_its_example(tmp_path):
    """Under the repository's warning filters, a failing Hypothesis test ends
    with its falsifying example, not with an INTERNALERROR from the modules that
    Hypothesis imports to explain it."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_property(n):\n"
        "    assert n < 5\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output[-3000:]
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output[-3000:]


def test_output_digests_repeat_in_one_process(tmp_path):
    """Same seed, same bytes: two runs of ``tests/output_digests.py`` in one
    process, the second with the vectors and autoencoder memos warm, print the
    same digest of every output."""
    import output_digests

    first = output_digests.digests(tmp_path)
    assert len(first) == 78 and len({line.split()[0] for line in first}) == 78
    assert output_digests.digests(tmp_path) == first


def test_output_digests_script_makes_its_workdir(tmp_path):
    """Run as its docstring says, the script creates a WORKDIR that does not
    exist yet, parents included, and prints one line per output."""
    workdir = tmp_path / "new" / "work"
    proc = subprocess.run(
        [sys.executable, "tests/output_digests.py", str(workdir)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert len(proc.stdout.splitlines()) == 78
    assert (workdir / "corpus.tsv").is_file()
