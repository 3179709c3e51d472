import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdprel import embed as embed_mod
from sdprel.checkpoint import load_checkpoint
from sdprel.cli import main
from sdprel.errors import NonFiniteLoss
from sdprel.pipeline import instances_from_json

from helpers import synthetic_corpus, write_lines

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG_TEXT = """\
model=bilstm
lstm_units=6
mlp_hidden=4
dropout=0.0
epochs=6
batch=8
seed=11
embedding_dim=8
ae_epochs=120
k_folds=2
"""


@pytest.fixture
def workdir(tmp_path):
    corpus_lines, dep_lines, _ = synthetic_corpus(16, seed=4)
    write_lines(tmp_path / "corpus.tsv", corpus_lines)
    write_lines(tmp_path / "deps.tsv", dep_lines)
    (tmp_path / "config").write_text(CONFIG_TEXT, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestPreprocessCommand:
    def test_writes_instances_file(self, workdir, capsys):
        rc = run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        assert rc == 0
        doc = json.loads((workdir / "inst.json").read_text())
        assert doc["format"] == "sdprel-instances"
        assert doc["stats"]["generated"] == 16
        out = capsys.readouterr().out
        assert "generated: 16" in out

    def test_missing_corpus_is_exit_2(self, workdir, capsys):
        rc = run(
            "preprocess",
            "--corpus", workdir / "nope.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_window_flag(self, workdir):
        rc = run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
            "--window", "6",
        )
        assert rc == 0
        text = (workdir / "inst.json").read_text()
        assert json.loads(text)["position_window"] == 6
        result = instances_from_json(text)
        assert all(i.pos1_codes.shape[1] == i.pos2_codes.shape[1] == 6 for i in result.instances)


class TestTrainEvaluatePredict:
    def test_full_cycle(self, workdir, capsys):
        rc = run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        assert rc == 0
        rc = run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "config",
            "--out", workdir / "model.sdpl",
            "--losses", workdir / "losses.csv",
        )
        assert rc == 0
        losses = (workdir / "losses.csv").read_text().strip().split("\n")
        assert losses[0] == "epoch,loss"
        assert len(losses) == 1 + 6
        capsys.readouterr()

        rc = run(
            "evaluate",
            "--ck", workdir / "model.sdpl",
            "--instances", workdir / "inst.json",
            "--report", "csv",
        )
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "fold,tp,fp,fn,tn,precision,recall,f1"
        assert out[1].startswith("all,")

        rc = run(
            "evaluate",
            "--ck", workdir / "model.sdpl",
            "--instances", workdir / "inst.json",
            "--report", "json",
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"tp", "fp", "fn", "tn", "precision", "recall", "f1"}
        assert report["tp"] + report["fp"] + report["fn"] + report["tn"] == 16

        rc = run(
            "predict",
            "--ck", workdir / "model.sdpl",
            "--instances", workdir / "inst.json",
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "instance_id,predicted_label,prob_positive"
        assert len(lines) == 1 + 16

    def test_tune_embeddings_flag(self, workdir, capsys):
        run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        rc = run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "config",
            "--out", workdir / "model.sdpl",
            "--tune-embeddings",
        )
        assert rc == 0
        capsys.readouterr()
        from sdprel.checkpoint import load_checkpoint

        ck = load_checkpoint(workdir / "model.sdpl")
        assert ck.config.tune_embeddings is True
        # tuned vocabulary is persisted alongside the placeholder vectors
        assert len(ck.token_vectors) > 3

    def test_unknown_config_key_is_exit_2(self, workdir, capsys):
        (workdir / "badconfig").write_text("frobnicate=1\n", encoding="utf-8")
        run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        rc = run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "badconfig",
            "--out", workdir / "model.sdpl",
        )
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_exit_2(self, workdir, capsys, rate):
        (workdir / "badconfig").write_text(CONFIG_TEXT + f"learning_rate={rate}\n",
                                           encoding="utf-8")
        run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        rc = run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "badconfig",
            "--out", workdir / "model.sdpl",
        )
        assert rc == 2
        assert "learning_rate must be finite and positive" in capsys.readouterr().err
        assert not (workdir / "model.sdpl").exists()

    @pytest.mark.parametrize("flags, key, made, wanted", [
        (("--window", "8"), "position_window", "8", "10"),
        (("--no-pos",), "use_pos", "False", "True"),
    ])
    def test_instances_config_mismatch_is_exit_2(self, workdir, capsys, flags, key, made, wanted):
        run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
            *flags,
        )
        capsys.readouterr()
        rc = run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "config",
            "--out", workdir / "model.sdpl",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{key}={made}" in err and f"{key}={wanted}" in err
        assert not (workdir / "model.sdpl").exists()

    def test_checkpoint_instances_mismatch_is_exit_2(self, workdir, capsys):
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        run("preprocess", *common, "--out", workdir / "inst.json")
        run("preprocess", *common, "--out", workdir / "inst6.json", "--window", "6")
        run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "config",
            "--out", workdir / "model.sdpl",
        )
        capsys.readouterr()
        for command in (("evaluate", "--report", "csv"), ("predict",)):
            rc = run(
                command[0], "--ck", workdir / "model.sdpl",
                "--instances", workdir / "inst6.json", *command[1:],
            )
            assert rc == 2
            err = capsys.readouterr().err
            assert "position_window=6" in err and "position_window=10" in err

    def test_train_stores_the_files_pos_table(self, workdir, capsys):
        from sdprel.checkpoint import load_checkpoint

        (workdir / "pos.tsv").write_text("NN\t3\nVBZ\t1\n", encoding="utf-8")
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        run("preprocess", *common, "--out", workdir / "inst.json", "--pos-table", workdir / "pos.tsv")
        assert run("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
                   "--out", workdir / "model.sdpl") == 0
        assert load_checkpoint(workdir / "model.sdpl").pos_table == {"NN": 3, "VBZ": 1}
        assert run("evaluate", "--ck", workdir / "model.sdpl",
                   "--instances", workdir / "inst.json") == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", [("evaluate", "--report", "csv"), ("predict",)])
    def test_pos_table_mismatch_is_exit_2(self, workdir, capsys, command):
        (workdir / "pos.tsv").write_text("NN\t3\nVBZ\t1\n", encoding="utf-8")
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        run("preprocess", *common, "--out", workdir / "inst.json")
        run("preprocess", *common, "--out", workdir / "other.json", "--pos-table", workdir / "pos.tsv")
        run("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
            "--out", workdir / "model.sdpl")
        capsys.readouterr()
        rc = run(command[0], "--ck", workdir / "model.sdpl",
                 "--instances", workdir / "other.json", *command[1:])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "other.json was made with another PoS table than the checkpoint's" in captured.err

    def test_classes_that_disagree_with_the_files_pos_table_are_exit_2(self, workdir, capsys):
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        run("preprocess", *common, "--out", workdir / "inst.json")
        run("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
            "--out", workdir / "model.sdpl")
        doc = json.loads((workdir / "inst.json").read_text())
        columns = doc["instances"]
        columns["pos_classes"] = [[(c + 1) % 8 for c in row] for row in columns["pos_classes"]]
        (workdir / "shifted.json").write_text(json.dumps(doc), encoding="utf-8")
        first, tag = columns["instance_id"][0], columns["pos_tags"][0][0]
        stored = columns["pos_classes"][0][0]
        message = (f"instance {first!r}: tag {tag!r} has PoS class {stored}, "
                   f"but the file's pos_table gives {doc['pos_table'][tag]}")
        capsys.readouterr()
        for argv in (("train", "--config", workdir / "config", "--out", workdir / "m2.sdpl"),
                     ("evaluate", "--ck", workdir / "model.sdpl"),
                     ("predict", "--ck", workdir / "model.sdpl")):
            assert run(*argv, "--instances", workdir / "shifted.json") == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
        assert not (workdir / "m2.sdpl").exists()

    def test_numeric_failure_is_exit_3(self, workdir, monkeypatch, capsys):
        run(
            "preprocess",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
        )
        import sdprel.cli as cli_mod

        def explode(*args, **kwargs):
            raise NonFiniteLoss("training loss became non-finite: nan")

        monkeypatch.setattr(cli_mod, "train", explode)
        rc = run(
            "train",
            "--instances", workdir / "inst.json",
            "--config", workdir / "config",
            "--out", workdir / "model.sdpl",
        )
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err


class TestNegativeSeed:
    """A negative seed is a config error (exit 2), not a traceback from the RNG."""

    def write_config(self, workdir):
        (workdir / "badconfig").write_text(CONFIG_TEXT.replace("seed=11", "seed=-1"),
                                           encoding="utf-8")
        return workdir / "badconfig"

    def test_train(self, workdir, capsys):
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        run("preprocess", *common, "--out", workdir / "inst.json")
        capsys.readouterr()
        rc = run("train", "--instances", workdir / "inst.json",
                 "--config", self.write_config(workdir), "--out", workdir / "model.sdpl")
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (workdir / "model.sdpl").exists()

    def test_cv(self, workdir, capsys):
        rc = run("cv", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                 "--config", workdir / "config", "--seed", "-1", "--report", workdir / "r.csv")
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (workdir / "r.csv").exists()

    def test_sweep(self, workdir, capsys):
        rc = run("sweep", "--param", "epochs", "--values", "2",
                 "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                 "--config", self.write_config(workdir), "--report", workdir / "sweep.csv")
        assert rc == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (workdir / "sweep.csv").exists()


class TestRepeatedConfigKey:
    """A key set twice is a config error (exit 2), not a silent last-one-wins."""

    def write_config(self, workdir):
        text = CONFIG_TEXT.replace("epochs=6\n", "epochs=1\n") + "# later\nepochs=3\n"
        (workdir / "twice").write_text(text, encoding="utf-8")
        line = CONFIG_TEXT.splitlines().index("epochs=6") + 1
        return workdir / "twice", f"'epochs' is set twice, on lines {line} and 12"

    @pytest.mark.parametrize("command", ["train", "cv", "sweep"])
    def test_exit_2(self, workdir, capsys, command):
        config, message = self.write_config(workdir)
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        if command == "train":
            run("preprocess", *common, "--out", workdir / "inst.json")
            capsys.readouterr()
            argv = ("train", "--instances", workdir / "inst.json", "--out", workdir / "out")
        elif command == "cv":
            argv = ("cv", *common, "--report", workdir / "out")
        else:
            argv = ("sweep", "--param", "mlp_hidden", "--values", "2", *common,
                    "--report", workdir / "out")
        assert run(*argv, "--config", config) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
        assert not (workdir / "out").exists()


def write_vectors(path, dim, shift=0.0):
    rows = [f"{word} " + " ".join(f"{(i + k) / 10 + shift}" for k in range(dim))
            for i, word in enumerate(("GeneA0", "interacts", "with"))]
    path.write_text(f"{len(rows)} {dim}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestEmbeddingDimension:
    """A vectors file whose dimension is not the config's embedding_dim (8)
    exits 2 with a message naming both."""

    @pytest.fixture
    def vectors(self, workdir):
        (workdir / "vconfig").write_text(
            CONFIG_TEXT + f"embedding_path={workdir / 'vectors.txt'}\n", encoding="utf-8")
        run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json")
        return workdir / "vectors.txt"

    def assert_mismatch(self, capsys, rc, vectors):
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{vectors} holds 6-d vectors" in err and "embedding_dim=8" in err

    def train(self, workdir):
        return run("train", "--instances", workdir / "inst.json", "--config", workdir / "vconfig",
                   "--out", workdir / "model.sdpl")

    def test_train(self, workdir, vectors, capsys):
        write_vectors(vectors, 6)
        self.assert_mismatch(capsys, self.train(workdir), vectors)
        assert not (workdir / "model.sdpl").exists()

    def test_cv(self, workdir, vectors, capsys):
        write_vectors(vectors, 6)
        rc = run("cv", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                 "--config", workdir / "vconfig", "--report", workdir / "cv.csv")
        self.assert_mismatch(capsys, rc, vectors)
        assert not (workdir / "cv.csv").exists()

    def test_predict_after_the_file_changed(self, workdir, vectors, capsys):
        write_vectors(vectors, 8)
        assert self.train(workdir) == 0
        capsys.readouterr()
        write_vectors(vectors, 6)
        rc = run("predict", "--ck", workdir / "model.sdpl", "--instances", workdir / "inst.json")
        self.assert_mismatch(capsys, rc, vectors)


class TestVectorsFile:
    """A checkpoint remembers the digest of its vectors file, and the vectors
    cache never shows in what the commands print."""

    @pytest.fixture
    def vectors(self, workdir):
        (workdir / "vconfig").write_text(
            CONFIG_TEXT + f"embedding_path={workdir / 'vectors.txt'}\n", encoding="utf-8")
        run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json")
        return write_vectors(workdir / "vectors.txt", 8)

    def train_and_predict(self, workdir, capsys):
        """(exit codes, stdout) of train, then predict, on the vectors file."""
        codes = [
            run("train", "--instances", workdir / "inst.json", "--config", workdir / "vconfig",
                "--out", workdir / "model.sdpl"),
            run("predict", "--ck", workdir / "model.sdpl", "--instances", workdir / "inst.json"),
        ]
        return codes, capsys.readouterr().out

    @pytest.mark.parametrize("command", [("predict",), ("evaluate", "--report", "csv")])
    def test_changed_vectors_are_exit_2(self, workdir, vectors, capsys, command):
        assert self.train_and_predict(workdir, capsys)[0] == [0, 0]
        write_vectors(vectors, 8, shift=0.5)  # same words and dimension, other values
        rc = run(command[0], "--ck", workdir / "model.sdpl", "--instances", workdir / "inst.json",
                 *command[1:])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{vectors} has changed since training" in captured.err

    def test_cold_and_warm_memo_give_the_same_output(self, workdir, vectors, capsys,
                                                     monkeypatch):
        def outputs(cold):
            """(stdout of train, stdout of predict, the checkpoint's bytes)"""
            out = []
            for argv in (
                ("train", "--instances", workdir / "inst.json", "--config", workdir / "vconfig",
                 "--out", workdir / "model.sdpl"),
                ("predict", "--ck", workdir / "model.sdpl", "--instances", workdir / "inst.json"),
            ):
                if cold:
                    monkeypatch.setattr(embed_mod, "_LAST", None)
                assert run(*argv) == 0
                out.append(capsys.readouterr().out)
            return *out, (workdir / "model.sdpl").read_bytes()

        want = outputs(cold=True)
        assert embed_mod._LAST is not None
        assert outputs(cold=False) == want

    def test_relative_path_is_found_from_another_directory(self, workdir, vectors, capsys,
                                                           monkeypatch, tmp_path_factory):
        """A relative embedding_path is made absolute against the working
        directory when the config is read, so predict finds the file from a
        sibling directory."""
        (workdir / "rconfig").write_text(CONFIG_TEXT + "embedding_path=vectors.txt\n",
                                         encoding="utf-8")
        monkeypatch.chdir(workdir)
        assert run("train", "--instances", "inst.json", "--config", "rconfig",
                   "--out", "model.sdpl") == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path_factory.mktemp("sibling"))
        assert run("predict", "--ck", workdir / "model.sdpl",
                   "--instances", workdir / "inst.json") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 + 16

    def test_spellings_of_one_relative_path_give_one_checkpoint(self, workdir, vectors,
                                                                monkeypatch):
        monkeypatch.chdir(workdir)
        blobs = []
        for spelling in ("vectors.txt", "./vectors.txt"):
            (workdir / "rconfig").write_text(CONFIG_TEXT + f"embedding_path={spelling}\n",
                                             encoding="utf-8")
            assert run("train", "--instances", "inst.json", "--config", "rconfig",
                       "--out", "model.sdpl") == 0
            blobs.append((workdir / "model.sdpl").read_bytes())
        assert blobs[0] == blobs[1]
        stored = load_checkpoint(workdir / "model.sdpl").config.embedding_path
        assert stored == os.path.abspath("vectors.txt")

    def test_commands_leave_no_state_in_home(self, workdir, vectors, tmp_path_factory):
        """`sdprel train` and `sdprel predict`, run as programs, write nothing
        under HOME or XDG_CACHE_HOME."""
        home, cache = tmp_path_factory.mktemp("home"), tmp_path_factory.mktemp("xdg-cache")
        env = {**os.environ, "HOME": str(home), "XDG_CACHE_HOME": str(cache),
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        for argv in (
            ["train", "--instances", workdir / "inst.json", "--config", workdir / "vconfig",
             "--out", workdir / "model.sdpl"],
            ["predict", "--ck", workdir / "model.sdpl", "--instances", workdir / "inst.json"],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from sdprel.cli import main; sys.exit(main())",
                 *map(str, argv)], cwd=workdir, env=env, capture_output=True, text=True,
                timeout=300)
            assert proc.returncode == 0, proc.stderr[-3000:]
        assert list(home.iterdir()) == [] and list(cache.iterdir()) == []


class TestCvCommand:
    def test_cv_runs_and_is_deterministic(self, workdir, capsys):
        args = (
            "cv",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--k", "2",
            "--seed", "29",
        )
        assert run(*args, "--report", workdir / "r1.csv") == 0
        assert run(*args, "--report", workdir / "r2.csv") == 0
        first = (workdir / "r1.csv").read_bytes()
        second = (workdir / "r2.csv").read_bytes()
        assert first == second
        lines = first.decode().strip().split("\n")
        assert lines[0] == "fold,tp,fp,fn,tn,precision,recall,f1"
        assert len(lines) == 1 + 2 + 2
        capsys.readouterr()

    def test_bad_k_is_exit_2(self, workdir, capsys):
        rc = run(
            "cv",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--k", "1",
            "--report", workdir / "r.csv",
        )
        assert rc == 2
        capsys.readouterr()


class TestSweepCommand:
    def test_window_sweep(self, workdir, capsys):
        rc = run(
            "sweep",
            "--param", "window",
            "--values", "8,10",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--report", workdir / "sweep.csv",
        )
        assert rc == 0
        lines = (workdir / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "param,value,precision,recall,f1"
        assert lines[1].startswith("window,8,")
        assert lines[2].startswith("window,10,")
        capsys.readouterr()

    def test_epochs_sweep(self, workdir, capsys):
        rc = run(
            "sweep",
            "--param", "epochs",
            "--values", "2,4",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--report", workdir / "sweep.csv",
        )
        assert rc == 0
        assert len((workdir / "sweep.csv").read_text().strip().split("\n")) == 3
        capsys.readouterr()

    def test_epochs_sweep_preprocesses_once(self, workdir, monkeypatch, capsys):
        import sdprel.cli as cli_mod

        calls = []
        real = cli_mod.preprocess
        monkeypatch.setattr(
            cli_mod, "preprocess", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        common = (
            "sweep", "--param", "epochs",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
        )
        assert run(*common, "--values", "2,4", "--report", workdir / "both.csv") == 0
        assert len(calls) == 1
        rows = []
        for value in ("2", "4"):
            assert run(*common, "--values", value, "--report", workdir / "one.csv") == 0
            rows.append((workdir / "one.csv").read_text().split("\n")[1])
        assert (workdir / "both.csv").read_text().split("\n")[1:3] == rows
        capsys.readouterr()

    def test_epochs_sweep_fits_each_autoencoder_once(self, workdir, monkeypatch, capsys):
        import sdprel.features as features_mod
        import sdprel.pipeline as pipeline_mod

        asked, fitted = [], []
        ask, fit = pipeline_mod.train_autoencoders, features_mod._fit_stack

        def asking(samples, d, epochs, seeds):
            asked.extend((samples.tobytes(), d, epochs, s) for s in seeds)
            return ask(samples, d, epochs, seeds)

        def fitting(x, d, epochs, seeds):
            fitted.extend((x.tobytes(), d, epochs, s) for s in seeds)
            return fit(x, d, epochs, seeds)

        monkeypatch.setattr(pipeline_mod, "train_autoencoders", asking)
        monkeypatch.setattr(features_mod, "_fit_stack", fitting)
        assert run("sweep", "--param", "epochs", "--values", "2,3",
                   "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                   "--config", workdir / "config", "--report", workdir / "sweep.csv") == 0
        # both values ask for the same fits: the first fits each of them, the second none
        half = len(asked) // 2
        assert half and asked[:half] == asked[half:]
        assert sorted(fitted) == sorted(set(asked))
        capsys.readouterr()

    def test_cv_report_and_checkpoint_do_not_depend_on_the_memo(
            self, workdir, no_fit_memo, monkeypatch, capsys):
        import sdprel.features as features_mod

        def outputs():
            assert run("cv", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                       "--config", workdir / "config", "--report", workdir / "cv.csv") == 0
            assert run("preprocess", "--corpus", workdir / "corpus.tsv",
                       "--deps", workdir / "deps.tsv", "--out", workdir / "inst.json") == 0
            assert run("train", "--instances", workdir / "inst.json",
                       "--config", workdir / "config", "--out", workdir / "model.sdpl") == 0
            assert run("predict", "--ck", workdir / "model.sdpl",
                       "--instances", workdir / "inst.json") == 0
            return ((workdir / "cv.csv").read_bytes(), (workdir / "model.sdpl").read_bytes(),
                    capsys.readouterr().out)

        want = outputs()  # every fit made again
        monkeypatch.setattr(features_mod, "_FITS", {})
        assert outputs() == want  # a cold memo
        assert features_mod._FITS
        assert outputs() == want  # a warm one

    def test_sweep_loads_the_vectors_once(self, workdir, monkeypatch, capsys):
        import sdprel.pipeline as pipeline_mod
        from sdprel.pipeline import TrainConfig, cross_validate, preprocess
        from sdprel.corpus import load_corpus
        from sdprel.depgraph import load_dependencies

        write_vectors(workdir / "vectors.txt", 8)
        (workdir / "vconfig").write_text(
            CONFIG_TEXT + f"embedding_path={workdir / 'vectors.txt'}\n", encoding="utf-8")
        loads = []
        real = pipeline_mod.load_embeddings
        monkeypatch.setattr(pipeline_mod, "load_embeddings",
                            lambda *a, **kw: loads.append(a) or real(*a, **kw))
        assert run("sweep", "--param", "window", "--values", "6,8,10",
                   "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                   "--config", workdir / "vconfig", "--report", workdir / "sweep.csv") == 0
        assert len(loads) == 1
        # the same report as cross-validating each value with its own load of the vectors
        base = TrainConfig.from_file(workdir / "vconfig")
        sentences = load_corpus(workdir / "corpus.tsv")
        deps = load_dependencies(workdir / "deps.tsv")
        rows = ["param,value,precision,recall,f1"]
        for window in (6, 8, 10):
            config = base.replace(position_window=window)
            m = cross_validate(config, preprocess(sentences, deps, config)).micro
            rows.append(f"window,{window},{m.precision:.2f},{m.recall:.2f},{m.f1:.2f}")
        assert len(loads) == 4
        assert (workdir / "sweep.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
        capsys.readouterr()

    def test_pos_table_sweep_matches_cv(self, workdir, monkeypatch, capsys):
        import sdprel.cli as cli_mod

        table = workdir / "pos.tsv"
        table.write_text("NN\t3\nVBZ\t3\nVBN\t6\nIN\t6\n", encoding="utf-8")
        common = (
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--pos-table", table,
        )
        assert run("cv", *common, "--report", workdir / "cv.csv") == 0
        seen = []
        for name in ("preprocess", "cross_validate"):
            real = getattr(cli_mod, name)
            monkeypatch.setattr(cli_mod, name, lambda *a, real=real, **kw:
                                seen.append(kw["pos_table"]) or real(*a, **kw))
        # the config's own epoch count, so the sweep's one run is the cv run
        assert run("sweep", "--param", "epochs", "--values", "6", *common,
                   "--report", workdir / "sweep.csv") == 0
        assert seen == [{"NN": 3, "VBZ": 3, "VBN": 6, "IN": 6}] * 2
        cv_lines = (workdir / "cv.csv").read_text().split("\n")
        micro = next(line for line in cv_lines if line.startswith("micro,"))
        prf = micro.split(",")[-3:]
        assert (workdir / "sweep.csv").read_text().split("\n")[1] == f"epochs,6,{','.join(prf)}"
        capsys.readouterr()

    def test_malformed_pos_table_is_exit_2(self, workdir, capsys):
        (workdir / "pos.tsv").write_text("NN\tnine\n", encoding="utf-8")
        rc = run(
            "sweep",
            "--param", "epochs",
            "--values", "2",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--report", workdir / "sweep.csv",
            "--pos-table", workdir / "pos.tsv",
        )
        assert rc == 2
        assert "non-integer class index" in capsys.readouterr().err
        assert not (workdir / "sweep.csv").exists()

    def test_bad_values_exit_2(self, workdir, capsys):
        rc = run(
            "sweep",
            "--param", "epochs",
            "--values", "two",
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--report", workdir / "sweep.csv",
        )
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("values", ["1,,2", "1,2,", ",1", ""])
    def test_empty_value_item_exit_2(self, workdir, capsys, values):
        rc = run(
            "sweep",
            "--param", "epochs",
            "--values", values,
            "--corpus", workdir / "corpus.tsv",
            "--deps", workdir / "deps.tsv",
            "--config", workdir / "config",
            "--report", workdir / "sweep.csv",
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--values must be comma-separated integers: {values!r}" in err
        assert not (workdir / "sweep.csv").exists()


class TestOutputPaths:
    """A path that cannot be written ends the command before it reads any input."""

    @pytest.fixture
    def refuse_work(self, monkeypatch):
        import sdprel.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("the command did work before checking its output path")

        for name in ("train", "cross_validate", "preprocess", "load_corpus", "_read_instances"):
            monkeypatch.setattr(cli_mod, name, refuse)
        monkeypatch.setattr(cli_mod.TrainConfig, "from_file", staticmethod(refuse))

    def commands(self, workdir, bad):
        good = workdir / "good.out"
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        return [
            ("preprocess", *common, "--out", bad),
            ("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
             "--out", bad),
            ("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
             "--out", good, "--losses", bad),
            ("cv", *common, "--config", workdir / "config", "--report", bad),
            ("sweep", "--param", "epochs", "--values", "1", *common,
             "--config", workdir / "config", "--report", bad),
        ]

    @pytest.mark.usefixtures("refuse_work")
    @pytest.mark.parametrize("where", ["missing directory", "a directory", "under a file"])
    def test_unwritable_output_is_exit_2_before_any_work(self, workdir, capsys, where):
        bad = {"missing directory": workdir / "no" / "such" / "r.csv",
               "a directory": workdir,
               "under a file": workdir / "corpus.tsv" / "r.csv"}[where]
        for argv in self.commands(workdir, bad):
            assert run(*argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and str(bad) in captured.err
        assert not (workdir / "good.out").exists()

    def test_no_file_is_created_or_truncated_early(self, workdir, capsys):
        (workdir / "losses.csv").write_text("kept\n", encoding="utf-8")
        rc = run("train", "--instances", workdir / "missing.json", "--config", workdir / "config",
                 "--out", workdir / "m.sdpl", "--losses", workdir / "losses.csv")
        assert rc == 2
        assert "missing.json" in capsys.readouterr().err
        assert not (workdir / "m.sdpl").exists()
        assert (workdir / "losses.csv").read_text(encoding="utf-8") == "kept\n"
