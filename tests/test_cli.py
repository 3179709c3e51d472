import gzip
import hashlib
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
from sdprel.pipeline import instances_from_json, preprocess

from helpers import assert_exit_2_names, framed, split_blob, synthetic_corpus, write_lines

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
        assert doc["format"] == "sdprel-instances" and doc["version"] == 5
        assert "stats" not in doc and "pos_classes" not in doc["instances"]
        assert all(type(line) is str for line in doc["instances"]["tokens"])
        assert len(doc["instances"]["instance_id"]) + len(doc["excluded"]["instance_id"]) == 16
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

    @pytest.mark.parametrize("window", ["4", "13"])
    def test_bad_window_exits_2_before_any_input_is_read(self, workdir, monkeypatch, capsys,
                                                          window):
        import sdprel.cli as cli_mod

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("load_pos_table", "load_corpus", "load_dependencies"):
            monkeypatch.setattr(cli_mod, name, refuse)
        rc = run(
            "preprocess",
            "--corpus", workdir / "nope.tsv",
            "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json",
            "--pos-table", workdir / "nope.tsv",
            "--window", window,
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "position_window must be in [5, 12]" in err
        assert not (workdir / "inst.json").exists()

    @pytest.mark.parametrize("key, words", [("tokens", ("PROT1", "", "PROT2")),
                                            ("pos_tags", ("NN", "V BZ", "NN"))])
    def test_a_word_the_file_cannot_hold_writes_nothing(self, workdir, monkeypatch, capsys,
                                                        key, words):
        """A path whose word is empty or holds a space exits 2, naming its
        instance, and --out is not created."""
        import dataclasses

        import sdprel.cli as cli_mod

        def preprocess_with_a_bad_word(*args, **kwargs):
            result = preprocess(*args, **kwargs)
            bad = dataclasses.replace(result.instances[-1], **{key: words})
            return dataclasses.replace(result, instances=[*result.instances[:-1], bad])

        monkeypatch.setattr(cli_mod, "preprocess", preprocess_with_a_bad_word)
        rc = run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                 "--out", workdir / "inst.json")
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert f"{key} must be one or more non-empty words without spaces" in err
        assert not (workdir / "inst.json").exists()


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
        assert len(ck.words) > 3

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
        assert err == (f"error: {workdir / 'inst.json'}: instances made with {key}={made}, "
                       f"but {workdir / 'config'} has {key}={wanted}\n")
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
            assert err == (f"error: {workdir / 'inst6.json'}: instances made with "
                           f"position_window=6, but {workdir / 'model.sdpl'} has "
                           "position_window=10\n")

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
        assert captured.err.startswith(
            f"error: {workdir / 'other.json'}: instances made with another PoS table than "
            f"{workdir / 'model.sdpl'}; they differ on ")

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


class TestOlderInstancesFiles:
    """Versions 1 to 4 are no longer read: each command that reads an
    instances file exits 2, names the file, the version and the remedy, and
    prints nothing on stdout.  The older files hold a list of words per
    path, as version 4 did."""

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_exit_2(self, workdir, capsys, version):
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv")
        run("preprocess", *common, "--out", workdir / "inst.json")
        run("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
            "--out", workdir / "model.sdpl")
        doc = json.loads((workdir / "inst.json").read_text())
        doc["version"] = version
        for key in ("tokens", "pos_tags"):
            doc["instances"][key] = [line.split(" ") for line in doc["instances"][key]]
        (workdir / "old.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        for argv in (("train", "--config", workdir / "config", "--out", workdir / "m2.sdpl"),
                     ("evaluate", "--ck", workdir / "model.sdpl"),
                     ("predict", "--ck", workdir / "model.sdpl")):
            assert run(*argv, "--instances", workdir / "old.json") == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {workdir / 'old.json'}: instances file version "
                                    f"{version} is no longer read; "
                                    "run `sdprel preprocess` again to rebuild it\n")
        assert not (workdir / "m2.sdpl").exists()


class TestRepeatedPosTag:
    """A tag set twice in a --pos-table file exits 2, naming it and both lines."""

    @pytest.mark.parametrize("command", ["preprocess", "cv", "sweep"])
    def test_exit_2(self, workdir, capsys, command):
        (workdir / "pos.tsv").write_text("NN\t0\nVBZ\t1\n\nNN\t3\n", encoding="utf-8")
        common = ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                  "--pos-table", workdir / "pos.tsv")
        argv = {
            "preprocess": ("preprocess", *common, "--out", workdir / "out"),
            "cv": ("cv", *common, "--config", workdir / "config", "--report", workdir / "out"),
            "sweep": ("sweep", "--param", "epochs", "--values", "2", *common,
                      "--config", workdir / "config", "--report", workdir / "out"),
        }[command]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pos.tsv:4: tag 'NN' is set twice, on lines 1 and 4" in captured.err
        assert not (workdir / "out").exists()


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

    def test_gzip_vectors_score_as_the_plain_file(self, workdir, vectors, capsys):
        """The checkpoint records the blake2b digest of the compressed bytes."""
        plain = self.train_and_predict(workdir, capsys)
        assert plain[0] == [0, 0] and len(plain[1].splitlines()) > 16
        packed = workdir / "vectors.txt.gz"
        packed.write_bytes(gzip.compress(vectors.read_bytes(), mtime=0))
        (workdir / "vconfig").write_text(CONFIG_TEXT + f"embedding_path={packed}\n",
                                         encoding="utf-8")
        assert self.train_and_predict(workdir, capsys) == plain
        digest = hashlib.blake2b(packed.read_bytes(), digest_size=32).hexdigest()
        assert load_checkpoint(workdir / "model.sdpl").embedding_digest == digest

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
        import sdprel.pipeline as pipeline_mod

        seen = []
        for module, name in ((cli_mod, "preprocess"), (pipeline_mod, "train")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, **kw:
                                seen.append(kw["pos_table"]) or real(*a, **kw))
        # the config's own epoch count, so the sweep's one run is the cv run
        assert run("sweep", "--param", "epochs", "--values", "6", *common,
                   "--report", workdir / "sweep.csv") == 0
        # preprocessing, then each of the two folds' training runs
        assert seen == [{"NN": 3, "VBZ": 3, "VBN": 6, "IN": 6}] * 3
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

    def test_invalid_value_exits_2_before_any_work(self, workdir, monkeypatch, capsys):
        """Every value is validated first: a bad later value runs no value and
        writes no report."""
        import sdprel.cli as cli_mod

        calls = []
        for name in ("load_corpus", "load_table", "preprocess", "cross_validate"):
            monkeypatch.setattr(cli_mod, name, lambda *a, name=name, **kw: calls.append(name))
        rc = run("sweep", "--param", "epochs", "--values", "2,0",
                 "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                 "--config", workdir / "config", "--report", workdir / "sweep.csv")
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "epochs" in err
        assert calls == []
        assert not (workdir / "sweep.csv").exists()

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


class TestOutputsAreNotInputs:
    """An output path that names an input, or another output of the command,
    ends the command with exit 2 before it reads or writes anything: every file
    keeps its bytes and none is added."""

    @pytest.fixture
    def inputs(self, workdir):
        assert run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps",
                   workdir / "deps.tsv", "--out", workdir / "inst.json") == 0
        (workdir / "pos.tsv").write_text("NN\t3\n", encoding="utf-8")
        write_vectors(workdir / "vectors.txt", 8)
        (workdir / "vconfig").write_text(
            CONFIG_TEXT + f"embedding_path={workdir / 'vectors.txt'}\n", encoding="utf-8")
        os.symlink(workdir / "corpus.tsv", workdir / "link.tsv")
        (workdir / "sub").mkdir()
        return workdir

    CORPUS = ("--corpus", Path("corpus.tsv"), "--deps", Path("deps.tsv"))
    TRAIN = ("train", "--instances", Path("inst.json"))

    @pytest.mark.parametrize("argv", [
        ("preprocess", *CORPUS, "--out", Path("corpus.tsv")),
        ("preprocess", *CORPUS, "--out", Path("link.tsv")),
        ("preprocess", *CORPUS, "--pos-table", Path("pos.tsv"), "--out", Path("pos.tsv")),
        (*TRAIN, "--config", Path("config"), "--out", Path("inst.json")),
        (*TRAIN, "--config", Path("config"), "--out", Path("m.ck"), "--losses", Path("m.ck")),
        (*TRAIN, "--config", Path("config"), "--out", Path("m.ck"),
         "--losses", Path("sub/../m.ck")),
        (*TRAIN, "--config", Path("vconfig"), "--out", Path("m.ck"),
         "--losses", Path("vectors.txt")),
        ("cv", *CORPUS, "--config", Path("config"), "--report", Path("config")),
        ("cv", *CORPUS, "--config", Path("vconfig"), "--report", Path("vectors.txt")),
        ("sweep", "--param", "epochs", "--values", "1", *CORPUS, "--config", Path("config"),
         "--report", Path("sub/../deps.tsv")),
        ("sweep", "--param", "epochs", "--values", "1", *CORPUS, "--config", Path("vconfig"),
         "--report", Path("vectors.txt")),
    ], ids=["preprocess-corpus", "preprocess-symlink", "preprocess-pos-table", "train-instances",
            "train-out-losses", "train-out-losses-spelled", "train-vectors", "cv-config",
            "cv-vectors", "sweep-deps-spelled", "sweep-vectors"])
    def test_exit_2_and_nothing_changes(self, inputs, capsys, argv):
        before = {p: p.read_bytes() for p in inputs.rglob("*") if p.is_file()}
        assert run(*(inputs / a if isinstance(a, Path) else a for a in argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cannot write" in err and "it is the same file as" in err
        assert {p: p.read_bytes() for p in inputs.rglob("*") if p.is_file()} == before


class TestLineErrorsNameTheFile:
    @pytest.mark.parametrize("flag, line, reason", [
        ("--deps", "s1\t0\t1", "expected 4 tab-separated fields, got 3"),
        ("--corpus", "s1", "expected 3 or 4 tab-separated fields, got 1"),
        ("--pos-table", "NN 3", "expected tag<TAB>class, got 'NN 3'"),
        # a self-loop fails as a line error although the corpus has no sentence s1
        ("--deps", "s1\t1\t1\tnsubj", "self-loop at token 1"),
    ], ids=["deps", "corpus", "pos_table", "deps-self-loop"])
    def test_cv(self, workdir, capsys, flag, line, reason):
        bad = write_lines(workdir / "bad.tsv", [line])
        paths = {"--corpus": workdir / "corpus.tsv", "--deps": workdir / "deps.tsv", flag: bad}
        rc = run("cv", *(a for item in paths.items() for a in item),
                 "--config", workdir / "config", "--report", workdir / "cv.csv")
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {bad}:1: {reason}\n"

    @pytest.mark.parametrize("command", ["preprocess", "cv", "sweep"])
    def test_edge_outside_its_sentence(self, workdir, capsys, command):
        """The edges reader cannot see that an index is past its sentence's
        end; preprocess finds it, and the error names the edges file once."""
        bad = workdir / "bad.tsv"
        bad.write_text((workdir / "deps.tsv").read_text() + "syn000\t1\t99\targ\n",
                       encoding="utf-8")
        rest = {"preprocess": ("--out", workdir / "inst.json"),
                "cv": ("--config", workdir / "config", "--report", workdir / "cv.csv"),
                "sweep": ("--param", "window", "--values", "6", "--config", workdir / "config",
                          "--report", workdir / "sweep.csv")}[command]
        rc = run(command, "--corpus", workdir / "corpus.tsv", "--deps", bad, *rest)
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {bad}: sentence 'syn000': edge (1,99) outside 0:4\n"


class TestEveryExit2NamesItsFile:
    """Errors found after a file is read, by validation or by a later stage,
    name the file they are about, once."""

    @pytest.fixture
    def checkpoint(self, workdir, capsys):
        run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json")
        run("train", "--instances", workdir / "inst.json", "--config", workdir / "config",
            "--out", workdir / "model.sdpl")
        capsys.readouterr()
        return workdir / "model.sdpl"

    def assert_exit_2(self, capsys, rc, message):
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_config_validation(self, workdir, capsys, command):
        config = workdir / "config"
        config.write_text(CONFIG_TEXT.replace("epochs=6", "epochs=0"), encoding="utf-8")
        run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json")
        capsys.readouterr()
        rest = {"train": ("--instances", workdir / "inst.json", "--out", workdir / "m.sdpl"),
                "cv": ("--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
                       "--report", workdir / "cv.csv")}[command]
        rc = run(command, "--config", config, *rest)
        self.assert_exit_2(capsys, rc, f"{config}: epochs must be at least 1")

    def test_sentence_without_edges(self, workdir, capsys):
        deps = workdir / "deps.tsv"
        deps.write_text("".join(line for line in deps.read_text().splitlines(keepends=True)
                                if not line.startswith("syn000\t")), encoding="utf-8")
        rc = run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", deps,
                 "--out", workdir / "inst.json", "--require-deps")
        self.assert_exit_2(capsys, rc, f"{deps}: no dependency edges for sentence 'syn000'")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_damaged_checkpoint(self, workdir, checkpoint, capsys, command):
        blob = bytearray(checkpoint.read_bytes())
        blob[-20] ^= 1
        checkpoint.write_bytes(bytes(blob))
        rc = run(command, "--ck", checkpoint, "--instances", workdir / "inst.json")
        self.assert_exit_2(capsys, rc, f"{checkpoint}: checkpoint checksum does not match")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_theta_that_does_not_fit_the_config(self, workdir, checkpoint, capsys, command):
        meta, payload = split_blob(checkpoint.read_bytes())
        meta["config"]["lstm_units"] = 5
        checkpoint.write_bytes(framed(meta, payload))
        rc = run(command, "--ck", checkpoint, "--instances", workdir / "inst.json")
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {checkpoint}: checkpoint theta has shape ")

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_missing_vectors_file(self, workdir, checkpoint, capsys, command):
        meta, payload = split_blob(checkpoint.read_bytes())
        meta["config"]["embedding_path"] = str(workdir / "gone.txt")
        checkpoint.write_bytes(framed(meta, payload))
        rc = run(command, "--ck", checkpoint, "--instances", workdir / "inst.json")
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {checkpoint}: cannot read its vectors file: ")
        assert err.count(str(workdir / "gone.txt")) == 1

    def test_non_finite_word_vector_names_the_word(self, workdir, capsys):
        vectors = write_vectors(workdir / "vectors.txt", 8)
        vectors.write_text(vectors.read_text().replace("with 0.2", "with 1e999"),
                           encoding="utf-8")
        (workdir / "vconfig").write_text(CONFIG_TEXT + f"embedding_path={vectors}\n",
                                         encoding="utf-8")
        run("preprocess", "--corpus", workdir / "corpus.tsv", "--deps", workdir / "deps.tsv",
            "--out", workdir / "inst.json")
        capsys.readouterr()
        rc = run("train", "--instances", workdir / "inst.json", "--config", workdir / "vconfig",
                 "--out", workdir / "model.sdpl")
        out, err = capsys.readouterr()
        assert rc == 2
        assert_exit_2_names(vectors, rc, out, err)
        assert err == f"error: {vectors}: token vector of 'with' has non-finite components\n"
