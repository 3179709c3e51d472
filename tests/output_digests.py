"""Digests of every file and stdout that the sdprel commands make on a small
synthetic corpus, to show that a change leaves every output byte-identical.

Usage, from the repository root:

    PYTHONPATH=src python tests/output_digests.py [WORKDIR]

It prints one ``name sha256`` line per output file and per command's stdout.
The commands run in WORKDIR (a new temporary directory when none is given)
in one process.  A checkpoint stores the absolute path of its vectors file
and the commands print the paths they write, so two runs are comparable only
when they use the same WORKDIR: run the script at two commits with one
WORKDIR and compare the lines with ``diff``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from sdprel.cli import main

from helpers import synthetic_corpus, write_lines

CONFIG = """\
lstm_units=6
mlp_hidden=4
dropout=0.2
batch=8
seed=11
embedding_dim=8
ae_epochs=60
k_folds=3
"""
MODELS = ("bilstm", "rnn", "mlp")
OPTIMIZERS = ("adam", "adadelta")
# two sentences whose third mention is cut off from the others, so that
# preprocess, cv and sweep also handle excluded pairs
EXTRA_SENTENCES = [
    "x1\tGeneC1|NN binds|VBZ GeneD1|NN near|IN GeneE1|NN .|.\te1:0:0;e2:2:2;e3:4:4\te1-e2",
    "x2\tGeneC2|NN and|CC GeneD2|NN with|IN GeneE2|NN .|.\te1:0:0;e2:2:2;e3:4:4\t",
]
# the last two repeat an edge, once reversed with another label and once as is
EXTRA_DEPS = ["x1\t0\t1\targ", "x1\t1\t2\targ", "x2\t0\t1\targ", "x2\t1\t2\targ",
              "x1\t1\t0\tnsubj", "x2\t1\t2\targ"]
VECTOR_WORDS = ("GeneA0", "interacts", "with", "bind", "protein", "was", "to")


def _vectors_text() -> str:
    """A word2vec text file of 8-d vectors, the config's embedding_dim."""
    rows = [f"{word} " + " ".join(f"{((i * 7 + k) % 11 - 5) / 10}" for k in range(8))
            for i, word in enumerate(VECTOR_WORDS)]
    return f"{len(rows)} 8\n" + "\n".join(rows) + "\n"


def digests(workdir) -> list[str]:
    """Run every command in `workdir` and return the ``name sha256`` lines."""
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    lines = []

    def record(name: str, data: bytes) -> None:
        lines.append(f"{name} {hashlib.sha256(data).hexdigest()}")

    def run(name: str, *argv) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([str(a) for a in argv])
        if rc != 0:
            raise SystemExit(f"{name}: sdprel {argv[0]} exited with {rc}")
        record(f"{name}/stdout", out.getvalue().encode("utf-8"))

    corpus_lines, dep_lines, _ = synthetic_corpus(24, seed=4)
    inputs = ("--corpus", write_lines(work / "corpus.tsv", corpus_lines + EXTRA_SENTENCES),
              "--deps", write_lines(work / "deps.tsv", dep_lines + EXTRA_DEPS))
    (work / "vectors.txt").write_text(_vectors_text(), encoding="utf-8")
    instances = work / "instances.json"
    run("preprocess", "preprocess", *inputs, "--out", instances)
    record("preprocess/instances.json", instances.read_bytes())

    for model in MODELS:
        for optimizer in OPTIMIZERS:
            config = work / f"config-{model}-{optimizer}"
            config.write_text(CONFIG + f"epochs=3\nmodel={model}\noptimizer={optimizer}\n"
                              f"embedding_path={work / 'vectors.txt'}\n", encoding="utf-8")
            for vectors, flags in (("frozen", ()), ("tuned", ("--tune-embeddings",))):
                name = f"{model}-{optimizer}-{vectors}"
                ck, losses = work / f"{name}.sdpl", work / f"{name}.losses.csv"
                run(f"train/{name}", "train", "--instances", instances, "--config", config,
                    "--out", ck, "--losses", losses, *flags)
                record(f"train/{name}/checkpoint", ck.read_bytes())
                record(f"train/{name}/losses.csv", losses.read_bytes())
                scoring = ("--ck", ck, "--instances", instances)
                run(f"predict/{name}", "predict", *scoring)
                for report in ("csv", "json"):
                    run(f"evaluate-{report}/{name}", "evaluate", *scoring, "--report", report)

    # enough training that a fold's predictions follow its training order
    config = work / "config-cv"
    config.write_text(CONFIG + "epochs=12\nlearning_rate=0.05\n"
                      f"embedding_path={work / 'vectors.txt'}\n", encoding="utf-8")
    run("cv", "cv", *inputs, "--config", config, "--report", work / "cv.csv")
    record("cv/report.csv", (work / "cv.csv").read_bytes())
    run("sweep", "sweep", "--param", "window", "--values", "6,8", *inputs, "--config", config,
        "--report", work / "sweep.csv")
    record("sweep/report.csv", (work / "sweep.csv").read_bytes())
    return lines


if __name__ == "__main__":
    if len(sys.argv) > 2:
        raise SystemExit(__doc__)
    if len(sys.argv) == 2:
        print("\n".join(digests(sys.argv[1])))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print("\n".join(digests(tmp)))
