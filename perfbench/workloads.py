"""The three benchmark workloads, driven through sdprel's public API.

Each workload loads its generated files in ``setup`` (timed as set-up) and
runs one round of its work in ``body`` (timed as wall time).  A round is a
closed loop: every call starts when the previous one returns.  Functions
are looked up on their modules at call time, so the tracer's wrappers see
the benchmark's own calls as well as the program's internal ones.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass, field
from math import comb

from sdprel import checkpoint, corpus, depgraph, embed, pipeline
from sdprel.errors import SdprelError

clock = time.perf_counter


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    output: dict | None
    # stage figures shown beside the metrics: name -> (value, unit)
    figures: dict = field(default_factory=dict)
    digest: str = ""
    # set by the measuring loop for traced rounds
    traced: bool = False
    trace: dict | None = None
    tracer: object = None


class Probe:
    """Records the calls of one pipeline function while installed.

    The CV loop calls ``train`` and ``evaluate`` internally; the probe is
    how the benchmark sees each fold's instances, its confusion counts and
    the time spent training.  It adds two clock reads per call.
    """

    def __init__(self, name: str):
        self.name = name
        self.calls: list[tuple[tuple, dict, object, float]] = []
        self._original = None

    def __enter__(self):
        self._original = original = getattr(pipeline, self.name)

        @functools.wraps(original)
        def probe(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            self.calls.append((args, kwargs, result, clock() - t0))
            return result

        setattr(pipeline, self.name, probe)
        return self

    def __exit__(self, *exc):
        setattr(pipeline, self.name, self._original)


def _tokens(instances) -> int:
    return sum(len(i.tokens) for i in instances)


class Workload:
    name = ""

    def __init__(self, paths: dict, truth: dict):
        self.paths = paths
        self.truth = truth
        self.config = pipeline.TrainConfig.from_file(paths["config.txt"])
        self.candidates = sum(comb(len(s["mentions"]), 2) for s in truth["sentences"])

    def setup(self) -> float:
        """Run the program's loaders; returns the seconds spent in them."""
        t0 = clock()
        self.sentences = corpus.load_corpus(self.paths["corpus.tsv"])
        self.deps = depgraph.load_dependencies(self.paths["deps.tsv"])
        self.table = None
        if self.config.embedding_path:
            self.table = embed.load_embeddings(
                self.config.embedding_path, oov_seed=self.config.seed
            )
        return clock() - t0

    def warm_up(self):
        """A small run of the same calls, so that lazy set-up is not timed."""
        raise NotImplementedError

    def probes(self) -> list[Probe]:
        """Probes to install around every round; body() receives them."""
        return []

    def body(self, probes: list[Probe]) -> Round:
        raise NotImplementedError

    def _work_path(self, name):
        return os.path.join(os.path.dirname(self.paths["corpus.tsv"]), name)


class CvPaper(Workload):
    """10-fold cross_validate of the BiLSTM at production dimensions."""

    name = "cv_paper"

    def warm_up(self):
        small = pipeline.preprocess(self.sentences[:12], self.deps, self.config)
        cfg = self.config.replace(epochs=1, ae_epochs=20, k_folds=2)
        pipeline.cross_validate(cfg, small, embeddings=self.table)

    def probes(self):
        return [Probe("train"), Probe("evaluate")]

    def body(self, probes) -> Round:
        train_probe, eval_probe = probes
        t0 = clock()
        try:
            result = pipeline.preprocess(self.sentences, self.deps, self.config)
            t1 = clock()
            report = pipeline.cross_validate(self.config, result, embeddings=self.table)
            csv = report.to_csv()  # what the cv command writes
        except SdprelError:
            return Round(clock() - t0, self.config.k_folds, self.config.k_folds, None)
        wall = clock() - t0
        train_tokens = sum(_tokens(args[1]) * args[0].epochs
                           for args, _, _, _ in train_probe.calls)
        train_s = sum(c[3] for c in train_probe.calls)
        scored = sum(len(args[1]) for args, _, _, _ in eval_probe.calls)
        eval_s = sum(c[3] for c in eval_probe.calls)
        return Round(
            wall_s=wall,
            attempted=self.config.k_folds,
            failed=0,
            output={"result": result, "report": report,
                    "train_calls": train_probe.calls, "eval_calls": eval_probe.calls},
            figures={
                "preprocess_pairs_per_s": (result.generated / (t1 - t0), "pairs/s"),
                "train_tokens_per_s": (train_tokens / train_s, "tokens/s"),
                "predict_instances_per_s": (scored / eval_s, "instances/s"),
            },
            digest=hashlib.sha256(csv.encode()).hexdigest(),
        )


class PreprocessDense(Workload):
    """preprocess + instances file round trip over a dense corpus."""

    name = "preprocess_dense"

    def warm_up(self):
        small = pipeline.preprocess(self.sentences[:20], self.deps, self.config)
        pipeline.instances_from_json(pipeline.instances_to_json(small, self.config))

    def body(self, probes) -> Round:
        path = self._work_path("instances.json")
        t0 = clock()
        try:
            result = pipeline.preprocess(self.sentences, self.deps, self.config)
            t1 = clock()
            text = pipeline.instances_to_json(result, self.config)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(path, encoding="utf-8") as fh:
                back = pipeline.instances_from_json(fh.read())
        except SdprelError:
            return Round(clock() - t0, self.candidates, self.candidates, None)
        wall = clock() - t0
        size = os.path.getsize(path)
        return Round(
            wall_s=wall,
            attempted=self.candidates,
            failed=0,
            output={"result": result, "back": back},
            figures={
                "preprocess_pairs_per_s": (result.generated / (t1 - t0), "pairs/s"),
                "instances_file_bytes": (size, "B"),
            },
            digest=hashlib.sha256(text.encode()).hexdigest(),
        )


class TunePredict(Workload):
    """Train with tuned embeddings, checkpoint round trip, score held-out pairs."""

    name = "tune_predict"

    def __init__(self, paths, truth):
        super().__init__(paths, truth)
        self.heldout = sum(comb(len(s["mentions"]), 2) for s in truth["sentences"]
                           if s["id"].startswith("ho"))

    def warm_up(self):
        result = pipeline.preprocess(self.sentences[:16], self.deps, self.config)
        cfg = self.config.replace(epochs=1, ae_epochs=20)
        tr = pipeline.train(cfg, result.instances, embeddings=self.table)
        path = self._work_path("warm.ckpt")
        checkpoint.save_checkpoint(tr.checkpoint, path)
        ck = checkpoint.load_checkpoint(path)
        vec, model = ck.build_vectorizer(self.table), ck.build_model()
        for inst in result.instances[:4]:
            pipeline.predict(ck, inst, vec, model)

    def body(self, probes) -> Round:
        path = self._work_path("model.ckpt")
        attempted = self.heldout + 3  # train, save, load, then one per scored pair
        t0 = clock()
        try:
            result = pipeline.preprocess(self.sentences, self.deps, self.config)
            t1 = clock()
            train_set = [i for i in result.instances if i.sentence_id.startswith("tr")]
            held = [i for i in result.instances if i.sentence_id.startswith("ho")]
            t2 = clock()
            tr = pipeline.train(self.config, train_set, embeddings=self.table)
            t3 = clock()
            checkpoint.save_checkpoint(tr.checkpoint, path)
            ck = checkpoint.load_checkpoint(path)
            # scoring as the predict command does it
            t4 = clock()
            vec = ck.build_vectorizer()
            model = ck.build_model()
            scores = [pipeline.predict(ck, inst, vec, model) for inst in held]
        except SdprelError:
            return Round(clock() - t0, attempted, attempted, None)
        t5 = clock()
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(repr(scores).encode())
        return Round(
            wall_s=t5 - t0,
            attempted=attempted,
            failed=0,
            output={"train": tr, "checkpoint_path": path, "ck": ck, "vectorizer": vec,
                    "model": model, "held": held, "scores": scores},
            figures={
                "preprocess_pairs_per_s": (result.generated / (t1 - t0), "pairs/s"),
                "train_tokens_per_s": (_tokens(train_set) * self.config.epochs / (t3 - t2),
                                       "tokens/s"),
                "predict_instances_per_s": (len(held) / (t5 - t4), "instances/s"),
                "checkpoint_bytes": (os.path.getsize(path), "B"),
            },
            digest=digest.hexdigest(),
        )


WORKLOADS = {w.name: w for w in (CvPaper, PreprocessDense, TunePredict)}
