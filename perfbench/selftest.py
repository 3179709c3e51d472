"""Self-test of the output checks: each must reject a corrupted output.

Runs every workload once on small generated inputs, requires the genuine
outputs to pass all checks, then feeds each check a deliberately corrupted
copy and requires it to fail with the expected reason.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import types
from contextlib import ExitStack

import checks
import gen
import run
import workloads
from sdprel.pipeline import FoldMetrics

SEED = 7
SMALL = {
    "cv_paper": {"sentences": 14, "length_scale": 6.0, "max_len": 20,
                 "lexicon": 300, "epochs": 2},
    "preprocess_dense": {"sentences": 100, "lexicon": 300},
    "tune_predict": {"train": 160, "heldout": 200, "length_scale": 4.0,
                     "max_len": 12, "lexicon": 600, "epochs": 3},
}


def one_round(name, work_dir):
    out_dir = os.path.join(work_dir, name)
    paths = gen.generate(name, SEED, out_dir, SMALL[name])
    with open(paths["truth.json"], encoding="utf-8") as fh:
        truth = json.load(fh)
    w = workloads.WORKLOADS[name](paths, truth)
    if name == "cv_paper":  # small model, so the self-test stays quick
        w.config = w.config.replace(lstm_units=8, mlp_hidden=6, ae_epochs=50)
    w.setup()
    probes = w.probes()
    with ExitStack() as stack:
        for p in probes:
            stack.enter_context(p)
        r = w.body(probes)
    return w, r


def _replace_at(items, idx, **changes):
    items = list(items)
    items[idx] = dataclasses.replace(items[idx], **changes)
    return items


def preprocess_cases(w, out):
    res, back, window = out["result"], out["back"], w.config.position_window
    j = next(i for i, inst in enumerate(res.instances) if len(set(inst.tokens[1:-1])) >= 2)
    inst = res.instances[j]
    mid = list(inst.tokens[1:-1])
    swapped = (inst.tokens[0], mid[-1], *mid[1:-1], mid[0], inst.tokens[-1])
    codes = inst.pos1_codes.copy()
    codes[-1, 0] = 1.0 - codes[-1, 0]
    ex = res.excluded[0]
    other = "disconnected" if ex.reason == "path_too_long" else "path_too_long"

    def with_(**kw):
        return lambda: checks.check_preprocess(w.truth, dataclasses.replace(res, **kw), window)

    return [
        ("SDP with two tokens swapped", "SDP",
         with_(instances=_replace_at(res.instances, j, tokens=swapped))),
        ("exclusion reason swapped", "BFS says",
         with_(excluded=_replace_at(res.excluded, 0, reason=other))),
        ("an excluded pair dropped", "sum of C(mentions, 2)",
         with_(excluded=res.excluded[1:])),
        ("a thermometer bit flipped", "thermometer",
         with_(instances=_replace_at(res.instances, j, pos1_codes=codes))),
        ("a label flipped", "label",
         with_(instances=_replace_at(res.instances, j, label=1 - inst.label))),
        ("round trip that changes a label", "changed in the round trip",
         lambda: checks.check_roundtrip(res, dataclasses.replace(
             back, instances=_replace_at(back.instances, j, label=1 - inst.label)))),
    ]


def cv_cases(w, out):
    report, tc, ec, k = out["report"], out["train_calls"], out["eval_calls"], w.config.k_folds
    check = lambda rep=report, e=ec: checks.check_cv(w.truth, tc, e, rep, k)  # noqa: E731

    # a negative pair of fold 0 scored again in fold 1 as an excluded pair,
    # with fold 1's counts and the report made consistent with that
    args1, kw1, m1, t1 = ec[1]
    twice = next(i for i in ec[0][0][1] if i.label == 0)
    extra = FoldMetrics(0, 0, 0, 1)
    moved = list(ec)
    moved[1] = (args1, {**kw1, "excluded": list(kw1.get("excluded", ())) + [twice]},
                m1 + extra, t1)
    twice_report = dataclasses.replace(
        report, per_fold=[m1 + extra if f == 1 else m for f, m in enumerate(report.per_fold)],
        micro=report.micro + extra)
    micro = dataclasses.replace(report, micro=report.micro + FoldMetrics(0, 0, 0, 1))
    macro = dataclasses.replace(report, macro_f1=report.macro_f1 + 0.5)
    csv = report.to_csv().split("\n")
    fields = csv[1].split(",")
    fields[5] = "99.99"
    csv[1] = ",".join(fields)
    bad_row = types.SimpleNamespace(**{f.name: getattr(report, f.name)
                                       for f in dataclasses.fields(report)})
    bad_row.to_csv = lambda: "\n".join(csv)
    return [
        ("a pair scored in two folds", "exactly one fold",
         lambda: check(rep=twice_report, e=moved)),
        ("micro counts that are not the sum of the folds", "micro counts",
         lambda: check(rep=micro)),
        ("a macro F1 that does not follow from the folds", "macro row",
         lambda: check(rep=macro)),
        ("a fold row whose precision does not follow from its counts", "recomputed P/R/F1",
         lambda: check(rep=bad_row)),
    ]


def tune_cases(w, out, work_dir):
    held, scores, ck, model = out["held"], out["scores"], out["ck"], out["model"]
    path = out["checkpoint_path"]
    bad_ck = os.path.join(work_dir, "corrupt.ckpt")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[len(blob) // 2] ^= 0x01
    with open(bad_ck, "wb") as fh:
        fh.write(bytes(blob))
    # a checkpoint that loads but is not in canonical form: same arrays, its
    # metadata re-indented, length and checksum fixed up
    loose_ck = os.path.join(work_dir, "loose.ckpt")
    with open(path, "rb") as fh:
        good = fh.read()
    (meta_len,) = struct.unpack_from("<Q", good, 6)
    meta = json.dumps(json.loads(good[14 : 14 + meta_len]), indent=1).encode()
    body = good[:6] + struct.pack("<Q", len(meta)) + meta + good[14 + meta_len : -8]
    with open(loose_ck, "wb") as fh:
        fh.write(body + hashlib.blake2b(body, digest_size=8).digest())
    nudged = list(scores)
    nudged[0] = (scores[0][0], scores[0][1] + 1e-6)
    flipped = _replace_at(held, 0, label=1 - held[0].label)
    losses = out["train"].epoch_losses
    all_positive = [(1, 0.9)] * len(held)

    def forward(s):
        return lambda: checks.check_forward(w.truth, ck, model, out["vectorizer"], held, s,
                                            w.config.embedding_path)

    return [
        ("a checkpoint with one bit flipped", "did not load",
         lambda: checks.check_checkpoint_roundtrip(bad_ck)),
        ("a checkpoint whose metadata is not canonical", "not byte-identical",
         lambda: checks.check_checkpoint_roundtrip(loose_ck)),
        ("a probability off by 1e-6", "numpy forward", forward(nudged)),
        ("a training loss that rises", "did not fall",
         lambda: checks.check_training(losses[::-1], held, scores)),
        ("every pair predicted positive", "F1",
         lambda: checks.check_training(losses, held, all_positive)),
        ("a held-out label flipped", "labels differ",
         lambda: checks.check_labels(w.truth, flipped)),
    ]


def main(work_root: str) -> int:
    work_dir = os.path.join(work_root, f"selftest-{os.getpid()}")
    failures = 0
    try:
        for name in gen.WORKLOADS:
            w, r = one_round(name, work_dir)
            problems = run.run_checks(w, [r])
            print(f"{name}: genuine output {'passes' if not problems else 'FAILS'}"
                  f"{'' if not problems else ': ' + problems[0]}")
            failures += bool(problems)
            if name == "preprocess_dense":
                cases = preprocess_cases(w, r.output)
            elif name == "cv_paper":
                cases = cv_cases(w, r.output)
            else:
                cases = tune_cases(w, r.output, work_dir)
            twin = copy.copy(r)
            twin.digest = "0" * len(r.digest)
            cases.append(("two rounds that disagree", "different outputs",
                          lambda w=w, r=r, twin=twin: _raise_first(run.run_checks(w, [r, twin]))))
            for desc, reason, case in cases:
                try:
                    case()
                except checks.CheckFailed as exc:
                    ok = reason in str(exc)
                    print(f"  {'rejects' if ok else 'WRONG REASON for'}: {desc}"
                          f"{'' if ok else f' ({exc})'}")
                    failures += not ok
                else:
                    print(f"  MISSES: {desc}")
                    failures += 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"self-test {'passed' if not failures else f'failed ({failures})'}")
    return 0 if not failures else 1


def _raise_first(problems):
    if problems:
        raise checks.CheckFailed(problems[0])


if __name__ == "__main__":
    raise SystemExit(main(run.WORK))
