"""Output checks, computed apart from the program.

Every check raises ``CheckFailed`` with a reason.  The expected values come
from the generator's own record of each sentence (``truth.json``), from the
benchmark's own BFS in ``gen.bfs_path``, from a forward pass written here
in numpy, or from properties the method must have.  None of them is a
stored copy of an earlier run.
"""

from __future__ import annotations

import os
from collections import Counter
from math import comb

import numpy as np

from gen import INTERACTION_VERBS, MAX_SDP_TOKENS, adjacency_of, bfs_path
from sdprel import checkpoint
from sdprel.errors import SdprelError

PROT1, PROT2, PROTX = "PROT1", "PROT2", "PROTX"
# Held-out F1 (percent) must stay above this.  Predicting every pair
# positive scores 2p/(1+p) = 52 at the generated positive share p = 0.35.
F1_FLOOR = 80.0
PROB_TOLERANCE = 1e-9


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def thermometer(distance: int, window: int) -> np.ndarray:
    """min(|distance|, window) low-order (rightmost) ones."""
    bits = np.zeros(window)
    m = min(abs(distance), window)
    if m:
        bits[window - m:] = 1.0
    return bits


def expected_pairs(truth: dict) -> dict:
    """pair id -> (status, SDP tokens, SDP tags, label) from the truth record."""
    out = {}
    for s in truth["sentences"]:
        mentions = s["mentions"]
        adj = adjacency_of(len(s["tokens"]), [tuple(e) for e in s["edges"] or []])
        for a in range(len(mentions)):
            for b in range(a + 1, len(mentions)):
                pid = f"{s['id']}:e{a}-e{b}"
                path = bfs_path(adj, mentions[a], mentions[b])
                if path is None:
                    out[pid] = ("disconnected", None, None, s["pairs"][pid])
                    continue
                if len(path) > MAX_SDP_TOKENS:
                    out[pid] = ("path_too_long", None, None, s["pairs"][pid])
                    continue
                tokens = []
                for k in path:
                    if k == mentions[a]:
                        tokens.append(PROT1)
                    elif k == mentions[b]:
                        tokens.append(PROT2)
                    elif s["tokens"][k] is None:
                        tokens.append(PROTX)
                    else:
                        tokens.append(s["tokens"][k])
                label = int(any(t.lower() in INTERACTION_VERBS for t in tokens[1:-1]))
                require(label == s["pairs"][pid],
                        f"{pid}: generator label disagrees with its own path")
                out[pid] = ("ok", tuple(tokens), tuple(s["tags"][k] for k in path), label)
    return out


# ---------------------------------------------------------------------------
# preprocess_dense


def check_preprocess(truth: dict, result, window: int) -> None:
    """SDPs, exclusion reasons, labels, accounting and thermometer codes."""
    expected = expected_pairs(truth)
    total = sum(comb(len(s["mentions"]), 2) for s in truth["sentences"])
    require(len(result.instances) + len(result.excluded) == total,
            f"evaluable {len(result.instances)} + excluded {len(result.excluded)} "
            f"!= sum of C(mentions, 2) = {total}")
    seen = Counter([i.instance_id for i in result.instances]
                   + [e.instance_id for e in result.excluded])
    require(set(seen) == set(expected) and max(seen.values()) == 1,
            "candidate ids differ from the generated pairs or repeat")
    for inst in result.instances:
        status, tokens, tags, label = expected[inst.instance_id]
        require(status == "ok", f"{inst.instance_id}: expected exclusion {status}")
        require(inst.tokens == tokens, f"{inst.instance_id}: SDP {inst.tokens} != {tokens}")
        require(inst.pos_tags == tags, f"{inst.instance_id}: SDP tags differ")
        require(inst.label == label, f"{inst.instance_id}: label {inst.label} != {label}")
        n = len(tokens)
        p1 = np.stack([thermometer(k, window) for k in range(n)])
        p2 = np.stack([thermometer(n - 1 - k, window) for k in range(n)])
        require(np.array_equal(inst.pos1_codes, p1) and np.array_equal(inst.pos2_codes, p2),
                f"{inst.instance_id}: thermometer rows differ from min(distance, window)")
    for ex in result.excluded:
        status, _, _, label = expected[ex.instance_id]
        require(ex.reason == status, f"{ex.instance_id}: excluded as {ex.reason}, "
                                     f"BFS says {status}")
        require(ex.label == label, f"{ex.instance_id}: label {ex.label} != {label}")


def check_roundtrip(result, back) -> None:
    """The instances read back equal the instances written."""
    require(back.position_window == result.position_window, "position_window changed")
    require(back.excluded == result.excluded, "excluded pairs changed in the round trip")
    require(len(back.instances) == len(result.instances), "instance count changed")
    for a, b in zip(result.instances, back.instances):
        for name in ("instance_id", "sentence_id", "prot1", "prot2", "label",
                     "tokens", "pos_tags", "pos_classes"):
            require(getattr(a, name) == getattr(b, name),
                    f"{a.instance_id}: {name} changed in the round trip")
        require(np.array_equal(a.pos1_codes, b.pos1_codes)
                and np.array_equal(a.pos2_codes, b.pos2_codes),
                f"{a.instance_id}: codes changed in the round trip")


# ---------------------------------------------------------------------------
# cv_paper


def _prf(m):
    p = 100.0 * m.tp / (m.tp + m.fp) if m.tp + m.fp else 0.0
    r = 100.0 * m.tp / (m.tp + m.fn) if m.tp + m.fn else 0.0
    return p, r, (2 * p * r / (p + r) if p + r else 0.0)


def check_cv(truth: dict, train_calls, eval_calls, report, k: int) -> None:
    """Each candidate scored in exactly one fold; the report adds up."""
    labels = {pid: lab for s in truth["sentences"] for pid, lab in s["pairs"].items()}
    require(len(eval_calls) == k and len(train_calls) == k,
            f"expected {k} train and evaluate calls, saw "
            f"{len(train_calls)} and {len(eval_calls)}")
    require(len(report.per_fold) == k, f"report has {len(report.per_fold)} folds")
    scored = Counter()
    evaluable = None
    for fold, ((t_args, _, _, _), (e_args, e_kw, metrics, _)) in enumerate(
            zip(train_calls, eval_calls)):
        test = [i.instance_id for i in e_args[1]]
        excluded = [e.instance_id for e in e_kw.get("excluded", ())]
        train = {i.instance_id for i in t_args[1]}
        require(not train & set(test), f"fold {fold}: test pairs also trained on")
        if evaluable is None:
            evaluable = train | set(test)
        require(train | set(test) == evaluable, f"fold {fold}: train + test != all pairs")
        scored.update(test + excluded)
        require(metrics == report.per_fold[fold], f"fold {fold}: report row != evaluate")
        require(metrics.tp + metrics.fp + metrics.fn + metrics.tn == len(test) + len(excluded),
                f"fold {fold}: counts do not cover the fold's pairs")
        positives = sum(labels[pid] for pid in test + excluded)
        require(metrics.tp + metrics.fn == positives,
                f"fold {fold}: tp + fn = {metrics.tp + metrics.fn}, gold positives {positives}")
    require(set(scored) == set(labels) and max(scored.values()) == 1,
            "not every candidate was scored in exactly one fold")
    micro = [sum(getattr(m, f) for m in report.per_fold) for f in ("tp", "fp", "fn", "tn")]
    require(micro == [report.micro.tp, report.micro.fp, report.micro.fn, report.micro.tn],
            "micro counts != sum of the folds")
    rows = report.to_csv().strip().split("\n")[1:]
    for fold, m in enumerate(report.per_fold):
        p, r, f = _prf(m)
        require(rows[fold] == f"{fold},{m.tp},{m.fp},{m.fn},{m.tn},{p:.2f},{r:.2f},{f:.2f}",
                f"fold {fold}: report row {rows[fold]!r} != recomputed P/R/F1")
    macro = [sum(_prf(m)[j] for m in report.per_fold) / k for j in range(3)]
    got = [report.macro_precision, report.macro_recall, report.macro_f1]
    require(np.allclose(macro, got, rtol=0, atol=1e-9), f"macro row {got} != {macro}")
    p, r, f = _prf(report.micro)
    mi = report.micro
    require(rows[k] == f"micro,{mi.tp},{mi.fp},{mi.fn},{mi.tn},{p:.2f},{r:.2f},{f:.2f}",
            "micro row != recomputed P/R/F1")


# ---------------------------------------------------------------------------
# tune_predict


def check_checkpoint_roundtrip(path: str) -> None:
    """save -> load -> save gives the same bytes."""
    again = path + ".again"
    try:
        checkpoint.save_checkpoint(checkpoint.load_checkpoint(path), again)
        with open(path, "rb") as a, open(again, "rb") as b:
            require(a.read() == b.read(), "save -> load -> save is not byte-identical")
    except (SdprelError, OSError) as exc:
        raise CheckFailed(f"checkpoint did not load and save again: {exc!r}") from None
    finally:
        if os.path.exists(again):
            os.remove(again)


def read_vectors(path: str, wanted: set) -> dict:
    """The rows of a word2vec text file whose word is in ``wanted``."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            word, _, rest = line.partition(" ")
            if word in wanted and word not in out:
                out[word] = np.array([float(x) for x in rest.split()])
    return out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def numpy_probability(model, ck, tokens, tags, word_vectors) -> float:
    """BiLSTM -> max-pool -> sigmoid MLP -> softmax, from the per-gate views."""
    window = ck.position_ae.dim
    n = len(tokens)
    rows = []
    for k, (tok, tag) in enumerate(zip(tokens, tags)):
        onehot = np.zeros(8)
        onehot[ck.pos_table.get(tag, 7)] = 1.0
        rows.append(np.concatenate([
            word_vectors[tok],
            _sigmoid(ck.pos_ae.encoder_w @ onehot + ck.pos_ae.encoder_b),
            _sigmoid(ck.position_ae.encoder_w @ thermometer(k, window) + ck.position_ae.encoder_b),
            _sigmoid(ck.position_ae.encoder_w @ thermometer(n - 1 - k, window)
                     + ck.position_ae.encoder_b),
        ]))
    xs = np.stack(rows)

    def run(p, order):
        h = np.zeros(p.units)
        c = np.zeros(p.units)
        out = np.zeros((n, p.units))
        for t in order:
            pre = {g: p.w_in[g] @ xs[t] + p.w_rec[g] @ h + p.bias[g] for g in "ifou"}
            c = _sigmoid(pre["i"]) * np.tanh(pre["u"]) + _sigmoid(pre["f"]) * c
            h = _sigmoid(pre["o"]) * np.tanh(c)
            out[t] = h
        return out

    z = np.concatenate([run(model.forward_lstm, range(n)),
                        run(model.backward_lstm, range(n - 1, -1, -1))], axis=1)
    m = z.max(axis=0)
    for w, b in model.head.hidden:
        m = _sigmoid(w @ m + b)
    logits = model.head.w_out @ m
    e = np.exp(logits - logits.max())
    return float(e[1] / e.sum())


def check_forward(truth, ck, model, vectorizer, held, scores, vectors_path, sample=24):
    """Scored probabilities match the numpy forward pass on a sample of pairs."""
    expected = expected_pairs(truth)
    picks = list(range(0, len(held), max(1, len(held) // sample)))[:sample]
    needed = {expected[held[i].instance_id][1] for i in picks}
    wanted = {t for toks in needed for tok in toks for t in (tok, tok.lower())}
    file_vectors = read_vectors(vectors_path, wanted)
    for i in picks:
        inst = held[i]
        _, tokens, tags, _ = expected[inst.instance_id]
        words = {}
        for tok in tokens:
            if tok in ck.token_vectors:
                words[tok] = ck.token_vectors[tok]
            elif tok in file_vectors or tok.lower() in file_vectors:
                words[tok] = file_vectors.get(tok, file_vectors.get(tok.lower()))
            else:  # absent from the file: a deterministic vector in +-0.05
                vec = vectorizer.word_vector(tok)
                require(np.all(np.abs(vec) <= 0.05) and np.array_equal(
                    vec, vectorizer.word_vector(tok)), f"OOV vector of {tok!r} is off")
                words[tok] = vec
        prob = numpy_probability(model, ck, tokens, tags, words)
        got = scores[i][1]
        require(abs(prob - got) <= PROB_TOLERANCE,
                f"{inst.instance_id}: predict gave {got!r}, numpy forward {prob!r}")
        require(scores[i][0] == int(got >= 0.5), f"{inst.instance_id}: label != prob >= 0.5")


def check_training(losses, held, scores) -> None:
    require(len(losses) >= 2 and losses[-1] < losses[0],
            f"training loss did not fall: {losses}")
    tp = sum(1 for i, s in zip(held, scores) if s[0] == 1 and i.label == 1)
    fp = sum(1 for i, s in zip(held, scores) if s[0] == 1 and i.label == 0)
    fn = sum(1 for i, s in zip(held, scores) if s[0] == 0 and i.label == 1)
    f1 = 200.0 * tp / (2 * tp + fp + fn) if tp else 0.0
    require(f1 > F1_FLOOR, f"held-out F1 {f1:.1f} is not above the floor {F1_FLOOR}")


def check_labels(truth, held) -> None:
    labels = {pid: lab for s in truth["sentences"] for pid, lab in s["pairs"].items()}
    require(all(labels[i.instance_id] == i.label for i in held), "held-out labels differ")
