"""Shared test oracles and fixture builders.

The oracles here are deliberately independent of the library code paths they
check: brute-force simple-path enumeration and a one-target BFS for path
finding, a per-pair preprocessing loop, central finite differences for
backprop, a scalar-loop LSTM cell, a per-instance forward and backward pass
of each model (one sequence at a time, one step per row), the
two-branch logistic function, an autoencoder fit that keeps its four weight
arrays in separate dicts, a cross-validation loop whose every fold fits its
own autoencoders, the version 2 checkpoint writer (one array per named tensor
and per word), the token rows of one instance at a time, a word-vector loader
that parses one row at a time, and the
row-per-instance (version 2) instances file writer and reader, whose reader
checks one instance at a time.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import random
import struct

import numpy as np

from sdprel.checkpoint import FORMAT_VERSION, MAGIC
from sdprel.embed import EmbeddingTable
from sdprel.errors import DimensionMismatch, FormatError, reading_text
from sdprel.neural import ACTIVATIONS, GATES, cross_entropy, sigmoid, softmax
from sdprel.pipeline import build_model

# ---------------------------------------------------------------------------
# Graph oracle


def min_simple_path_length(adjacency, src, dst):
    """Exhaustive minimum hop count over all simple paths (None if cut off)."""
    best = [None]

    def dfs(node, visited, length):
        if best[0] is not None and length >= best[0]:
            return
        if node == dst:
            best[0] = length
            return
        for nb in adjacency[node]:
            if nb not in visited:
                visited.add(nb)
                dfs(nb, visited, length + 1)
                visited.remove(nb)

    dfs(src, {src}, 0)
    return best[0]


def random_connected_graph(rng: random.Random, max_nodes: int = 10):
    """(node_count, edge list) for a random connected undirected graph."""
    n = rng.randint(3, max_nodes)
    while True:
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    edges.add((i, j))
        # spanning chain in a random order guarantees connectivity
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
        if edges:
            return n, sorted(edges)


def reference_bfs_path(adjacency, src, dst):
    """Node sequence of a BFS from src alone that stops when it pops dst,
    expanding neighbours in ascending order (None if dst is unreachable)."""
    parent = {src: src}
    queue = [src]
    for node in queue:
        if node == dst:
            break
        for nb in sorted(adjacency[node]):
            if nb not in parent:
                parent[nb] = node
                queue.append(nb)
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


# ---------------------------------------------------------------------------
# Preprocessing oracle


def reference_preprocess(sentences, deps, config, pos_table=None, require_deps=False):
    """``preprocess`` as one loop over the candidate pairs: each pair generalizes
    its sentence, builds its graph, runs its own BFS and encodes every position
    code with its own ``encode_position`` call."""
    from sdprel.corpus import generalize, generate_candidates
    from sdprel.depgraph import (
        MAX_SDP_TOKENS, build_graph, sdp_endpoints, sdp_tokens, shortest_path,
    )
    from sdprel.errors import Disconnected, MissingDependencyData, PathTooLong
    from sdprel.features import coarse_pos, encode_position, load_pos_table
    from sdprel.pipeline import ExcludedInstance, PreprocessResult, SdpInstance

    config.validate()
    window = config.position_window
    instances, excluded = [], []
    for s in sentences:
        for pair in generate_candidates(s):
            if s.id not in deps and require_deps:
                raise MissingDependencyData(s.id)
            gen = generalize(s, pair)
            graph = build_graph(gen, deps.get(s.id, []))
            src, dst = sdp_endpoints(gen, pair.prot1, pair.prot2)
            ids = (f"{s.id}:{pair.prot1}-{pair.prot2}", s.id, pair.prot1, pair.prot2, pair.label)
            try:
                path = shortest_path(graph, src, dst, max_tokens=MAX_SDP_TOKENS)
            except Disconnected:
                excluded.append(ExcludedInstance(*ids, "disconnected"))
                continue
            except PathTooLong:
                excluded.append(ExcludedInstance(*ids, "path_too_long"))
                continue
            toks = sdp_tokens(path, gen)
            n = len(toks)
            instances.append(SdpInstance(
                *ids,
                tokens=tuple(t for t, _ in toks),
                pos_tags=tuple(p for _, p in toks),
                pos_classes=tuple(coarse_pos(p, pos_table) for _, p in toks),
                pos1_codes=np.stack([encode_position(k, window) for k in range(n)]),
                pos2_codes=np.stack([encode_position(n - 1 - k, window) for k in range(n)]),
            ))
    table = dict(pos_table) if pos_table is not None else load_pos_table()
    return PreprocessResult(instances, excluded, window, config.use_pos, config.use_position, table)


# ---------------------------------------------------------------------------
# Instances file oracle: version 2, one object per instance


def reference_instances_to_json(result, config) -> str:
    """The version 2 writer: compact JSON, one object per instance, no PoS table."""
    doc = {
        "format": "sdprel-instances",
        "version": 2,
        "position_window": result.position_window,
        "use_pos": config.use_pos,
        "use_position": config.use_position,
        "stats": result.stats(),
        "instances": [
            {
                "instance_id": i.instance_id,
                "sentence_id": i.sentence_id,
                "prot1": i.prot1,
                "prot2": i.prot2,
                "label": i.label,
                "tokens": list(i.tokens),
                "pos_tags": list(i.pos_tags),
                "pos_classes": list(i.pos_classes),
            }
            for i in result.instances
        ],
        "excluded": [dataclasses.asdict(e) for e in result.excluded],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_instances_from_json(text: str, pos_table=None):
    """The version 1 and 2 reader, which checks one instance at a time.  Given the
    PoS table of a version 3 file, each tag's class must also be the table's."""
    from sdprel.errors import ConfigError
    from sdprel.features import OTHER_CLASS, POS_DIM
    from sdprel.pipeline import ExcludedInstance, PreprocessResult, SdpInstance, _PositionCodes

    id_fields = ("instance_id", "sentence_id", "prot1", "prot2")
    reasons = ("disconnected", "path_too_long")

    def require(ok, entry, what):
        if not ok:
            raise FormatError(f"instance {entry.instance_id!r}: {what}")

    def check_ids_and_label(entry):
        require(all(isinstance(getattr(entry, k), str) for k in id_fields), entry,
                f"{', '.join(id_fields)} must be strings")
        require(type(entry.label) is int and entry.label in (0, 1), entry,
                f"label must be 0 or 1, got {entry.label!r}")

    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != "sdprel-instances":
            raise ConfigError("not an sdprel instances file")
        version = doc.get("version")
        if type(version) is not int or version not in (1, 2):
            raise ConfigError(f"instances file version {version!r}, reader supports 1 and 2")
        window = doc["position_window"]
        if type(window) is not int or window not in range(5, 13):
            raise FormatError(f"position_window must be an integer in [5, 12], got {window!r}")
        flags = doc["use_pos"], doc["use_position"]
        if not all(type(flag) is bool for flag in flags):
            raise FormatError(f"use_pos and use_position must be booleans, got {flags!r}")
        codes = _PositionCodes(window)
        instances = []
        for i in doc["instances"]:
            sequences = [i[k] for k in ("tokens", "pos_tags", "pos_classes")]
            if not (all(isinstance(seq, list) for seq in sequences) and sequences[0]
                    and len(set(map(len, sequences))) == 1):
                raise FormatError(
                    f"instance {i['instance_id']!r}: tokens, pos_tags and pos_classes "
                    "must be non-empty lists of equal length"
                )
            tokens, pos_tags, pos_classes = map(tuple, sequences)
            inst = SdpInstance(*(i[k] for k in id_fields), i["label"], tokens, pos_tags,
                               pos_classes, *codes[len(tokens)])
            check_ids_and_label(inst)
            require(all(isinstance(t, str) for t in tokens + pos_tags), inst,
                    "tokens and pos_tags must be strings")
            require(all(type(c) is int and 0 <= c < POS_DIM for c in pos_classes), inst,
                    f"pos_classes must be integers in 0..{POS_DIM - 1}")
            for tag, stored in zip(pos_tags, pos_classes):
                wanted = pos_table.get(tag, OTHER_CLASS) if pos_table is not None else stored
                require(stored == wanted, inst,
                        f"tag {tag!r} has PoS class {stored}, but the file's pos_table gives {wanted}")
            instances.append(inst)
        excluded = [ExcludedInstance(**e) for e in doc["excluded"]]
        for e in excluded:
            check_ids_and_label(e)
            require(e.reason in reasons, e, f"reason must be one of {reasons}, got {e.reason!r}")
        return PreprocessResult(instances, excluded, window, *flags)
    except KeyError as exc:
        raise FormatError(f"instances file is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed instances file: {exc}") from None


def version_one_text(result, config) -> str:
    """The same result as the version 1 writer laid it out: indented, codes stored."""
    doc = json.loads(reference_instances_to_json(result, config))
    doc["version"] = 1
    for entry, inst in zip(doc["instances"], result.instances):
        entry["pos1_codes"] = inst.pos1_codes.astype(int).tolist()
        entry["pos2_codes"] = inst.pos2_codes.astype(int).tolist()
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Gradient oracle


def model_loss(model, xs, label):
    cache = model.forward(xs, masks=None)
    return cross_entropy(cache["probs"][1], label)


def finite_difference_grads(model, xs, label, eps=1e-5):
    """Central differences on every parameter tensor of the model."""
    out = {}
    for name, arr in model.tensors().items():
        grad = np.zeros_like(arr)
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus = model_loss(model, xs, label)
            flat[i] = orig - eps
            loss_minus = model_loss(model, xs, label)
            flat[i] = orig
            gflat[i] = (loss_plus - loss_minus) / (2.0 * eps)
        out[name] = grad
    return out


def max_relative_error(analytic, numeric, floor=1e-6):
    """max over tensors/entries of |a-n| / max(|a|, |n|, floor)."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def gradcheck(model, xs, label, eps=1e-5):
    analytic = model.backward(model.forward(xs, masks=None), label)
    analytic.pop("__inputs__")
    numeric = finite_difference_grads(model, xs, label, eps=eps)
    return max_relative_error(analytic, numeric)


def central_differences(fn, theta, eps=1e-5):
    """Central differences of a scalar function of one flat vector."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        plus = fn(theta)
        theta[i] = orig - eps
        minus = fn(theta)
        theta[i] = orig
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# Per-instance model oracle: one sequence, one step per row


def _shifted(rows):
    """Row t holds row t-1 of `rows`; row 0 is zeros (the initial state)."""
    return np.vstack([np.zeros_like(rows[:1]), rows[:-1]])


def _lstm_run(p, xs):
    """Run over xs in row order; returns (states, gate activations, cells) per step."""
    n, units = xs.shape[0], p.units
    acts = xs @ p.w_x.T + p.b
    states = np.empty((n, units))
    cells = np.empty((n, units))
    h = c = np.zeros(units)
    for t in range(n):
        acts[t] += p.w_h @ h
        acts[t, : 3 * units] = sigmoid(acts[t, : 3 * units])
        acts[t, 3 * units :] = np.tanh(acts[t, 3 * units :])
        i, f, o, u = acts[t].reshape(len(GATES), units)
        c = i * u + f * c
        h = o * np.tanh(c)
        states[t], cells[t] = h, c
    return states, acts, cells


def _lstm_backprop(p, xs, run, d_states):
    """Reverse-mode through `_lstm_run(p, xs)`; returns ({w_x, w_h, b} gradients, d_xs)."""
    states, acts, cells = run
    n, units = states.shape
    i, f, o, u = acts.reshape(n, len(GATES), units).transpose(1, 0, 2)
    tanh_c = np.tanh(cells)
    c_prev = _shifted(cells)
    d_pre = np.empty((n, len(GATES), units))
    dh_carry = dc_carry = np.zeros(units)
    for t in range(n - 1, -1, -1):
        dh = d_states[t] + dh_carry
        dc = dc_carry + dh * o[t] * (1.0 - tanh_c[t] ** 2)
        d_pre[t, 0] = dc * u[t] * i[t] * (1 - i[t])
        d_pre[t, 1] = dc * c_prev[t] * f[t] * (1 - f[t])
        d_pre[t, 2] = dh * tanh_c[t] * o[t] * (1 - o[t])
        d_pre[t, 3] = dc * i[t] * (1 - u[t] ** 2)
        dc_carry = dc * f[t]
        dh_carry = p.w_h.T @ d_pre[t].ravel()
    d_pre = d_pre.reshape(n, -1)
    grads = {"w_in": d_pre.T @ xs, "w_rec": d_pre.T @ _shifted(states), "b": d_pre.sum(axis=0)}
    return grads, d_pre @ p.w_x


def _head_forward(head, s, masks):
    act, _ = ACTIVATIONS[head.activation]
    x = s * masks["s"] if masks else s
    inputs, outs = [], []
    for w, b in head.hidden:
        inputs.append(x)
        x = act(w @ x + b)
        outs.append(x)
    m_drop = x * masks["m"] if masks else x
    return {"inputs": inputs, "outs": outs, "m_drop": m_drop, "masks": masks, "s": s,
            "probs": softmax(head.w_out @ m_drop)}


def _head_backward(head, cache, label):
    _, act_deriv = ACTIVATIONS[head.activation]
    masks = cache["masks"]
    d_logits = cache["probs"].copy()
    d_logits[label] -= 1.0
    grads = {"head.w_out": np.outer(d_logits, cache["m_drop"])}
    d_m = head.w_out.T @ d_logits
    if masks:
        d_m = d_m * masks["m"]
    for idx in range(len(head.hidden) - 1, -1, -1):
        d_pre = d_m * act_deriv(cache["outs"][idx])
        grads[f"head.w{idx}"] = np.outer(d_pre, cache["inputs"][idx])
        grads[f"head.b{idx}"] = d_pre
        d_m = head.hidden[idx][0].T @ d_pre
    return grads, (d_m * masks["s"] if masks else d_m)


def oracle_forward(model, xs, masks=None):
    """One instance through `model`, step by step; masks are its {"s", "m"} rows."""
    xs = np.asarray(xs, dtype=np.float64)
    if model.kind == "bilstm":
        fwd = _lstm_run(model.forward_lstm, xs)
        bwd = _lstm_run(model.backward_lstm, xs[::-1])
        z = np.concatenate([fwd[0], bwd[0][::-1]], axis=1)
        cache = _head_forward(model.head, z.max(axis=0), masks)
        cache.update(fwd=fwd, bwd=bwd, argmax=z.argmax(axis=0))  # ties: lowest position
    elif model.kind == "rnn":
        hs = xs @ model.w_in.T + model.bias
        h = np.zeros(model.units)
        for t in range(xs.shape[0]):
            hs[t] = h = sigmoid(hs[t] + model.w_rec @ h)
        cache = _head_forward(model.head, hs[-1], masks)
        cache.update(hs=hs)
    else:
        flat = np.zeros(model.pad_len * model.token_dim)
        n = min(xs.shape[0], model.pad_len)
        flat[: n * model.token_dim] = xs[:n].ravel()
        cache = _head_forward(model.head, flat, masks)
    cache.update(xs=xs)
    return cache


def oracle_backward(model, cache, label):
    """Gradients of one instance's loss under the model's tensor names, and "__inputs__"."""
    grads, d_s = _head_backward(model.head, cache, label)
    xs = cache["xs"]
    if model.kind == "bilstm":
        units = model.units
        d_z = np.zeros((xs.shape[0], 2 * units))
        d_z[cache["argmax"], np.arange(2 * units)] = d_s
        g_f, d_xs_f = _lstm_backprop(model.forward_lstm, xs, cache["fwd"], d_z[:, :units])
        g_b, d_xs_b = _lstm_backprop(model.backward_lstm, xs[::-1], cache["bwd"],
                                     d_z[::-1, units:])
        for prefix, g in (("fwd", g_f), ("bwd", g_b)):
            grads.update({f"{prefix}.{k}": v for k, v in g.items()})
        grads["__inputs__"] = d_xs_f + d_xs_b[::-1]
    elif model.kind == "rnn":
        hs = cache["hs"]
        d_pre = hs * (1.0 - hs)
        d_h = d_s
        for t in range(xs.shape[0] - 1, -1, -1):
            d_pre[t] *= d_h
            d_h = model.w_rec.T @ d_pre[t]
        grads.update({"rnn.w_in": d_pre.T @ xs, "rnn.w_rec": d_pre.T @ _shifted(hs),
                      "rnn.b": d_pre.sum(axis=0)})
        grads["__inputs__"] = d_pre @ model.w_in
    else:
        d_xs = np.zeros_like(xs)
        n = min(xs.shape[0], model.pad_len)
        d_xs[:n] = d_s[: n * model.token_dim].reshape(n, model.token_dim)
        grads["__inputs__"] = d_xs
    return grads


# ---------------------------------------------------------------------------
# Activation oracle


def masked_sigmoid(x):
    """The logistic function as two masked branches that exponentiate only
    non-positive numbers: 1/(1+e^-x) where x >= 0 and e^x/(1+e^x) elsewhere."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Autoencoder oracle


def reference_autoencoder(samples, d, epochs, seed):
    """Full-batch Adadelta fit with one array per weight and bias, each updated
    by the whole-array formula; returns (enc_w, enc_b, dec_w, dec_b, losses)."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    limit = np.sqrt(6.0 / (d + d))
    params = {
        "enc_w": rng.uniform(-limit, limit, size=(d, d)),
        "enc_b": np.zeros(d),
        "dec_w": rng.uniform(-limit, limit, size=(d, d)),
        "dec_b": np.zeros(d),
    }
    avg_sq_grad = {k: np.zeros_like(v) for k, v in params.items()}
    avg_sq_delta = {k: np.zeros_like(v) for k, v in params.items()}
    rho, eps = 0.95, 1e-6
    losses = []

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    for _ in range(epochs):
        z = sigmoid(x @ params["enc_w"].T + params["enc_b"])
        xhat = sigmoid(z @ params["dec_w"].T + params["dec_b"])
        diff = xhat - x
        losses.append(float(np.mean(np.sum(diff**2, axis=1))))
        d_pre_dec = 2.0 * diff / n * xhat * (1.0 - xhat)
        d_pre_enc = d_pre_dec @ params["dec_w"] * z * (1.0 - z)
        grads = {
            "enc_w": d_pre_enc.T @ x,
            "enc_b": d_pre_enc.sum(axis=0),
            "dec_w": d_pre_dec.T @ z,
            "dec_b": d_pre_dec.sum(axis=0),
        }
        for name, p in params.items():
            g, eg2, ed2 = grads[name], avg_sq_grad[name], avg_sq_delta[name]
            eg2 *= rho
            eg2 += (1.0 - rho) * g * g
            delta = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
            ed2 *= rho
            ed2 += (1.0 - rho) * delta * delta
            p += delta
    return params["enc_w"], params["enc_b"], params["dec_w"], params["dec_b"], losses


# ---------------------------------------------------------------------------
# Cross-validation oracle


def reference_cross_validate(config, result, embeddings=None, pos_table=None):
    """k-fold CV as one loop over the folds, in which each fold's ``train`` call
    fits that fold's autoencoders itself."""
    from sdprel.corpus import split_folds
    from sdprel.pipeline import CvReport, FoldMetrics, evaluate, load_table, train

    table = embeddings if embeddings is not None else load_table(config, config.seed)
    ids = [i.instance_id for i in result.instances] + [e.instance_id for e in result.excluded]
    folds = split_folds(ids, config.k_folds, config.seed)
    per_fold = []
    for fold in range(config.k_folds):
        train_insts = [i for i in result.instances if folds.fold_of(i.instance_id) != fold]
        test_insts = [i for i in result.instances if folds.fold_of(i.instance_id) == fold]
        test_excluded = [e for e in result.excluded if folds.fold_of(e.instance_id) == fold]
        tr = train(config.replace(seed=config.seed + fold), train_insts,
                   embeddings=table, pos_table=pos_table)
        per_fold.append(evaluate(tr.checkpoint, test_insts, excluded=test_excluded,
                                 vectorizer=tr.checkpoint.build_vectorizer(table)))
    micro = FoldMetrics(0, 0, 0, 0)
    for m in per_fold:
        micro = micro + m
    k = len(per_fold)
    return CvReport(
        per_fold=per_fold,
        micro=micro,
        macro_precision=sum(m.precision for m in per_fold) / k,
        macro_recall=sum(m.recall for m in per_fold) / k,
        macro_f1=sum(m.f1 for m in per_fold) / k,
    )


# ---------------------------------------------------------------------------
# Token-row oracle: one instance at a time


def reference_vectorize(vec, inst):
    """One instance's (n, token_dim) rows of [word | pos | position from PROT1 |
    from PROT2]: each token's word vector looked up on its own, the PoS and
    position rows gathered for this instance alone."""
    from sdprel.features import POS_DIM

    columns = [np.stack([vec.word_vector(tok) for tok in inst.tokens])]
    if vec.use_pos:
        classes = np.asarray(inst.pos_classes)
        if classes.min() < 0 or classes.max() >= POS_DIM:
            raise DimensionMismatch(f"PoS classes {inst.pos_classes} outside 0..{POS_DIM - 1}")
        columns.append(vec.pos_rows[classes])
    if vec.use_position:
        window = vec.position_ae.dim
        if inst.pos1_codes.shape[1] != window:
            raise DimensionMismatch(
                f"position codes are {inst.pos1_codes.shape[1]} wide, "
                f"the position autoencoder takes {window}"
            )
        k = np.minimum(np.arange(len(inst.tokens)), len(vec.position_rows) - 1)
        columns += [vec.position_rows[k], vec.position_rows[k[::-1]]]
    out = np.concatenate(columns, axis=1)
    if not np.all(np.isfinite(out)):
        raise DimensionMismatch("token vector has non-finite components")
    return out


# ---------------------------------------------------------------------------
# Word-vector oracle


def reference_load_embeddings(path, oov_seed=0):
    """Read a word2vec text file one row at a time: split the line, check the
    value count, skip a duplicate word, then one ``np.array`` per row."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh, reading_text(path):
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError(f"{path}: header must be '<vocab_size> <dimension>'")
        try:
            declared, dim = int(header[0]), int(header[1])
        except ValueError:
            raise FormatError(f"{path}: non-integer header {header}") from None
        if dim < 1:
            raise FormatError(f"{path}: dimension must be positive, got {dim}")
        vocab = {}
        duplicates = 0
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if parts and parts[-1] == "":
                parts.pop()
            if not parts or parts == [""]:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DimensionMismatch(
                    f"{path}:{line_no}: {len(values)} values for declared dimension {dim}"
                )
            if word in vocab:
                duplicates += 1
                continue
            try:
                vocab[word] = np.array(values, dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}:{line_no}: non-numeric vector value") from None
    return EmbeddingTable(
        dimension=dim, vocabulary=vocab, oov_seed=oov_seed, duplicate_count=duplicates
    )


# ---------------------------------------------------------------------------
# Checkpoint files


def split_blob(blob):
    """(metadata dict, array payload) of a checkpoint file."""
    start = len(MAGIC) + 2 + 8
    (meta_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 2)
    return json.loads(blob[start : start + meta_len]), blob[start + meta_len : -8]


def framed(meta, payload=b"", version=FORMAT_VERSION):
    """A checkpoint file around this metadata, with its length and checksum fixed up."""
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = MAGIC + struct.pack("<HQ", version, len(meta_bytes)) + meta_bytes + payload
    return body + hashlib.blake2b(body, digest_size=8).digest()


def with_version(blob, version):
    """The checkpoint file with its format version replaced and its checksum fixed up."""
    body = blob[: len(MAGIC)] + struct.pack("<H", version) + blob[len(MAGIC) + 2 : -8]
    return body + hashlib.blake2b(body, digest_size=8).digest()


def v2_checkpoint_bytes(ck):
    """The version 2 file of a checkpoint: each named view of theta, each
    autoencoder array and each word vector as its own array, sorted by
    (section, name), and the model's kind and shape repeated as ``model_kind``
    and ``model_meta``."""
    config = ck.config
    arrays = {("param", name): arr
              for name, arr in build_model(config).tensors(ck.theta).items()}
    for section, ae in (("pos_ae", ck.pos_ae), ("position_ae", ck.position_ae)):
        if ae is not None:
            for name in ("encoder_w", "encoder_b", "decoder_w", "decoder_b"):
                arrays[(section, name)] = getattr(ae, name)
    for token, vec in ck.token_vectors.items():
        arrays[("tok", token)] = vec
    index = sorted(arrays)
    meta = {
        "config": config.to_dict(),
        "model_kind": config.model,
        "model_meta": {
            "input_dim": config.input_dim,
            "units": config.lstm_units,
            "hidden_size": config.mlp_hidden,
            "depth": config.mlp_depth,
            "pad_len": config.mlp_pad_len,
            "activation": config.activation,
        },
        "oov_seed": ck.oov_seed,
        "pos_table": ck.pos_table,
        "arrays": [[sec, name, list(arrays[(sec, name)].shape)] for sec, name in index],
    }
    if ck.embedding_digest is not None:
        meta["embedding_digest"] = ck.embedding_digest
    payload = b"".join(np.ascontiguousarray(arrays[key], dtype="<f8").tobytes() for key in index)
    return framed(meta, payload, version=2)


# ---------------------------------------------------------------------------
# Synthetic corpus

POSITIVE_VERBS = ("bind", "interacts")
NEGATIVE_VERBS = ("observed", "located", "detected", "near")
FILLERS = ("protein", "complex", "domain", "receptor", "kinase", "subunit")
ADVERBS = ("directly", "strongly", "specifically", "weakly")


def synthetic_corpus(n: int, seed: int):
    """(corpus lines, dependency lines, labels) for n two-entity sentences.

    The dependency chain covers the whole sentence minus the final period,
    so the SDP is the full token chain; a pair interacts iff that chain
    contains one of POSITIVE_VERBS.
    """
    rng = random.Random(seed)
    labels = [1] * (n // 2) + [0] * (n - n // 2)
    rng.shuffle(labels)
    corpus_lines, dep_lines = [], []
    for i, label in enumerate(labels):
        sid = f"syn{i:03d}"
        name1, name2 = f"GeneA{i}", f"GeneB{i}"
        filler = rng.choice(FILLERS)
        if label:
            verb = rng.choice(POSITIVE_VERBS)
            pattern = rng.randrange(3)
            if pattern == 0:
                mid = [(verb, "VBZ"), ("to", "TO")]
            elif pattern == 1:
                mid = [(rng.choice(ADVERBS), "RB"), (verb, "VBZ"), ("to", "TO")]
            else:
                mid = [(filler, "NN"), (verb, "VBZ")]
        else:
            verb = rng.choice(NEGATIVE_VERBS)
            pattern = rng.randrange(3)
            if pattern == 0:
                mid = [("was", "VBD"), (verb, "VBN"), ("with", "IN")]
            elif pattern == 1:
                mid = [(filler, "NN"), ("and", "CC")]
            else:
                mid = [(verb, "VBN"), ("with", "IN"), (filler, "NN"), ("of", "IN")]
        tokens = [(name1, "NN")] + mid + [(name2, "NN"), (".", ".")]
        token_field = " ".join(f"{t}|{p}" for t, p in tokens)
        last = len(tokens) - 2  # index of name2
        entity_field = f"e1:0:0;e2:{last}:{last}"
        interaction_field = "e1-e2" if label else ""
        corpus_lines.append(f"{sid}\t{token_field}\t{entity_field}\t{interaction_field}")
        for j in range(last):
            dep_lines.append(f"{sid}\t{j}\t{j + 1}\targ")
    return corpus_lines, dep_lines, labels


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
