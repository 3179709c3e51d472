"""Shared test oracles and fixture builders.

The oracles here are deliberately independent of the library code paths they
check: brute-force simple-path enumeration and a one-target BFS for path
finding, a per-pair preprocessing loop, central finite differences for
backprop, a scalar-loop LSTM cell, a per-instance forward and backward pass
of each model (one sequence at a time, one step per row), the
two-branch logistic function, an autoencoder fit that keeps its four weight
arrays in separate dicts, a cross-validation loop whose every fold fits its
own autoencoders, the position autoencoder's samples as the distinct rows of
every code matrix, the token rows of one instance at a time, a row-sparse
gradient scattered into its dense matrix, a word-vector loader that parses
one row at a time, and an instances file reader that checks one instance at
a time.  There is no oracle for a retired file format: its readers are gone,
and each such file is only checked to be rejected.  One Hypothesis strategy,
``one_byte_edit``, damages a file's bytes for the readers' fuzz tests.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import random
import struct

import numpy as np
from hypothesis import strategies as st

from sdprel.checkpoint import FORMAT_VERSION, MAGIC
from sdprel.embed import EmbeddingTable
from sdprel.errors import DimensionMismatch, FormatError, reading_text
from sdprel.neural import ACTIVATIONS, GATES, cross_entropy, sigmoid, softmax

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


def reference_position_samples(instances):
    """The distinct rows of every instance's position codes, in lexicographic order."""
    return np.unique(
        np.concatenate([i.pos1_codes for i in instances] + [i.pos2_codes for i in instances]),
        axis=0)


# ---------------------------------------------------------------------------
# Instances file oracle: a reader of one row at a time

ID_FIELDS = ("instance_id", "sentence_id", "prot1", "prot2")
EXCLUDED_FIELDS = (*ID_FIELDS, "label", "reason")


def reference_instances_from_json(text: str):
    """A version 5 reader that takes the columns apart into rows and checks
    one row at a time, splitting each row's tokens and tags at every space.
    Each tag's class comes from the file's PoS table, and each token's
    position codes from its own ``encode_position`` calls."""
    from sdprel.errors import ConfigError
    from sdprel.features import OTHER_CLASS, POS_DIM, encode_position
    from sdprel.pipeline import ExcludedInstance, PreprocessResult, SdpInstance

    reasons = ("disconnected", "path_too_long")

    def require(ok, row, what):
        if not ok:
            raise FormatError(f"instance {row['instance_id']!r}: {what}")

    def check_ids_and_label(row):
        require(all(isinstance(row[k], str) for k in ID_FIELDS), row,
                f"{', '.join(ID_FIELDS)} must be strings")
        require(type(row["label"]) is int and row["label"] in (0, 1), row,
                f"label must be 0 or 1, got {row['label']!r}")

    def rows(doc, key, fields):
        columns = doc[key]
        if type(columns) is not dict:
            raise FormatError(f"{key} must be an object of columns")
        unknown = set(columns) - set(fields)
        if unknown:
            raise FormatError(f"unknown {key} columns {sorted(unknown)}")
        values = [columns[k] for k in fields]
        if not (all(type(v) is list for v in values) and len(set(map(len, values))) == 1):
            raise FormatError(f"the {key} columns must be lists of equal length")
        return [dict(zip(fields, row)) for row in zip(*values)]

    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != "sdprel-instances":
            raise ConfigError("not an sdprel instances file")
        version = doc.get("version")
        if type(version) is int and version in (1, 2, 3, 4):
            raise ConfigError(f"instances file version {version} is no longer read; "
                              "run `sdprel preprocess` again to rebuild it")
        if type(version) is not int or version != 5:
            raise ConfigError(f"instances file version {version!r}, reader supports version 5")
        window = doc["position_window"]
        if type(window) is not int or window not in range(5, 13):
            raise FormatError(f"position_window must be an integer in [5, 12], got {window!r}")
        flags = doc["use_pos"], doc["use_position"]
        if not all(type(flag) is bool for flag in flags):
            raise FormatError(f"use_pos and use_position must be booleans, got {flags!r}")
        table = doc["pos_table"]
        if not (type(table) is dict
                and all(type(c) is int and 0 <= c < POS_DIM for c in table.values())):
            raise FormatError(f"pos_table must map tags to integers in 0..{POS_DIM - 1}")
        instances = []
        for row in rows(doc, "instances", (*ID_FIELDS, "label", "tokens", "pos_tags")):
            tokens, tags = row["tokens"], row["pos_tags"]
            require(isinstance(tokens, str) and isinstance(tags, str) and tokens != ""
                    and tags != "" and len(tokens.split(" ")) == len(tags.split(" ")), row,
                    "tokens and pos_tags must be non-empty strings of the same word count")
            check_ids_and_label(row)
            tokens, tags = tokens.split(" "), tags.split(" ")
            require("" not in tokens + tags, row, "tokens and pos_tags must not hold an empty word")
            classes = tuple(table.get(tag, OTHER_CLASS) for tag in tags)
            n = len(tokens)
            instances.append(SdpInstance(
                *(row[k] for k in ID_FIELDS), row["label"], tuple(tokens), tuple(tags), classes,
                pos1_codes=np.stack([encode_position(k, window) for k in range(n)]),
                pos2_codes=np.stack([encode_position(n - 1 - k, window) for k in range(n)])))
        excluded = []
        for row in rows(doc, "excluded", EXCLUDED_FIELDS):
            check_ids_and_label(row)
            require(row["reason"] in reasons, row,
                    f"reason must be one of {reasons}, got {row['reason']!r}")
            excluded.append(ExcludedInstance(**row))
        seen = set()
        for entry in instances + excluded:
            if entry.instance_id in seen:
                raise FormatError(f"instance id {entry.instance_id!r} appears more than once")
            seen.add(entry.instance_id)
        return PreprocessResult(instances, excluded, window, *flags, table)
    except KeyError as exc:
        raise FormatError(f"instances file is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed instances file: {exc}") from None


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


def reference_cross_validate(config, result, embeddings=None):
    """k-fold CV as one loop over the folds, in which each fold's ``train`` call
    fits that fold's autoencoders itself and takes the result's PoS table."""
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
                   embeddings=table, pos_table=result.pos_table)
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


def scattered(grad, rows, n):
    """The dense gradient of an n-row tensor whose row-sparse gradient ``grad``
    holds the rows ``rows``: zero elsewhere."""
    dense = np.zeros((n, *grad.shape[1:]))
    dense[rows] = grad
    return dense


# ---------------------------------------------------------------------------
# Word-vector oracle


def reference_load_embeddings(path, oov_seed=0):
    """Read a word2vec text file, after any byte-order mark, one row at a time:
    split the line, check the value count, skip a duplicate word, then one
    ``np.array`` per row."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8-sig") as fh, reading_text(path):
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


# ---------------------------------------------------------------------------
# Byte-level damage

EDIT_BYTES = st.one_of(st.sampled_from(b"|\t;:- 0123456789e\n\r"), st.integers(0, 255))


@st.composite
def one_byte_edit(draw, data: bytes) -> bytes:
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["insert", "delete", "replace"]))
    if kind == "insert":
        return data[:at] + bytes([draw(EDIT_BYTES)]) + data[at:]
    cut = min(at, len(data) - 1)
    return data[:cut] + (bytes([draw(EDIT_BYTES)]) if kind == "replace" else b"") + data[cut + 1:]
