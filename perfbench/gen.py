"""Seeded input generator for the sdprel benchmark.

For one workload and one seed it writes the files the program reads -- a
corpus, its dependency edges, a word2vec text file and a config -- plus
``truth.json``, the generator's own account of every sentence, which the
output checks compare against.  Nothing here imports sdprel or the test
helpers, so the benchmark's inputs cannot drift with either.

The amount of work is fixed per workload: SDP lengths and mention counts
are drawn as fixed multisets (quantiles of a distribution) that the seed
only shuffles, so runs on different seeds time the same amount of work.

    python3 perfbench/gen.py --workload cv_paper --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from collections import deque

import numpy as np

WORD_DIM = 200
MAX_SDP_TOKENS = 40

# A pair interacts iff one of these verbs lies strictly inside its SDP.
INTERACTION_VERBS = (
    "binds", "activates", "inhibits", "phosphorylates", "interacts",
    "regulates", "stimulates", "recruits", "cleaves", "ubiquitinates",
    "modulates", "associates",
)
FUNCTION_WORDS = (
    ("of", "IN"), ("in", "IN"), ("with", "IN"), ("by", "IN"), ("to", "TO"),
    ("from", "IN"), ("the", "DT"), ("a", "DT"), ("this", "DT"), ("and", "CC"),
    ("or", "CC"), ("that", "WDT"), ("it", "PRP"),
)
# Tags given to generated content words, with their weights.
CONTENT_TAGS = (
    ("NN", 30), ("NNS", 10), ("VBZ", 8), ("VBN", 6), ("VBD", 4), ("JJ", 14),
    ("RB", 6), ("CD", 3), ("FW", 2), ("NNP", 5),
)
RELATIONS = ("nsubj", "dobj", "prep", "pobj", "amod", "nn", "conj", "det", "advmod")
MENTION_TAILS = ("kinase", "receptor", "alpha", "beta", "1", "2", "complex")
SYLLABLES = tuple(c + v for c in "bcdfghjklmnprstvz" for v in "aeiou")

# Per-workload sizes; see README.md for how they were chosen.
SIZES = {
    "cv_paper": {"sentences": 26, "length_scale": 9.0, "max_len": 38,
                 "lexicon": 3000, "epochs": 3},
    "preprocess_dense": {"sentences": 400, "lexicon": 3000},
    "tune_predict": {"train": 300, "heldout": 600, "length_scale": 7.0,
                     "max_len": 24, "lexicon": 12000, "epochs": 2},
}
WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# Shortest paths, as the README specifies them


def bfs_path(adjacency, src, dst):
    """Lexicographically smallest minimum-hop node sequence, or None.

    Distances are taken from the target; the walk from the source then
    moves to the smallest neighbour one hop closer at every step.
    """
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        node = queue.popleft()
        for nb in adjacency[node]:
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    if src not in dist:
        return None
    path = [src]
    while path[-1] != dst:
        here = path[-1]
        path.append(min(nb for nb in adjacency[here] if dist.get(nb) == dist[here] - 1))
    return path


def adjacency_of(node_count, edges):
    adj = [set() for _ in range(node_count)]
    for head, dep in edges:
        adj[head].add(dep)
        adj[dep].add(head)
    return [sorted(ns) for ns in adj]


# ---------------------------------------------------------------------------
# Vocabulary


class Lexicon:
    """Content words with tags and vectors; some are left out of the file."""

    def __init__(self, rng: random.Random, nprng: np.random.Generator, size: int):
        taken = set(INTERACTION_VERBS) | {w for w, _ in FUNCTION_WORDS}
        tags, weights = zip(*CONTENT_TAGS)
        self.words = []
        while len(self.words) < size:
            word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
            if word not in taken:
                taken.add(word)
                self.words.append((word, rng.choices(tags, weights)[0]))
        # every 12th content word is absent from the vector file (OOV)
        self.absent = {w for k, (w, _) in enumerate(self.words) if k % 12 == 5}
        # interaction verbs share one direction, longer than a typical word
        # vector (norm 0.25 * sqrt(200) = 3.5), so labels are learnable in a
        # few epochs
        verb_dir = nprng.normal(0.0, 1.0, WORD_DIM)
        verb_dir *= 5.0 / np.linalg.norm(verb_dir)
        self.vectors = {}
        for word, _ in self.words:
            if word not in self.absent:
                self.vectors[word] = nprng.normal(0.0, 0.25, WORD_DIM)
        for word, _ in FUNCTION_WORDS:
            self.vectors[word] = nprng.normal(0.0, 0.25, WORD_DIM)
        for word in INTERACTION_VERBS:
            self.vectors[word] = verb_dir + nprng.normal(0.0, 0.1, WORD_DIM)
        self.vectors["."] = nprng.normal(0.0, 0.25, WORD_DIM)

    def write(self, path):
        rows = [f"{len(self.vectors)} {WORD_DIM}"]
        for word, vec in self.vectors.items():
            rows.append(word + " " + " ".join(f"{x:.5f}" for x in vec))
        _write(path, rows)


def _surface(rng: random.Random, word: str) -> str:
    """About one token in ten is capitalized, so lookup falls back to lowercase."""
    return word.capitalize() if rng.random() < 0.1 else word


def content_word(rng, lex: Lexicon):
    word, tag = rng.choice(lex.words)
    return _surface(rng, word), tag


def filler_word(rng, lex: Lexicon, verb_share=0.05):
    """Off-path word: content, function word, or a distractor verb."""
    r = rng.random()
    if r < verb_share:
        return _surface(rng, rng.choice(INTERACTION_VERBS)), "VBZ"
    if r < 0.3:
        return rng.choice(FUNCTION_WORDS)
    return content_word(rng, lex)


def quantile_lengths(n, scale, max_len):
    """Fixed multiset of SDP lengths: 2 + exponential quantiles, capped."""
    return [
        min(max_len, 2 + int(-math.log(1.0 - (i + 0.5) / n) * scale)) for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Sentences


class Writer:
    """Accumulates corpus lines, edge lines and the truth record."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.corpus = []
        self.deps = []
        self.truth = []

    def add(self, sid, slots, edges, multi_token_share=0.0):
        """slots: generalized token sequence, ``None`` marking a mention;
        edges: (head, dependent) pairs over generalized indices, or None for
        a sentence that has no parse."""
        rng = self.rng
        raw, spans, gen_tokens, gen_tags, mention_at = [], [], [], [], []
        for idx, slot in enumerate(slots):
            if slot is None:
                eid = f"e{len(mention_at)}"
                name = (rng.choice(SYLLABLES).capitalize() + rng.choice(SYLLABLES)
                        + str(rng.randint(1, 99)))
                parts = [(name, "NNP")]
                if rng.random() < multi_token_share:
                    parts += [(rng.choice(MENTION_TAILS), "NN")] * rng.randint(1, 2)
                spans.append(f"{eid}:{len(raw)}:{len(raw) + len(parts) - 1}")
                raw += parts
                mention_at.append(idx)
                gen_tokens.append(None)
                gen_tags.append("NN")
            else:
                raw.append(slot)
                gen_tokens.append(slot[0])
                gen_tags.append(slot[1])
        positives, pairs = [], {}
        adj = adjacency_of(len(slots), edges or [])
        for a in range(len(mention_at)):
            for b in range(a + 1, len(mention_at)):
                path = bfs_path(adj, mention_at[a], mention_at[b])
                inner = path[1:-1] if path else []
                label = int(any(
                    gen_tokens[k] is not None and gen_tokens[k].lower() in INTERACTION_VERBS
                    for k in inner
                ))
                pairs[f"{sid}:e{a}-e{b}"] = label
                if label:
                    positives.append(f"e{a}-e{b}")
        self.corpus.append(
            f"{sid}\t{' '.join(f'{t}|{p}' for t, p in raw)}\t{';'.join(spans)}"
            f"\t{';'.join(positives)}"
        )
        if edges is not None:
            for head, dep in edges:
                self.deps.append(f"{sid}\t{head}\t{dep}\t{rng.choice(RELATIONS)}")
        self.truth.append({
            "id": sid,
            "tokens": gen_tokens,
            "tags": gen_tags,
            "mentions": mention_at,
            "edges": None if edges is None else [list(e) for e in edges],
            "pairs": pairs,
        })


def random_tree_edges(rng, nodes, parents_from=None):
    """Random recursive tree: each node attaches to a random earlier one."""
    placed = list(parents_from or [])
    edges = []
    for node in nodes:
        if placed:
            edges.append((rng.choice(placed), node))
        placed.append(node)
    return edges


def two_mention_sentence(rng, lex, length, positive):
    """A sentence whose two mentions are joined by an SDP of ``length`` tokens."""
    size = length + rng.randint(3, 9)
    order = list(range(size))
    rng.shuffle(order)
    chain, rest = order[:length], order[length:]
    slots = [None] * size
    for k in chain[1:-1]:
        while True:
            word, tag = content_word(rng, lex)
            if word.lower() not in INTERACTION_VERBS:
                break
        slots[k] = (word, tag)
    if positive:
        slots[rng.choice(chain[1:-1])] = (_surface(rng, rng.choice(INTERACTION_VERBS)), "VBZ")
    for k in rest:
        slots[k] = filler_word(rng, lex)
    edges = list(zip(chain, chain[1:])) + random_tree_edges(rng, rest, chain)
    rng.shuffle(edges)
    return slots, edges


def two_mention_corpus(writer, rng, lex, prefix, count, scale, max_len, positive_share):
    lengths = quantile_lengths(count, scale, max_len)
    rng.shuffle(lengths)
    eligible = [i for i, n in enumerate(lengths) if n >= 3]
    positives = set(rng.sample(eligible, round(positive_share * count)))
    for i, n in enumerate(lengths):
        slots, edges = two_mention_sentence(rng, lex, n, i in positives)
        writer.add(f"{prefix}{i:04d}", slots, edges)


# Mention-count multiset for the dense corpus, per 100 sentences: mostly
# 2-4 mentions with a heavy tail of 10-24-mention sentences.
DENSE_MENTIONS = (
    [2] * 36 + [3] * 22 + [4] * 14 + [5] * 6 + [6] * 4 + [7] * 3 + [8] * 2
    + [10, 11, 12, 13, 14, 15, 16, 18, 20, 24] + [9] * 3
)


def dense_sentence(rng, lex, mentions, kind):
    """kind: 'tree', 'cyclic' (extra edges), 'fragments', 'noparse' or 'chain'."""
    size = mentions + 6 + 2 * mentions + rng.randint(0, 6)
    if kind == "chain":
        size = max(size, 2 * MAX_SDP_TOKENS + 8)
    order = list(range(size))
    rng.shuffle(order)
    if kind == "chain":
        # a long spine with mentions spread along it: pairs at its two ends
        # are further apart than the cap
        spine = order[: 2 * MAX_SDP_TOKENS]
        stops = sorted(rng.sample(range(1, len(spine) - 1), mentions - 2))
        mention_nodes = {spine[0], spine[-1]} | {spine[s] for s in stops}
        edges = list(zip(spine, spine[1:])) + random_tree_edges(
            rng, order[len(spine):], spine
        )
    else:
        mention_nodes = set(rng.sample(order, mentions))
        if kind == "fragments":
            # two parse fragments, with mentions in both
            cut = size // 2
            half = (mentions + 1) // 2
            mention_nodes = set(order[:half] + order[cut : cut + mentions - half])
            edges = random_tree_edges(rng, order[:cut]) + random_tree_edges(rng, order[cut:])
        else:
            edges = random_tree_edges(rng, order)
        if kind == "cyclic":
            for _ in range(rng.randint(1, 3)):
                a, b = rng.sample(range(size), 2)
                edges.append((a, b))
            edges.append(tuple(reversed(edges[0])))  # duplicate, other orientation
    edges = [(a, b) for a, b in edges if a != b]
    slots = [None if k in mention_nodes else filler_word(rng, lex, verb_share=0.06)
             for k in range(size)]
    rng.shuffle(edges)
    return slots, (None if kind == "noparse" else edges)


def dense_corpus(writer, rng, lex, count):
    mentions = [DENSE_MENTIONS[i % len(DENSE_MENTIONS)] for i in range(count)]
    rng.shuffle(mentions)
    # fixed numbers of the special kinds, drawn from the 2-8 mention
    # sentences (chains need a third mention between their two ends)
    kinds = ["cyclic" if i % 3 == 0 else "tree" for i in range(count)]
    small = [i for i, m in enumerate(mentions) if m <= 8]
    rng.shuffle(small)
    per_kind = count // 30
    chains = [i for i in small if mentions[i] >= 3][:per_kind]
    rest = [i for i in small if i not in chains]
    for i in chains:
        kinds[i] = "chain"
    for i in rest[:per_kind]:
        kinds[i] = "noparse"
    for i in rest[per_kind : 2 * per_kind]:
        kinds[i] = "fragments"
    for i in range(count):
        slots, edges = dense_sentence(rng, lex, mentions[i], kinds[i])
        writer.add(f"d{i:05d}", slots, edges, multi_token_share=0.2)


# ---------------------------------------------------------------------------
# Entry point


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(workload: str, seed: int, out_dir: str, size: dict | None = None) -> dict:
    """Write every input file of ``workload`` into out_dir; return their paths.

    ``size`` replaces the workload's entry in SIZES (the self-test uses
    smaller inputs)."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    size = size or SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    nprng = np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload)]))
    os.makedirs(out_dir, exist_ok=True)
    lex = Lexicon(rng, nprng, size["lexicon"])
    writer = Writer(rng)
    config = {"seed": seed}
    if workload == "cv_paper":
        two_mention_corpus(writer, rng, lex, "cv", size["sentences"],
                           size["length_scale"], size["max_len"], 0.35)
        config.update(epochs=size["epochs"], k_folds=10)
    elif workload == "tune_predict":
        two_mention_corpus(writer, rng, lex, "tr", size["train"],
                           size["length_scale"], size["max_len"], 0.35)
        two_mention_corpus(writer, rng, lex, "ho", size["heldout"],
                           size["length_scale"], size["max_len"], 0.35)
        config.update(epochs=size["epochs"], tune_embeddings="true", learning_rate=0.005)
    else:
        dense_corpus(writer, rng, lex, size["sentences"])
    paths = {name: os.path.join(os.path.abspath(out_dir), name) for name in
             ("corpus.tsv", "deps.tsv", "vectors.txt", "config.txt", "truth.json")}
    if workload != "preprocess_dense":
        lex.write(paths["vectors.txt"])
        config["embedding_path"] = paths["vectors.txt"]
        config["embedding_dim"] = WORD_DIM
    _write(paths["corpus.tsv"], writer.corpus)
    _write(paths["deps.tsv"], writer.deps)
    _write(paths["config.txt"], [f"{k}={v}" for k, v in config.items()])
    with open(paths["truth.json"], "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "sentences": writer.truth,
        }, fh)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
