"""End-to-end orchestration: preprocessing, training, evaluation, k-fold CV.

Instances flow as sparse codes (tokens, PoS classes, thermometer position
codes).  The PoS classes follow from the tags and the PoS table, and the
position codes from the path length and the window, so the instances file
(version 5, columnar) stores neither and its reader derives both.
The dense token vectors are assembled at training time because the feature
autoencoders are fit on the training split only.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from . import corpus as corpus_mod
from .corpus import (
    PROT1,
    PROT2,
    PROTX,
    CandidatePair,
    SentenceRecord,
    collapse_entities,
    generate_candidates,
    split_folds,
)
from .depgraph import (
    MAX_SDP_TOKENS,
    build_graph,
    paths_from,
)
from .embed import EmbeddingTable, load_embeddings, lookup
from .errors import (
    ConfigError,
    DimensionMismatch,
    Disconnected,
    EmptyTrainingSet,
    FormatError,
    MissingDependencyData,
    NonFiniteGradient,
    NonFiniteLoss,
    PathTooLong,
    reading_text,
)
from .features import (
    OTHER_CLASS,
    POS_DIM,
    Autoencoder,
    encode_dense,
    encode_pos_onehot,
    encode_position,
    load_pos_table,
    train_autoencoders,
)
from .neural import (
    MODEL_KINDS,
    ACTIVATIONS,
    cross_entropy,
    dropout_mask,
)
from .optim import AdadeltaState, AdamState, adadelta_step, adam_step

SPECIAL_TOKENS = (PROT1, PROT2, PROTX)

REPORT_HEADER = "fold,tp,fp,fn,tn,precision,recall,f1"
INSTANCES_FORMAT = "sdprel-instances"
INSTANCES_VERSION = 5
POSITION_WINDOWS = range(5, 13)  # thermometer code widths the method allows
EXCLUSION_REASONS = ("disconnected", "path_too_long")
_ID_FIELDS = ("instance_id", "sentence_id", "prot1", "prot2")
_INSTANCE_FIELDS = (*_ID_FIELDS, "label", "tokens", "pos_tags")
_EXCLUDED_FIELDS = (*_ID_FIELDS, "label", "reason")
_POS_CLASS_SET = frozenset(range(POS_DIM))
_FEATURE_KEYS = ("position_window", "use_pos", "use_position")  # what an instance's codes hold


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainConfig:
    """Every stage's settings.  Making a config checks it, so an invalid one
    raises ConfigError and never exists; a config cannot change once made."""

    model: str = "bilstm"  # bilstm | mlp | rnn
    lstm_units: int = 64
    dropout: float = 0.3
    activation: str = "sigmoid"
    optimizer: str = "adam"  # adam | adadelta
    learning_rate: float = 0.001
    epochs: int = 130
    mlp_hidden: int = 30
    mlp_depth: int = 1
    mlp_pad_len: int = 20
    batch: int = 16
    seed: int = 13
    use_pos: bool = True
    use_position: bool = True
    position_window: int = 10
    embedding_path: str = ""
    embedding_dim: int = 200
    k_folds: int = 10
    ae_epochs: int = 1500
    tune_embeddings: bool = False
    score_excluded: bool = True

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, getattr(self, f.name), type(f.default))
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.optimizer not in ("adam", "adadelta"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.position_window not in POSITION_WINDOWS:
            raise ConfigError("position_window must be in [5, 12]")
        if self.batch < 1 or self.lstm_units < 1 or self.mlp_hidden < 1:
            raise ConfigError("batch, lstm_units and mlp_hidden must be positive")
        if self.mlp_depth < 1 or self.mlp_pad_len < 1:
            raise ConfigError("mlp_depth and mlp_pad_len must be positive")
        if self.embedding_dim < 1 or self.ae_epochs < 1:
            raise ConfigError("embedding_dim and ae_epochs must be positive")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be at least 2")
        if not 0.0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    @property
    def input_dim(self) -> int:
        """The width of a token row: word vector, PoS code, two position codes."""
        return (self.embedding_dim + POS_DIM * self.use_pos
                + 2 * self.position_window * self.use_position)

    def replace(self, **kw) -> "TrainConfig":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """Flat key=value file; '#' comments and blank lines are ignored.  A
        relative embedding_path is made absolute against the working directory,
        so that a checkpoint finds the vectors file from any directory."""
        known = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        set_on: dict[str, int] = {}  # key -> the line that set it
        with open(path, encoding="utf-8-sig") as fh, reading_text(path):
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in known:
                    raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
                if set_on.setdefault(key, line_no) != line_no:
                    raise ConfigError(f"{path}:{line_no}: {key!r} is set twice, "
                                      f"on lines {set_on[key]} and {line_no}")
                values[key] = _coerce(key, value, known[key].default, line_no, path)
        if values.get("embedding_path"):
            values["embedding_path"] = os.path.abspath(values["embedding_path"])
        return cls(**values)


def _check_type(key, value, kind):
    """A field holds a value of its default's type; a float field takes an int
    too, and no number field takes a bool."""
    kinds = (int, float) if kind is float else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{key} expects {kind.__name__}, got {value!r}")


def _coerce(key, value, default, line_no, path):
    if isinstance(default, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{path}:{line_no}: {key} expects a boolean, got {value!r}")
    try:
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
    except ValueError:
        raise ConfigError(f"{path}:{line_no}: bad value for {key}: {value!r}") from None
    return value


# ---------------------------------------------------------------------------
# Instances


@dataclass(slots=True)
class SdpInstance:
    instance_id: str
    sentence_id: str
    prot1: str
    prot2: str
    label: int
    tokens: tuple[str, ...]
    pos_tags: tuple[str, ...]
    pos_classes: tuple[int, ...]
    pos1_codes: np.ndarray  # (n, window) distances from PROT1
    pos2_codes: np.ndarray  # (n, window) distances from PROT2


@dataclass(frozen=True, slots=True)
class ExcludedInstance:
    instance_id: str
    sentence_id: str
    prot1: str
    prot2: str
    label: int
    reason: str  # one of EXCLUSION_REASONS


@dataclass
class PreprocessResult:
    instances: list[SdpInstance]
    excluded: list[ExcludedInstance]
    position_window: int
    use_pos: bool
    use_position: bool
    pos_table: dict[str, int] = field(default_factory=load_pos_table)  # tag -> PoS class

    @property
    def generated(self) -> int:
        return len(self.instances) + len(self.excluded)

    def stats(self) -> dict:
        positives, negatives, ratio = corpus_mod.class_stats(self.instances + self.excluded)
        return {
            "generated": self.generated,
            "evaluable": len(self.instances),
            "excluded_disconnected": sum(
                1 for e in self.excluded if e.reason == "disconnected"
            ),
            "excluded_path_too_long": sum(
                1 for e in self.excluded if e.reason == "path_too_long"
            ),
            "positives": positives,
            "negatives": negatives,
            "ratio": ratio,
        }


def _pair_id(pair: CandidatePair) -> str:
    return f"{pair.sentence_id}:{pair.prot1}-{pair.prot2}"


def _position_table(window: int) -> np.ndarray:
    """Row d is the thermometer code of distance d; row ``window`` is the cap."""
    return np.stack([encode_position(d, window) for d in range(window + 1)])


def _by_distance(rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows for the tokens of paths of these lengths, one path after another,
    picked by distance from PROT1 (each path's first token) and from PROT2 (its
    last); the last row stands for every longer distance."""
    ends = np.cumsum(lengths)
    k = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)  # position within the path
    cap = len(rows) - 1
    return rows[np.minimum(k, cap)], rows[np.minimum(np.repeat(lengths - 1, lengths) - k, cap)]


class _PositionCodes(dict):
    """Path length -> its (pos1, pos2) code matrices, built on first use and
    then shared, read-only, by every instance of that length."""

    def __init__(self, window: int):
        super().__init__()
        self.table = _position_table(window)

    def __missing__(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        codes = _by_distance(self.table, np.array([n]))
        for m in codes:
            m.flags.writeable = False
        self[n] = codes
        return codes


class _TagClasses(dict):
    """Tag -> its class in a PoS table, or OTHER_CLASS for a tag the table
    lacks, kept on first use."""

    def __missing__(self, tag: str) -> int:
        self[tag] = OTHER_CLASS
        return OTHER_CLASS


def preprocess(
    sentences: list[SentenceRecord],
    deps: dict[str, list[tuple[int, int]]],
    config: TrainConfig,
    pos_table: dict[str, int] | None = None,
    require_deps: bool = False,
) -> PreprocessResult:
    """Candidate pairs -> collapsed entities -> SDP -> sparse feature codes.

    A sentence absent from ``deps`` is an edgeless graph, so its pairs land
    in the exclusion list as disconnected; pass require_deps=True to raise
    MissingDependencyData instead.  The ``(head, dep)`` edge indices refer to
    the generalized token sequence (every entity collapsed to one token).

    Each sentence's entities are collapsed once, and one BFS runs from each
    first mention to all of its partners.  Instances of one path length
    share their read-only position code matrices; copy one before writing.
    The result records the PoS table, the bundled one when none is given.
    """
    window = config.position_window
    pos_table = dict(pos_table) if pos_table is not None else load_pos_table()
    codes, tag_classes = _PositionCodes(window), _TagClasses(pos_table)
    instances: list[SdpInstance] = []
    excluded: list[ExcludedInstance] = []
    for s in sentences:
        pairs = generate_candidates(s)
        if not pairs:
            continue
        edges = deps.get(s.id)
        if edges is None:
            if require_deps:
                raise MissingDependencyData(s.id)
            edges = []
        collapsed = collapse_entities(s)
        graph = build_graph(collapsed.record, edges)
        tokens, tags = collapsed.record.tokens, collapsed.record.pos_tags
        classes = list(map(tag_classes.__getitem__, tags))
        # candidates come ordered by prot1, so each source's pairs are adjacent
        for prot1, group in itertools.groupby(pairs, key=lambda p: p.prot1):
            group = list(group)
            src = collapsed.node(prot1)
            dsts = [collapsed.node(pair.prot2) for pair in group]
            for pair, path in zip(group, paths_from(graph, src, dsts, MAX_SDP_TOKENS)):
                if isinstance(path, (Disconnected, PathTooLong)):
                    reason = "disconnected" if isinstance(path, Disconnected) else "path_too_long"
                    excluded.append(ExcludedInstance(
                        _pair_id(pair), s.id, pair.prot1, pair.prot2, pair.label, reason))
                    continue
                nodes = path.node_indices
                on_path = itemgetter(*nodes)  # a path has 2 or more nodes, so this gives tuples
                instances.append(SdpInstance(
                    _pair_id(pair), s.id, pair.prot1, pair.prot2, pair.label,
                    (PROT1, *on_path(tokens)[1:-1], PROT2), on_path(tags), on_path(classes),
                    *codes[len(nodes)]))
    return PreprocessResult(instances, excluded, window, config.use_pos, config.use_position,
                            pos_table)


def check_features(result: PreprocessResult, config: TrainConfig, made_by, source: str) -> None:
    """Raise ConfigError unless the config uses the features the result was made with."""
    for key in _FEATURE_KEYS:
        made, wanted = getattr(result, key), getattr(config, key)
        if made != wanted:
            raise ConfigError(
                f"{made_by} was made with {key}={made}, but the {source} has {key}={wanted}")


def instances_to_json(result: PreprocessResult, config: TrainConfig) -> str:
    """Compact version 5 document.  The instances and the excluded pairs are
    each an object of equal-length columns, one list per field; a path's
    tokens are one string, its words joined by single spaces, and so are its
    PoS tags.  The PoS classes and the position codes are left to the reader.
    A config whose features are not the result's raises ConfigError, and a
    path whose tokens or tags the file cannot give back (no word, an empty
    word or a word with a space) raises FormatError naming its instance."""
    check_features(result, config, "the result", "config")
    instances = result.instances
    doc = {
        "format": INSTANCES_FORMAT,
        "version": INSTANCES_VERSION,
        **{key: getattr(result, key) for key in _FEATURE_KEYS},
        "pos_table": result.pos_table,
        "instances": {k: list(map(attrgetter(k), instances)) for k in _INSTANCE_FIELDS},
        "excluded": {k: list(map(attrgetter(k), result.excluded)) for k in _EXCLUDED_FIELDS},
    }
    for key in ("tokens", "pos_tags"):
        doc["instances"][key] = _joined(instances, doc["instances"][key], key)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _joined(instances: list[SdpInstance], paths: list[tuple[str, ...]], key: str) -> list[str]:
    """Each path's words joined by single spaces.  Splitting a line at its
    spaces gives its words back when it has one space fewer than words and
    no word is empty, which the column is checked for at once; only a column
    that fails is searched for the first path that breaks the rule."""
    lines = list(map(" ".join, paths))
    spaces = sum(map(str.count, lines, itertools.repeat(" ")))
    if spaces + len(lines) != sum(map(len, paths)) or "" in itertools.chain.from_iterable(paths):
        for inst, words, line in zip(instances, paths, lines):
            if "" in words or line.split(" ") != list(words):
                raise FormatError(f"instance {inst.instance_id!r}: {key} must be one or more "
                                  f"non-empty words without spaces, got {words!r}")
    return lines


def instances_from_json(text: str) -> PreprocessResult:
    """Parse an instances file of version 5; malformed content raises FormatError.

    Every instance row and then every excluded row is checked once, in file
    order, so that the error names the first bad row; the instances are then
    built one column at a time.  Equal tokens, tags, sentence ids, mention
    ids and reasons are one string across the result.  Each tag's PoS class
    is derived from the file's own PoS table and each path's position codes
    from its length and the window.  A file of version 1 to 4 is rejected:
    preprocessing the corpus again rebuilds it.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("format") != INSTANCES_FORMAT:
            raise ConfigError("not an sdprel instances file")
        version = doc.get("version")
        if type(version) is int and 1 <= version < INSTANCES_VERSION:
            raise ConfigError(f"instances file version {version} is no longer read; "
                              "run `sdprel preprocess` again to rebuild it")
        if type(version) is not int or version != INSTANCES_VERSION:
            raise ConfigError(
                f"instances file version {version!r}, reader supports version {INSTANCES_VERSION}")
        window = doc["position_window"]
        if type(window) is not int or window not in POSITION_WINDOWS:
            raise FormatError(f"position_window must be an integer in [5, 12], got {window!r}")
        flags = doc["use_pos"], doc["use_position"]
        if not all(type(flag) is bool for flag in flags):
            raise FormatError(f"use_pos and use_position must be booleans, got {flags!r}")
        pos_table = _checked_pos_table(doc["pos_table"])
        instance_columns = _columns(doc, "instances", _INSTANCE_FIELDS, _instance_fault)
        excluded_columns = _columns(doc, "excluded", _EXCLUDED_FIELDS, _excluded_fault)
        shared: dict[str, str] = {}  # one object per distinct string value
        instances = _instances_of(instance_columns, window, pos_table, shared.setdefault)
        excluded = _excluded_of(excluded_columns, shared.setdefault)
        ids = [i.instance_id for i in itertools.chain(instances, excluded)]
        if len(set(ids)) != len(ids):  # each pair is one instance or one excluded pair, once
            seen: set[str] = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise FormatError(f"instance id {repeated!r} appears more than once")
        return PreprocessResult(instances, excluded, window, *flags, pos_table)
    except KeyError as exc:
        raise FormatError(f"instances file is missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed instances file: {exc}") from None


def _checked_pos_table(table) -> dict[str, int]:
    if not (type(table) is dict and set(map(type, table.values())) <= {int}
            and set(table.values()) <= _POS_CLASS_SET):
        raise FormatError(f"pos_table must map tags to integers in 0..{POS_DIM - 1}")
    return table


def _columns(doc: dict, key: str, fields: tuple[str, ...], fault) -> list[list]:
    """The columns of doc[key], an object of equal-length lists named `fields`,
    in that order, once `fault` has passed each row in turn; the first row
    that it finds breaking a rule raises FormatError naming it."""
    node = doc[key]
    if type(node) is not dict:
        raise FormatError(f"{key} must be an object of columns")
    unknown = node.keys() - set(fields)
    if unknown:
        raise FormatError(f"unknown {key} columns {sorted(unknown)}")
    columns = [node[k] for k in fields]
    if not (all(type(c) is list for c in columns) and len(set(map(len, columns))) == 1):
        raise FormatError(f"the {key} columns must be lists of equal length")
    for row in zip(*columns):
        what = fault(*row)
        if what is not None:
            raise FormatError(f"instance {row[0]!r}: {what}")
    return columns


def _ids_and_label_fault(iid, sid, prot1, prot2, label) -> str | None:
    if not type(iid) is type(sid) is type(prot1) is type(prot2) is str:
        return f"{', '.join(_ID_FIELDS)} must be strings"
    if type(label) is not int or label not in (0, 1):
        return f"label must be 0 or 1, got {label!r}"
    return None


def _instance_fault(iid, sid, prot1, prot2, label, tokens, pos_tags) -> str | None:
    """The first rule that one instance row breaks, or None."""
    if not (type(tokens) is str and type(pos_tags) is str and tokens and pos_tags
            and tokens.count(" ") == pos_tags.count(" ")):
        return "tokens and pos_tags must be non-empty strings of the same word count"
    fault = _ids_and_label_fault(iid, sid, prot1, prot2, label)
    # a non-empty string holds an empty word where it starts or ends with a
    # space or has two in a row
    if fault is None and (" " in (tokens[0], tokens[-1], pos_tags[0], pos_tags[-1])
                          or "  " in tokens or "  " in pos_tags):
        fault = "tokens and pos_tags must not hold an empty word"
    return fault


def _excluded_fault(iid, sid, prot1, prot2, label, reason) -> str | None:
    """The first rule that one excluded row breaks, or None."""
    fault = _ids_and_label_fault(iid, sid, prot1, prot2, label)
    if fault is None and reason not in EXCLUSION_REASONS:
        fault = f"reason must be one of {EXCLUSION_REASONS}, got {reason!r}"
    return fault


def _words_of(lines: list[str], share) -> dict[str, tuple[str, ...]]:
    """Each distinct line -> the tuple of its space-separated words, equal
    words one object through `share`."""
    distinct = dict.fromkeys(lines)
    return dict(zip(distinct, [tuple(map(share, words, words))
                               for words in map(str.split, distinct, itertools.repeat(" "))]))


def _instances_of(columns: list[list], window: int, pos_table, share) -> list[SdpInstance]:
    """The instances of checked columns, each tag's class from the PoS table.
    Instances with equal token lines share one tuple of tokens, and those with
    equal tag lines one tuple of tags, one of classes and read-only position
    codes."""
    iids, sids, prot1s, prot2s, labels, token_lines, tag_lines = columns
    codes, tag_classes = _PositionCodes(window), _TagClasses(pos_table)
    words_of = _words_of(token_lines, share)
    by_tags = {line: (tags, tuple(map(tag_classes.__getitem__, tags)), *codes[len(tags)])
               for line, tags in _words_of(tag_lines, share).items()}
    return [SdpInstance(iid, sid, p1, p2, label, words_of[line], *by_tags[tag_line])
            for iid, sid, p1, p2, label, line, tag_line
            in zip(iids, map(share, sids, sids), map(share, prot1s, prot1s),
                   map(share, prot2s, prot2s), labels, token_lines, tag_lines)]


def _excluded_of(columns: list[list], share) -> list[ExcludedInstance]:
    iids, sids, prot1s, prot2s, labels, reasons = columns
    return list(map(ExcludedInstance, iids, map(share, sids, sids), map(share, prot1s, prot1s),
                    map(share, prot2s, prot2s), labels, map(share, reasons, reasons)))


# ---------------------------------------------------------------------------
# Vectorization


class TokenRows(NamedTuple):
    """The token rows of instances, one instance after another: row r is
    [word_vectors[word_ids[r]] | fixed[r]], and row k of word_vectors is the
    vector of words[k], the sorted words of the instances and the special tokens."""

    lengths: np.ndarray
    words: list[str]
    word_vectors: np.ndarray
    word_ids: np.ndarray
    fixed: np.ndarray  # [PoS | position from PROT1 | from PROT2] columns

    def stacked(self, tokens=slice(None)) -> np.ndarray:
        """The rows of these tokens, by index; by default every token's."""
        words = self.word_vectors[self.word_ids[tokens]]
        return np.concatenate([words, self.fixed[tokens]], axis=1)


@dataclass
class Vectorizer:
    """Turns SdpInstances' sparse codes into dense token vectors.

    The dense codes are encoded once per PoS class and per capped distance
    into ``pos_rows`` and ``position_rows``, then gathered per token.
    """

    table: EmbeddingTable
    pos_ae: Autoencoder | None
    position_ae: Autoencoder | None
    overrides: dict[str, np.ndarray] = field(default_factory=dict)
    pos_rows: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)
    position_rows: np.ndarray | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.use_pos:
            self.pos_rows = np.stack(
                [encode_dense(self.pos_ae, encode_pos_onehot(c)) for c in range(POS_DIM)]
            )
        if self.use_position:
            self.position_rows = np.stack(
                [encode_dense(self.position_ae, code)
                 for code in _position_table(self.position_ae.dim)]
            )

    @property
    def use_pos(self) -> bool:
        return self.pos_ae is not None

    @property
    def use_position(self) -> bool:
        return self.position_ae is not None

    @property
    def token_dim(self) -> int:
        dim = self.table.dimension
        if self.use_pos:
            dim += POS_DIM
        if self.use_position:
            dim += 2 * self.position_ae.dim
        return dim

    def word_vector(self, token: str) -> np.ndarray:
        vec = self.overrides.get(token)
        return lookup(self.table, token) if vec is None else vec

    def token_rows(self, instances: list[SdpInstance]) -> TokenRows:
        """The instances' token rows: each distinct word is looked up once, and the
        PoS and position columns are one gather each."""
        for inst in instances:
            if self.use_pos and not set(inst.pos_classes) <= _POS_CLASS_SET:
                raise DimensionMismatch(f"PoS classes {inst.pos_classes} outside 0..{POS_DIM - 1}")
            if self.use_position and inst.pos1_codes.shape[1] != self.position_ae.dim:
                raise DimensionMismatch(f"position codes are {inst.pos1_codes.shape[1]} wide, "
                                        f"the position autoencoder takes {self.position_ae.dim}")
        tokens = list(itertools.chain.from_iterable(inst.tokens for inst in instances))
        lengths = np.fromiter((len(inst.tokens) for inst in instances), np.intp, len(instances))
        words = sorted(set(SPECIAL_TOKENS).union(tokens))
        index = {w: k for k, w in enumerate(words)}
        word_ids = np.fromiter(map(index.__getitem__, tokens), np.intp, len(tokens))
        word_vectors = np.stack([self.word_vector(w) for w in words])
        fixed = [np.empty((len(tokens), 0))]
        if self.use_pos:
            classes = itertools.chain.from_iterable(inst.pos_classes for inst in instances)
            fixed.append(self.pos_rows[np.fromiter(classes, np.intp, len(tokens))])
        if self.use_position:
            fixed += _by_distance(self.position_rows, lengths)
        fixed = np.concatenate(fixed, axis=1)
        used_finite = np.isfinite(word_vectors).all(axis=1)[word_ids]  # an unused word is not read
        if not (used_finite.all() and np.isfinite(fixed).all()):
            raise DimensionMismatch("token vector has non-finite components")
        return TokenRows(lengths, words, word_vectors, word_ids, fixed)

    def vectorize(self, inst: SdpInstance) -> np.ndarray:
        """(n, token_dim) rows of [word | pos | position from PROT1 | from PROT2]."""
        return self.token_rows([inst]).stacked()


def load_table(config: TrainConfig, oov_seed: int) -> EmbeddingTable:
    """The config's word vectors, or an empty table of its dimension."""
    if config.embedding_path:
        table = load_embeddings(config.embedding_path, oov_seed=oov_seed)
        return _checked_dimension(config, table, config.embedding_path)
    return EmbeddingTable.empty(config.embedding_dim, oov_seed=oov_seed)


def _checked_dimension(config: TrainConfig, table: EmbeddingTable, source) -> EmbeddingTable:
    if table.dimension != config.embedding_dim:
        raise DimensionMismatch(
            f"{source} holds {table.dimension}-d vectors, "
            f"the config sets embedding_dim={config.embedding_dim}"
        )
    return table


def pretrain_autoencoders(
    config: TrainConfig, instances: list[SdpInstance]
) -> tuple[Autoencoder | None, Autoencoder | None]:
    """Fit the PoS and position autoencoders on codes from these instances.

    Training samples are the distinct codes observed, in lexicographic
    order, so the result depends only on the code set and the seed.
    """
    return _pretrain_stacked(config, [instances], [config.seed])[0]


def _pretrain_stacked(
    config: TrainConfig, train_sets: list[list[SdpInstance]], seeds: list[int]
) -> list[tuple[Autoencoder | None, Autoencoder | None]]:
    """``pretrain_autoencoders(config.replace(seed=seed), instances)`` for each
    training set and its seed.  The sets whose distinct codes are equal share
    one stacked ``train_autoencoders`` run, one row per set."""
    if not all(train_sets):
        raise EmptyTrainingSet("no training instances")
    pos = position = [None] * len(train_sets)
    if config.use_pos:
        pos = _fit_by_sample_set([_pos_samples(insts) for insts in train_sets],
                                 POS_DIM, config.ae_epochs, seeds)
    if config.use_position:
        window = config.position_window
        position = _fit_by_sample_set([_position_samples(insts, window) for insts in train_sets],
                                      window, config.ae_epochs, seeds)
    return list(zip(pos, position))


def _pos_samples(instances: list[SdpInstance]) -> np.ndarray:
    """The distinct PoS one-hots of these instances, in lexicographic order: by
    descending class index.  Each class is encoded once, in first-seen order,
    so the first bad class is the one reported."""
    classes = dict.fromkeys(c for i in instances for c in i.pos_classes)
    rows = {c: encode_pos_onehot(c) for c in classes}
    return np.stack([rows[c] for c in sorted(rows, reverse=True)])


def _position_samples(instances: list[SdpInstance], window: int) -> np.ndarray:
    """The distinct position codes of these instances, in lexicographic order:
    the codes of distances 0 up to the longest path's last, capped at the window."""
    for inst in instances:
        for codes in (inst.pos1_codes, inst.pos2_codes):
            if codes.shape[1] != window:
                raise DimensionMismatch(f"position codes are {codes.shape[1]} wide, "
                                        f"the position window is {window}")
    longest = max(len(inst.pos1_codes) for inst in instances)
    return _position_table(window)[: min(longest, window + 1)]


def _fit_by_sample_set(sample_sets: list[np.ndarray], d: int, epochs: int, seeds: list[int]):
    """One autoencoder per (samples, seed) pair, from one stacked fit per distinct
    sample set."""
    groups: dict[bytes, list[int]] = {}
    for k, samples in enumerate(sample_sets):
        groups.setdefault(samples.tobytes(), []).append(k)  # rows are d wide, so bytes fix the set
    fits = [None] * len(sample_sets)
    for members in groups.values():
        stacked = train_autoencoders(sample_sets[members[0]], d, epochs, [seeds[k] for k in members])
        for k, ae in zip(members, stacked):
            fits[k] = ae
    return fits


def _checked_autoencoders(config: TrainConfig, autoencoders):
    """The pre-fit (pos_ae, position_ae) pair, once it is known to suit the config."""
    pos_ae, position_ae = autoencoders
    for ae, flag, enabled, dim, what in (
        (pos_ae, "use_pos", config.use_pos, POS_DIM, "PoS"),
        (position_ae, "use_position", config.use_position, config.position_window, "position"),
    ):
        if (ae is not None) != enabled:
            state = "missing" if ae is None else "given"
            raise ConfigError(f"{flag}={enabled}, but the {what} autoencoder is {state}")
        if ae is not None and ae.dim != dim:
            raise DimensionMismatch(f"the {what} autoencoder is {ae.dim}-d, the config needs {dim}")
    return pos_ae, position_ae


# ---------------------------------------------------------------------------
# Models / training


def build_model(config: TrainConfig, rng: np.random.Generator | None = None):
    """The config's model over its token rows: Glorot draws from rng, or all zeros."""
    size = {"pad_len": config.mlp_pad_len} if config.model == "mlp" else {"units": config.lstm_units}
    size.update(hidden_size=config.mlp_hidden, depth=config.mlp_depth, activation=config.activation)
    cls = MODEL_KINDS[config.model]
    return (cls(config.input_dim, **size) if rng is None
            else cls.init(rng, config.input_dim, **size))


@dataclass
class Checkpoint:
    """A trained model and its input encoder: the config, the model's parameter
    vector `theta` and the arrays.  The model's kind, input width and layout
    follow from the config.  ``embedding_digest`` is the digest of the vectors
    file it was trained on, None for a table without a file or a checkpoint
    written without it."""

    config: TrainConfig
    theta: np.ndarray
    pos_ae: Autoencoder | None
    position_ae: Autoencoder | None
    pos_table: dict[str, int]
    oov_seed: int
    token_vectors: dict[str, np.ndarray]
    embedding_digest: str | None = None

    def build_model(self):
        model = build_model(self.config)
        if self.theta.shape != model.theta.shape:
            raise DimensionMismatch(f"checkpoint theta has shape {self.theta.shape}, the "
                                    f"config's {self.config.model} needs {model.theta.shape}")
        model.theta[...] = self.theta
        if not np.all(np.isfinite(model.theta)):
            bad = _first_non_finite(model.tensors())
            raise FormatError(f"checkpoint tensor {bad} is not finite")
        return model

    def build_vectorizer(self, table: EmbeddingTable | None = None) -> Vectorizer:
        if table is None:
            table = load_table(self.config, self.oov_seed)
        elif table.oov_seed != self.oov_seed:
            raise ConfigError(f"embedding table has oov_seed {table.oov_seed}, "
                              f"the checkpoint was trained with oov_seed {self.oov_seed}")
        trained_on = self.embedding_digest
        if trained_on is not None and table.digest not in (None, trained_on):
            raise ConfigError(
                f"{self.config.embedding_path} has changed since training: its blake2b digest "
                f"is {table.digest[:16]}..., the checkpoint's is {trained_on[:16]}...")
        vec = Vectorizer(table, self.pos_ae, self.position_ae, dict(self.token_vectors))
        if vec.token_dim != self.config.input_dim:
            raise DimensionMismatch(
                f"vectorizer dimension {vec.token_dim} does not match checkpoint "
                f"input dimension {self.config.input_dim}"
            )
        if any(v.shape != (table.dimension,) for v in self.token_vectors.values()):
            raise DimensionMismatch(f"checkpoint token vectors are not {table.dimension}-d")
        return vec


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    epoch_losses: list[float]


def _make_masks(model, rate: float, rng: np.random.Generator, count: int):
    """Dropout masks for `count` instances, drawn instance by instance, s then m."""
    if rate == 0.0:
        return None
    s_dim = model.head.hidden[0][0].shape[1]
    both = dropout_mask((count, s_dim + model.head.w_out.shape[1]), rate, rng)
    return {"s": both[:, :s_dim], "m": both[:, s_dim:]}


def _first_non_finite(tensors: dict[str, np.ndarray]) -> str:
    return next(name for name, arr in tensors.items() if not np.all(np.isfinite(arr)))


def _span_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The rows starts[k] .. starts[k] + lengths[k] - 1 for every k, one after another."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def train(
    config: TrainConfig,
    instances: list[SdpInstance],
    embeddings: EmbeddingTable | None = None,
    pos_table: dict[str, int] | None = None,
    autoencoders: tuple[Autoencoder | None, Autoencoder | None] | None = None,
) -> TrainResult:
    """Mini-batch training; deterministic for a fixed (config, data) pair.

    ``autoencoders`` is a pre-fit (pos_ae, position_ae) pair, each None where
    the config disables its feature; by default both are fit on `instances`.
    """
    if not instances:
        raise EmptyTrainingSet("no training instances")
    if embeddings is None:
        table = load_table(config, config.seed)
    else:
        table = _checked_dimension(config, embeddings, "the embedding table")
    if autoencoders is None:
        pos_ae, position_ae = pretrain_autoencoders(config, instances)
    else:
        pos_ae, position_ae = _checked_autoencoders(config, autoencoders)

    vectorizer = Vectorizer(table, pos_ae, position_ae)
    rows = vectorizer.token_rows(instances)
    # one (V x D) matrix of the words' vectors, which tuning changes in place; the
    # checkpoint keeps row views of every word when tuning, else copies of the
    # special tokens' rows, so that it does not hold the whole matrix
    emb = rows.word_vectors
    overrides = dict(zip(rows.words, emb))
    if not config.tune_embeddings:
        overrides = {w: overrides[w].copy() for w in sorted(SPECIAL_TOKENS)}
    rng = np.random.Generator(np.random.PCG64(config.seed))
    model = build_model(config, rng)

    params = {"theta": model.theta}
    if config.tune_embeddings:
        # every row steps on every batch, so with Adam a row the batch lacks moves by momentum
        params["emb"] = emb
    starts = np.cumsum(rows.lengths) - rows.lengths

    if config.optimizer == "adam":
        opt_state, opt_step = AdamState(lr=config.learning_rate), adam_step
    else:
        opt_state, opt_step = AdadeltaState(), adadelta_step

    labels = np.array([inst.label for inst in instances])
    # every step's model gradient goes to the same buffer, so no step allocates it;
    # the word gradient holds only the rows of the batch's distinct words,
    # grad_rows["emb"], and the optimizer steps every other row at gradient zero
    grads = {"theta": np.empty_like(model.theta)}
    grad_rows = {}

    def step(batch: np.ndarray) -> float:
        """One optimizer step on the instances `batch`; returns their summed loss."""
        masks = _make_masks(model, config.dropout, rng, len(batch))
        tokens = _span_rows(starts[batch], rows.lengths[batch])
        cache = model.forward_batch(rows.stacked(tokens), rows.lengths[batch], masks)
        loss = np.sum(cross_entropy(cache["probs"][:, 1], labels[batch]))
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"training loss became non-finite: {loss}")
        _, d_xs = model.backward_batch(cache, labels[batch], input_grad=config.tune_embeddings,
                                       out=grads["theta"])
        if config.tune_embeddings:
            grad_rows["emb"], inverse = np.unique(rows.word_ids[tokens], return_inverse=True)
            grads["emb"] = np.zeros((len(grad_rows["emb"]), table.dimension))
            np.add.at(grads["emb"], inverse, d_xs[:, : table.dimension])
        for g in grads.values():
            if not np.all(np.isfinite(g)):
                bad = _first_non_finite({**model.tensors(grads["theta"]), **grads})
                raise NonFiniteGradient(f"non-finite gradient in {bad}")
            g *= 1.0 / len(batch)
        opt_step(opt_state, params, grads, grad_rows)
        return float(loss)

    order = np.arange(len(instances))
    losses: list[float] = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        epoch_loss = sum(step(order[start : start + config.batch])
                         for start in range(0, len(order), config.batch))
        losses.append(epoch_loss / len(instances))

    checkpoint = Checkpoint(
        config=config,
        theta=model.theta,
        pos_ae=pos_ae,
        position_ae=position_ae,
        pos_table=dict(pos_table) if pos_table is not None else load_pos_table(),
        oov_seed=table.oov_seed,
        token_vectors=overrides,
        embedding_digest=table.digest,
    )
    return TrainResult(checkpoint=checkpoint, epoch_losses=losses)


def baseline_mlp(
    config: TrainConfig, instances, embeddings=None, pos_table=None
) -> TrainResult:
    """Baseline 1: fixed-length concatenation of token vectors into the head."""
    return train(config.replace(model="mlp"), instances, embeddings, pos_table)


def baseline_rnn(
    config: TrainConfig, instances, embeddings=None, pos_table=None
) -> TrainResult:
    """Baseline 2: simple sigmoid RNN, final hidden state into the head."""
    return train(config.replace(model="rnn"), instances, embeddings, pos_table)


# ---------------------------------------------------------------------------
# Prediction / metrics


def predict(ck: Checkpoint, instance: SdpInstance, vectorizer: Vectorizer | None = None,
            model=None) -> tuple[int, float]:
    """(label, positive-class probability); prob >= 0.5 means interacting."""
    return predict_all(ck, [instance], vectorizer, model)[0]


def predict_all(ck: Checkpoint, instances: list[SdpInstance],
                vectorizer: Vectorizer | None = None, model=None) -> list[tuple[int, float]]:
    """`predict` for every instance, scored in batches of the config's batch size."""
    if vectorizer is None:
        vectorizer = ck.build_vectorizer()
    if model is None:
        model = ck.build_model()
    out = []
    for start in range(0, len(instances), ck.config.batch):
        rows = vectorizer.token_rows(instances[start : start + ck.config.batch])
        probs = model.forward_batch(rows.stacked(), rows.lengths)["probs"]
        out += [(corpus_mod.INTERACTING if p >= 0.5 else corpus_mod.NON_INTERACTING, p)
                for p in probs[:, 1].tolist()]
    return out


@dataclass(frozen=True)
class FoldMetrics:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        return 100.0 * self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return 100.0 * self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other: "FoldMetrics") -> "FoldMetrics":
        return FoldMetrics(
            self.tp + other.tp, self.fp + other.fp,
            self.fn + other.fn, self.tn + other.tn,
        )

    def csv_row(self, label) -> str:
        """One report row under REPORT_HEADER."""
        return (
            f"{label},{self.tp},{self.fp},{self.fn},{self.tn},"
            f"{self.precision:.2f},{self.recall:.2f},{self.f1:.2f}"
        )

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": round(self.precision, 2),
            "recall": round(self.recall, 2),
            "f1": round(self.f1, 2),
        }


def evaluate(
    ck: Checkpoint,
    instances: list[SdpInstance],
    excluded: list[ExcludedInstance] = (),
    vectorizer: Vectorizer | None = None,
) -> FoldMetrics:
    """Confusion counts over instances; excluded ones (if passed and the
    config scores them) count as non-interacting predictions."""
    scores = predict_all(ck, instances, vectorizer)
    pairs = Counter((inst.label, pred) for inst, (pred, _) in zip(instances, scores))
    if ck.config.score_excluded:
        pairs.update((e.label, 0) for e in excluded)
    return FoldMetrics(tp=pairs[1, 1], fp=pairs[0, 1], fn=pairs[1, 0], tn=pairs[0, 0])


@dataclass
class CvReport:
    per_fold: list[FoldMetrics]
    micro: FoldMetrics
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_csv(self) -> str:
        lines = [REPORT_HEADER] + [m.csv_row(i) for i, m in enumerate(self.per_fold)]
        lines.append(self.micro.csv_row("micro"))
        m = self.micro
        lines.append(
            f"macro,{m.tp},{m.fp},{m.fn},{m.tn},"
            f"{self.macro_precision:.2f},{self.macro_recall:.2f},{self.macro_f1:.2f}"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "folds": [m.to_dict() for m in self.per_fold],
                "micro": self.micro.to_dict(),
                "macro": {
                    "precision": round(self.macro_precision, 2),
                    "recall": round(self.macro_recall, 2),
                    "f1": round(self.macro_f1, 2),
                },
            },
            indent=1,
            sort_keys=True,
        )


def cross_validate(
    config: TrainConfig,
    result: PreprocessResult,
    embeddings: EmbeddingTable | None = None,
) -> CvReport:
    """k-fold CV over all generated candidates (excluded ones included in the
    fold split so each is scored exactly once); every fold trains with the result's PoS table."""
    table = embeddings if embeddings is not None else load_table(config, config.seed)
    ids = [i.instance_id for i in result.instances] + [
        e.instance_id for e in result.excluded
    ]
    folds = split_folds(ids, config.k_folds, config.seed)
    # each pair's fold is looked up once; every list below keeps the pairs' order
    fold_of = [folds.fold_of(i) for i in ids]
    test_sets = [[] for _ in range(config.k_folds)]
    for inst, fold in zip(result.instances, fold_of):
        test_sets[fold].append(inst)
    excluded_sets = [[] for _ in range(config.k_folds)]
    for entry, fold in zip(result.excluded, fold_of[len(result.instances):]):
        excluded_sets[fold].append(entry)
    train_sets = [
        [i for i, f in zip(result.instances, fold_of) if f != fold]
        for fold in range(config.k_folds)
    ]
    # every fold's autoencoders at once: folds with equal code sets share one fit
    fold_autoencoders = _pretrain_stacked(
        config, train_sets, [config.seed + fold for fold in range(config.k_folds)])
    per_fold: list[FoldMetrics] = []
    for fold, (train_insts, autoencoders, test_insts, test_excluded) in enumerate(
            zip(train_sets, fold_autoencoders, test_sets, excluded_sets)):
        fold_config = config.replace(seed=config.seed + fold)
        tr = train(fold_config, train_insts, embeddings=table, pos_table=result.pos_table,
                   autoencoders=autoencoders)
        metrics = evaluate(
            tr.checkpoint,
            test_insts,
            excluded=test_excluded,
            vectorizer=tr.checkpoint.build_vectorizer(table),
        )
        per_fold.append(metrics)
    k = len(per_fold)
    return CvReport(
        per_fold=per_fold,
        micro=sum(per_fold, FoldMetrics(0, 0, 0, 0)),
        macro_precision=sum(m.precision for m in per_fold) / k,
        macro_recall=sum(m.recall for m in per_fold) / k,
        macro_f1=sum(m.f1 for m in per_fold) / k,
    )
