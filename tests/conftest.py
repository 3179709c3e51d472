import pytest

from sdprel import embed, features
from sdprel.corpus import load_corpus
from sdprel.depgraph import load_dependencies

# The interaction example sentence: three mentions, one interacting pair.
TABLE1_LINE = (
    "s1\t"
    "Bnrlp|NN interacts|VBZ with|IN another|DT Rho|NN family|NN member|NN "
    ",|, Rho4p|NN ,|, but|CC not|RB with|IN Rho1p|NN .|.\t"
    "e1:0:0;e2:8:8;e3:13:13\te1-e2"
)

# The feature-encoding example sentence.  Token indices (entities collapsed):
# Interaction(0) between(1) cell(2) cycle(3) regulator(4) ,(5) p21(6) ,(7)
# and(8) Tat(9) mediates(10) repression(11) of(12) HIV-1(13) gene(14)
# transcription(15) .(16).  The SDP from token 6 to token 9 is
# [6, 4, 1, 0, 8, 11, 9]: "PROT1 regulator between Interaction and
# repression PROT2".
TABLE2_LINE = (
    "t2\t"
    "Interaction|NN between|IN cell|NN cycle|NN regulator|NN ,|, p21|NN ,|, "
    "and|CC Tat|NN mediates|VBZ repression|NN of|IN HIV-1|NN gene|NN "
    "transcription|NN .|.\t"
    "e1:6:6;e2:9:9\te1-e2"
)

TABLE2_EDGES = [
    (0, 1, "mod"),
    (1, 4, "pobj"),
    (4, 2, "nmod"),
    (4, 3, "nmod"),
    (4, 6, "appos"),
    (0, 8, "coord"),
    (8, 11, "conj"),
    (11, 9, "arg"),
    (0, 10, "subj"),
    (10, 11, "obj"),
    (11, 12, "mod"),
    (12, 15, "pobj"),
    (15, 13, "nmod"),
    (15, 14, "nmod"),
]


@pytest.fixture(autouse=True)
def fresh_vectors_memo():
    """Each test starts with no word-vector table kept, as a new process does.
    A patch of its own, so a test's ``monkeypatch.undo()`` leaves it alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "_LAST", None)
        yield


class ForgetfulFits(dict):
    """A ``features._FITS`` that keeps nothing, so every call fits again."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture(autouse=True)
def fresh_fit_memo():
    """Each test starts with no autoencoder fits kept, as a new process does.
    A patch of its own, so a test's ``monkeypatch.undo()`` leaves it alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_FITS", {})
        yield


@pytest.fixture
def no_fit_memo(fresh_fit_memo):
    """Turn the fit memo off, so that two equal calls make two real fits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_FITS", ForgetfulFits())
        yield


@pytest.fixture
def table1_record(tmp_path):
    path = tmp_path / "table1.tsv"
    path.write_text(TABLE1_LINE + "\n", encoding="utf-8")
    return load_corpus(path)[0]


@pytest.fixture
def table2_record(tmp_path):
    path = tmp_path / "table2.tsv"
    path.write_text(TABLE2_LINE + "\n", encoding="utf-8")
    return load_corpus(path)[0]


@pytest.fixture
def table2_deps(tmp_path):
    path = tmp_path / "table2.deps"
    lines = [f"t2\t{a}\t{b}\t{rel}" for a, b, rel in TABLE2_EDGES]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_dependencies(path)
