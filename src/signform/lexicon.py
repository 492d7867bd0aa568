"""Lexicon data model and ingestion.

A lexicon is a set of signs for one language: each sign pairs a phone-string
word form with a real-valued meaning vector and a grammatical class label.
This module owns IPA tokenization, TSV parsing, word-vector loading, and
deterministic fold splitting; everything downstream consumes these types.
"""

from __future__ import annotations

import csv
import io
import logging
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmbeddingFormatError,
    EmptyFormError,
    EmptyLexiconError,
    LeadingMarkError,
    SchemaError,
    TooManyFoldsError,
    WhitespaceInFormError,
)
from .seeding import derive_rng

logger = logging.getLogger(__name__)

EOS_SYMBOL = "<eos>"

# Tie bars join the flanking base characters into a single phone (t͡ʃ).
TIE_BARS = frozenset("͜͡")

# Stress and boundary marks that precede (not modify) a segment. Stripped by
# default so stress-annotated transcriptions tokenize; see tokenize_ipa.
BOUNDARY_MARKS = frozenset("ˈˌ.")


class Phone(str):
    """A single phone: one base character plus any attached modifiers.

    Subclasses str so forms join/compare/hash like plain strings.
    """

    def __new__(cls, symbol: str):
        if not symbol:
            raise EmptyFormError("phone symbol must be non-empty")
        if any(ch.isspace() for ch in symbol):
            raise WhitespaceInFormError(f"phone symbol contains whitespace: {symbol!r}")
        return super().__new__(cls, symbol)


def _attaches_to_previous(ch: str) -> bool:
    # Combining marks (Mn/Mc/Me) and modifier letters/symbols (Lm/Sk) attach
    # to the preceding base character; this covers IPA diacritics, length and
    # secondary-articulation marks, and tone letters.
    return unicodedata.category(ch) in ("Mn", "Mc", "Me", "Lm", "Sk")


def tokenize_ipa(raw: str, strip_marks: bool = True) -> tuple[Phone, ...]:
    """Segment an IPA string into phones.

    Base characters start a new phone; combining diacritics and modifier
    letters attach to the previous one; a tie bar merges the next base
    character (with its own modifiers) into the current phone. Joining the
    returned symbols reproduces the NFC-normalized (and, if ``strip_marks``,
    stress-stripped) input.

    Raises EmptyFormError for an empty result, LeadingMarkError when the
    string starts with an attaching character, WhitespaceInFormError on
    internal whitespace.
    """
    text = unicodedata.normalize("NFC", raw)
    if strip_marks:
        text = "".join(ch for ch in text if ch not in BOUNDARY_MARKS)
    if not text:
        raise EmptyFormError(f"no phones left in {raw!r}")

    symbols: list[str] = []
    pending_tie = False
    for ch in text:
        if ch.isspace():
            raise WhitespaceInFormError(f"whitespace inside form {raw!r}")
        if ch in BOUNDARY_MARKS:
            # Only reachable with strip_marks=False; stress and syllable
            # marks precede a segment, so keep them standalone.
            symbols.append(ch)
            pending_tie = False
        elif _attaches_to_previous(ch):
            if not symbols:
                raise LeadingMarkError(f"{raw!r} begins with a combining mark")
            symbols[-1] += ch
            if ch in TIE_BARS:
                pending_tie = True
        elif pending_tie:
            symbols[-1] += ch
            pending_tie = False
        else:
            symbols.append(ch)
    return tuple(Phone(s) for s in symbols)


def tokenize_pretokenized(raw: str) -> tuple[Phone, ...]:
    """Split a space-separated phone string, bypassing segmentation rules."""
    parts = raw.split()
    if not parts:
        raise EmptyFormError(f"no phones in {raw!r}")
    return tuple(Phone(unicodedata.normalize("NFC", p)) for p in parts)


@dataclass(frozen=True)
class PhoneInventory:
    """Dense phone-to-index mapping with a reserved end-of-string token."""

    phones: tuple[Phone, ...]
    eos_index: int

    def __post_init__(self):
        if not (0 <= self.eos_index < len(self.phones)):
            raise ValueError("eos_index out of range")
        if len(set(self.phones)) != len(self.phones):
            raise ValueError("duplicate phones in inventory")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.phones)})

    @classmethod
    def from_phones(cls, phones) -> "PhoneInventory":
        """Build from any iterable of phones; sorted, EOS appended last."""
        distinct = sorted(set(phones))
        if EOS_SYMBOL in distinct:
            raise ValueError(f"{EOS_SYMBOL!r} is reserved")
        ordered = tuple(Phone(p) for p in distinct) + (Phone(EOS_SYMBOL),)
        return cls(phones=ordered, eos_index=len(ordered) - 1)

    def __len__(self) -> int:
        return len(self.phones)

    def __contains__(self, phone) -> bool:
        return phone in self._index

    def index(self, phone) -> int:
        return self._index[phone]

    def encode(self, form) -> np.ndarray:
        """Map a phone sequence to int indices (EOS not appended)."""
        return np.array([self._index[p] for p in form], dtype=np.int64)


@dataclass(eq=False)
class Sign:
    """One lexical sign: orthographic key, phone form, meaning vector, class."""

    lemma: str
    form: tuple[Phone, ...]
    meaning: np.ndarray
    pos: str
    concept_id: str | None = None

    def __post_init__(self):
        if len(self.form) == 0:
            raise EmptyFormError(f"sign {self.lemma!r} has an empty form")
        self.meaning = np.asarray(self.meaning, dtype=np.float64)

    @property
    def key(self) -> tuple:
        """Identity for dedup and table matching: (lemma, form, pos)."""
        return (self.lemma, self.form, self.pos)


@dataclass
class ParseStats:
    rows_read: int = 0
    rows_kept: int = 0
    tokenize_failures: int = 0
    duplicates_dropped: int = 0


@dataclass(eq=False)
class Lexicon:
    """All signs of one language plus the phone inventory that closes them."""

    language: str
    inventory: PhoneInventory
    signs: list[Sign]
    classes: tuple[str, ...]
    stats: ParseStats | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.signs:
            raise EmptyLexiconError(f"lexicon {self.language!r} has no signs")
        dims = {s.meaning.shape for s in self.signs}
        if len(dims) > 1:
            raise DimensionMismatchError(f"mixed meaning dimensions: {dims}")
        for s in self.signs:
            for p in s.form:
                if p not in self.inventory:
                    raise ValueError(f"phone {p!r} of {s.lemma!r} not in inventory")

    def __len__(self) -> int:
        return len(self.signs)

    @property
    def meaning_dim(self) -> int:
        return int(self.signs[0].meaning.shape[0])

    @classmethod
    def from_signs(cls, language: str, signs, stats=None) -> "Lexicon":
        signs = list(signs)
        if not signs:
            raise EmptyLexiconError(f"no signs for {language!r}")
        inventory = PhoneInventory.from_phones(p for s in signs for p in s.form)
        classes = tuple(sorted({s.pos for s in signs}))
        return cls(language=language, inventory=inventory, signs=signs,
                   classes=classes, stats=stats)


DEFAULT_COLUMNS = {"lemma": "lemma", "form": "ipa", "pos": "pos",
                   "concept": "concept"}


def parse_lexicon(stream, language: str, columns: dict | None = None,
                  pretokenized: bool = False,
                  strip_marks: bool = True) -> Lexicon:
    """Parse a tab-separated lexicon table into a Lexicon.

    ``stream`` is text (a str or a file-like object) with a header row.
    ``columns`` remaps the canonical column names (lemma, form, pos,
    concept) onto the file's actual headers. Rows whose form fails
    tokenization are logged, counted in the returned lexicon's stats, and
    skipped; later duplicates of a (lemma, form, pos) key are dropped.

    Signs are created with empty meaning vectors; callers attach real
    vectors with :func:`attach_meanings`.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if columns:
        colmap.update(columns)
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    reader = csv.DictReader(stream, delimiter="\t")
    header = reader.fieldnames or []
    for role in ("lemma", "form", "pos"):
        if colmap[role] not in header:
            raise SchemaError(f"missing column {colmap[role]!r} for {role}")
    has_concept = colmap["concept"] in header

    stats = ParseStats()
    signs: list[Sign] = []
    seen: set[tuple] = set()
    for row in reader:
        stats.rows_read += 1
        raw_form = (row[colmap["form"]] or "").strip()
        try:
            if pretokenized:
                form = tokenize_pretokenized(raw_form)
            else:
                form = tokenize_ipa(raw_form, strip_marks=strip_marks)
        except (EmptyFormError, LeadingMarkError, WhitespaceInFormError) as exc:
            stats.tokenize_failures += 1
            logger.warning("%s: skipping row %r: %s", language,
                           row[colmap["lemma"]], exc)
            continue
        sign = Sign(
            lemma=(row[colmap["lemma"]] or "").strip(),
            form=form,
            meaning=np.zeros(0),
            pos=(row[colmap["pos"]] or "").strip(),
            concept_id=(row[colmap["concept"]] or "").strip() or None
            if has_concept else None,
        )
        if sign.key in seen:
            stats.duplicates_dropped += 1
            continue
        seen.add(sign.key)
        signs.append(sign)
        stats.rows_kept += 1

    if not signs:
        raise EmptyLexiconError(f"no usable rows in lexicon for {language!r}")
    if stats.tokenize_failures or stats.duplicates_dropped:
        logger.info("%s: kept %d rows, %d tokenize failures, %d duplicates",
                    language, stats.rows_kept, stats.tokenize_failures,
                    stats.duplicates_dropped)
    return Lexicon.from_signs(language, signs, stats=stats)


def load_embeddings(stream, wanted) -> tuple[dict[str, np.ndarray], list[str]]:
    """Load word vectors in text format for the wanted lemmata.

    Format: an optional first line ``count dim``, then one line per word:
    the token followed by ``dim`` whitespace-separated floats. Returns a
    lemma-to-vector map (only wanted lemmata) and the sorted list of wanted
    lemmata with no vector.
    """
    wanted = set(wanted)
    if isinstance(stream, str):
        stream = io.StringIO(stream)

    found: dict[str, np.ndarray] = {}
    dim: int | None = None
    first = True
    for lineno, line in enumerate(stream, start=1):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if first:
            first = False
            # Header heuristic: exactly two integer tokens.
            if len(parts) == 2:
                try:
                    dim = int(parts[1])
                    int(parts[0])
                    continue
                except ValueError:
                    pass
        token, fields = parts[0], parts[1:]
        if dim is None:
            dim = len(fields)
            if dim == 0:
                raise EmbeddingFormatError(f"line {lineno}: no vector fields")
        if len(fields) != dim:
            raise DimensionMismatchError(
                f"line {lineno}: expected {dim} floats, got {len(fields)}")
        if token not in wanted or token in found:
            continue
        try:
            found[token] = np.array(fields, dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {lineno}: {exc}") from exc
    missing = sorted(wanted - set(found))
    return found, missing


def attach_meanings(lex: Lexicon, vectors: dict[str, np.ndarray]) -> Lexicon:
    """Rebuild the lexicon keeping only signs with a vector, attached.

    Signs whose lemma has no vector are dropped (not imputed), matching the
    restriction to lemmata with embeddings.
    """
    kept = []
    for s in lex.signs:
        v = vectors.get(s.lemma)
        if v is None:
            continue
        kept.append(Sign(lemma=s.lemma, form=s.form, meaning=v, pos=s.pos,
                         concept_id=s.concept_id))
    if not kept:
        raise EmptyLexiconError(f"no signs with embeddings for {lex.language!r}")
    dropped = len(lex.signs) - len(kept)
    if dropped:
        logger.info("%s: dropped %d signs without embeddings", lex.language,
                    dropped)
    return Lexicon.from_signs(lex.language, kept, stats=lex.stats)


@dataclass(frozen=True)
class FoldAssignment:
    """Deterministic k-fold partition of sign indices.

    Fold roles: with rotation r, fold ``r % k`` is validation, fold
    ``(r + 1) % k`` is test, and the rest train.
    """

    fold_of: np.ndarray
    k: int
    seed: int

    def indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def roles(self, rotation: int = 0):
        """(train_indices, validation_indices, test_indices) for a rotation."""
        val = rotation % self.k
        test = (rotation + 1) % self.k
        train = np.flatnonzero((self.fold_of != val) & (self.fold_of != test))
        return train, self.indices(val), self.indices(test)


def split_folds(lex: Lexicon, k: int, seed: int) -> FoldAssignment:
    """Shuffle sign indices by seed, then deal them round-robin into k folds.

    Pure function of (lexicon order, k, seed); fold sizes differ by at most
    one. Raises TooManyFoldsError when k exceeds the sign count.
    """
    n = len(lex.signs)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise TooManyFoldsError(f"k={k} folds for {n} signs")
    order = derive_rng(seed, "folds").permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.arange(n) % k
    return FoldAssignment(fold_of=fold_of, k=k, seed=seed)
