"""Text processing: tokenization, stopword removal and vocabulary management.

Section 4.1 of the paper: "The textual unit refers to the bag of words model
in each record, where some frequent and meaningless words are removed."
This module provides the tokenizer that turns raw message text into keyword
bags and the :class:`Vocabulary` that maps keywords to integer ids with
frequency-based pruning.
"""

from __future__ import annotations

import copy
import re
from collections import Counter
from collections.abc import Iterable

__all__ = ["DEFAULT_STOPWORDS", "tokenize", "Vocabulary"]

# A compact English stopword list: function words plus the "frequent and
# meaningless" social-media fillers the paper removes.  Deliberately small —
# aggressive stopword removal would also strip the general words ("today",
# "time") that CrossMap is shown retrieving in Fig. 9.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a an and are as at be but by for from has have he her his i if in into is
    it its me my of on or our she so that the their them they this to was we
    were what when where which who will with you your rt via amp http https
    www com just dont don im ive youre thats
    """.split()
)

_TOKEN_RE = re.compile(r"[a-z0-9_#@']+")


def tokenize(
    text: str,
    *,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    min_length: int = 2,
) -> list[str]:
    """Lowercase, split and filter ``text`` into keyword tokens.

    ``@mention`` tokens are dropped here — mentions are modelled separately
    through the user interaction graph, not as textual units.  Hashtags are
    kept with the ``#`` stripped.
    """
    tokens: list[str] = []
    for token in _TOKEN_RE.findall(text.lower()):
        if token.startswith("@"):
            continue
        token = token.lstrip("#").strip("'")
        if len(token) < min_length or token in stopwords:
            continue
        tokens.append(token)
    return tokens


class Vocabulary:
    """Bidirectional keyword <-> integer-id mapping with frequency pruning.

    Parameters
    ----------
    min_count:
        Keywords occurring fewer times than this across the corpus are
        dropped (data sparsity control).
    max_size:
        Keep at most this many keywords by descending frequency, mirroring
        the paper's fixed vocabulary sizes in Table 1 (20,000 / 3,973).
    """

    def __init__(self, *, min_count: int = 1, max_size: int | None = None) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.min_count = min_count
        self.max_size = max_size
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []
        self._counts: Counter[str] = Counter()
        self._frozen = False

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    @property
    def words(self) -> list[str]:
        """All retained keywords, ordered by id."""
        return list(self._id_to_word)

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._frozen

    def fit(self, documents: Iterable[Iterable[str]]) -> "Vocabulary":
        """Count keywords in ``documents`` and freeze the id assignment.

        Ids are assigned by descending frequency (ties broken
        lexicographically) so that id 0 is always the most common keyword —
        a stable, reproducible ordering.
        """
        if self._frozen:
            raise RuntimeError("Vocabulary is already fitted")
        for doc in documents:
            self._counts.update(doc)
        kept = [
            (word, count)
            for word, count in self._counts.items()
            if count >= self.min_count
        ]
        kept.sort(key=lambda item: (-item[1], item[0]))
        if self.max_size is not None:
            kept = kept[: self.max_size]
        for word, _count in kept:
            self._word_to_id[word] = len(self._id_to_word)
            self._id_to_word.append(word)
        self._frozen = True
        return self

    def id_of(self, word: str) -> int:
        """Integer id for ``word``; raises ``KeyError`` for pruned words."""
        return self._word_to_id[word]

    def add_word(self, word: str) -> int:
        """Append ``word`` to a fitted vocabulary (streaming support).

        Online/streaming training encounters keywords the warm-up corpus
        never produced; this grows the id space without re-fitting.
        Returns the (new or existing) id.  Requires :meth:`fit` first so
        the frequency-ordered id block stays contiguous.
        """
        if not self._frozen:
            raise RuntimeError("fit() the vocabulary before adding words")
        if not word:
            raise ValueError("word must be a non-empty string")
        existing = self._word_to_id.get(word)
        if existing is not None:
            return existing
        if self.max_size is not None and len(self._id_to_word) >= self.max_size:
            raise ValueError(
                f"vocabulary is at max_size={self.max_size}; cannot add {word!r}"
            )
        word_id = len(self._id_to_word)
        self._word_to_id[word] = word_id
        self._id_to_word.append(word)
        return word_id

    def fork(self) -> "Vocabulary":
        """A copy whose word index grows independently of this one.

        A streaming model adds its new words to a fork, so the vocabulary
        of the model it warm-started from never changes.  The corpus
        counts, which :meth:`add_word` never touches, stay shared.
        """
        fork = copy.copy(self)
        fork._word_to_id = dict(self._word_to_id)
        fork._id_to_word = list(self._id_to_word)
        return fork

    def word_of(self, word_id: int) -> str:
        """Keyword for integer id ``word_id``."""
        return self._id_to_word[word_id]

    def count_of(self, word: str) -> int:
        """Corpus frequency of ``word`` (0 if never seen)."""
        return self._counts.get(word, 0)

    def encode(self, words: Iterable[str]) -> list[int]:
        """Ids of the in-vocabulary words in ``words`` (pruned words skipped)."""
        return [self._word_to_id[w] for w in words if w in self._word_to_id]

    def decode(self, word_ids: Iterable[int]) -> list[str]:
        """Inverse of :meth:`encode` for known ids."""
        return [self._id_to_word[i] for i in word_ids]
