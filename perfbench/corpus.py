"""Seeded synthetic text corpora with a Zipf word-frequency law.

The vocabulary has 20,000 word types.  Word frequencies follow Zipf's law
with exponent 1, a sentence ends after a word with probability 6%, and
commas and capitalised sentence starts make the text look like prose.  A
small share of the types uses accented Latin letters (some written in
decomposed form), typographic apostrophes or hyphens, and a share of the
sentences ends in ``…``, so the NFC, lowercase and folding steps of
``coocnet.pipeline.normalize`` do real work.

The same (seed, stream) pair always gives the same text: the generator
uses its own ``random.Random`` and never touches global state.
"""

from __future__ import annotations

import random
import unicodedata
from itertools import accumulate

VOCABULARY_SIZE = 20_000
ZIPF_EXPONENT = 1.0
SENTENCE_END_RATE = 0.06
COMMA_RATE = 0.05
LINE_WORDS = 14

_LETTERS = "etaoinshrdlcumwfgypbvkjxqz"
_LETTER_WEIGHTS = (12, 9, 8, 8, 7, 7, 6, 6, 6, 4, 4, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1)
_ACCENTED = "éèêëàâäáíïîóôöúüùûçñøåæœ"
# U+2019 right single quotation mark, U+02BC modifier letter apostrophe
_APOSTROPHES = "’ʼ'"
# U+2010 hyphen, U+2011 non-breaking hyphen
_HYPHENS = "‐‑-"
_TERMINATORS = ".....!?…"


def _plain_word(rng: random.Random) -> str:
    length = rng.choice((2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10))
    return "".join(rng.choices(_LETTERS, _LETTER_WEIGHTS, k=length))


def _vocabulary(rng: random.Random) -> list[str]:
    """VOCABULARY_SIZE distinct types, in Zipf rank order (rank 1 first)."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < VOCABULARY_SIZE:
        word = _plain_word(rng)
        roll = rng.random()
        if roll < 0.04:
            pos = rng.randrange(len(word))
            word = word[:pos] + rng.choice(_ACCENTED) + word[pos + 1 :]
            if rng.random() < 0.5:
                word = unicodedata.normalize("NFD", word)
        elif roll < 0.05:
            word = word + rng.choice(_APOSTROPHES) + rng.choice(("s", "t", "ll", "re"))
        elif roll < 0.06:
            word = word + rng.choice(_HYPHENS) + _plain_word(rng)
        key = unicodedata.normalize("NFC", word.replace("ʼ", "'").replace("’", "'"))
        key = key.replace("‐", "-").replace("‑", "-")
        if key in seen:
            continue
        seen.add(key)
        words.append(word)
    # shorter words are the more frequent ones, as in natural text
    words.sort(key=len)
    return words


def zipf_text(seed: int, stream: str, n_words: int) -> str:
    """A text of ``n_words`` words for one (seed, stream) pair."""
    rng = random.Random(f"coocnet-perfbench:{seed}:{stream}")
    vocabulary = _vocabulary(rng)
    cum_weights = list(
        accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, VOCABULARY_SIZE + 1))
    )
    draws = rng.choices(vocabulary, cum_weights=cum_weights, k=n_words)
    out: list[str] = []
    sentence_start = True
    for i, word in enumerate(draws):
        if sentence_start:
            word = word[:1].upper() + word[1:]
            sentence_start = False
        out.append(word)
        roll = rng.random()
        if roll < SENTENCE_END_RATE or i == n_words - 1:
            out.append(rng.choice(_TERMINATORS))
            sentence_start = True
        elif roll < SENTENCE_END_RATE + COMMA_RATE:
            out.append(",")
        out.append("\n" if i % LINE_WORDS == LINE_WORDS - 1 else " ")
    return "".join(out)
