"""Text cleaning and sentence tokenization for network construction.

Raw UTF-8 text becomes sentences of normalized word tokens in three
deterministic steps:

``normalize``
    Compose Unicode (NFC) so diacritics are single codepoints, lowercase,
    fold typographic apostrophes/hyphens to their ASCII forms, and replace
    every character that is not a letter, digit, whitespace, hyphen,
    apostrophe, or sentence terminator with a space.  Whitespace runs
    collapse to a single space.

``segment_sentences``
    Split normalized text on the terminator set (default ``. ! ? …``).
    Terminators are consumed; empty segments are dropped; a trailing
    segment without a terminator still counts as a sentence.

``tokenize``
    Extract maximal runs of letters/digits from a normalized sentence,
    keeping hyphens and apostrophes only between word characters
    (``e-mail`` and ``don't`` stay whole, leading/trailing ones are
    stripped).

All three functions are pure and total over their documented inputs.
``normalize`` and ``tokenize`` clean by table translation, with no step
per token, each through one call of `_kept`.  It translates by the
config's table, which maps each character to itself when it can survive
(letter, digit, mark, joiner, terminator) and to a space otherwise.
Then it blanks each combining mark that follows no letter or digit,
which depends on a neighbor and so no table can see, by one regex
search of the kept text (run only on a non-ASCII text once a mark has
been seen).  ``tokenize`` also blanks a joiner not between word
characters.  ``normalize`` then collapses spaces and ``tokenize`` splits
on them.  A table is shared by every call with its config and filled on
the first sight of each code point; a concurrent fill writes the same
value, so threads may share it.

`load_document` is the one reader of input files, texts, configs and
edge lists; it skips a leading byte order mark, and a file that is not
UTF-8 raises IngestionError.

Known limitations, by design: abbreviations are not special-cased (``dr.``
ends a sentence), and combining marks that have no precomposed form stay
attached to the preceding word character.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

DEFAULT_TERMINATORS = ".!?…"

_SPACE_RUN = re.compile(" {2,}")
# the Hangul vowel and final jamo, which NFC composes into the syllable before
_COMPOSING_JAMO = frozenset(map(chr, [*range(0x1161, 0x1176), *range(0x11A8, 0x11C3)]))


class IngestionError(ValueError):
    """Input bytes are not valid UTF-8."""


class _PipelineConfigFields(NamedTuple):
    terminators: str = DEFAULT_TERMINATORS
    keep_digits: bool = True


class PipelineConfig(_PipelineConfigFields):
    """Cleaning knobs; the defaults are used everywhere unless overridden.

    `terminators` that is not a str, a terminator that `_terminator_problem`
    refuses, or a `keep_digits` that is not a bool (a string ``"false"`` is
    truthy) raises ValueError.
    A subclass, as `typing.NamedTuple` allows no `__new__` in its own body."""

    __slots__ = ()

    def __new__(cls, terminators: str = DEFAULT_TERMINATORS, keep_digits: bool = True):
        if not isinstance(terminators, str):
            raise ValueError(f"terminators must be a str, got {terminators!r}")
        problem = next(filter(None, map(_terminator_problem, terminators)), None)
        if problem:
            raise ValueError(problem)
        if type(keep_digits) is not bool:
            raise ValueError(f"keep_digits must be a bool, got {keep_digits!r}")
        return super().__new__(cls, terminators, keep_digits)

    @classmethod
    def _make(cls, iterable) -> PipelineConfig:
        # the inherited one skips `__new__`, and `_replace` goes through it
        return cls(*iterable)


def load_document(path: str | Path) -> str:
    """The text of a UTF-8 file, without one leading byte order mark;
    IngestionError names the first bad byte by its offset in the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc
    return text.removeprefix("\ufeff")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key-value config file overriding the pipeline defaults.

    Recognized keys: ``terminators`` (a string of terminator characters)
    and ``keep_digits`` (true/yes/1 or false/no/0).  Lines starting with
    ``#`` and blank lines are ignored.  Each line is one `_replace` of the
    config, so `PipelineConfig` alone checks the terminators.  An unknown
    key, a bad value or a refused terminator raises ValueError citing the
    file and line; a file that is not UTF-8 raises IngestionError.
    """
    if path == "":
        raise ValueError("config path is empty")  # Path("") would read "."
    config = DEFAULT_CONFIG
    for lineno, raw_line in enumerate(load_document(path).splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        try:
            if not equals:
                raise ValueError("expected 'key = value'")
            if key not in PipelineConfig._fields:
                raise ValueError(f"unknown key {key!r}")
            if key == "keep_digits":
                value = value.lower()
                if value not in ("true", "yes", "1", "false", "no", "0"):
                    raise ValueError("keep_digits must be true or false")
                value = value in ("true", "yes", "1")
            config = config._replace(**{key: value})
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return config


class _CleaningTable(dict):
    """A ``str.translate`` table from code point to what cleaning keeps of
    it, each entry filled the first time its code point is seen: the
    character itself when it is a letter, a kept digit, a combining mark, a
    joiner (``-``, ``'``) or a terminator, a space otherwise.

    A fill sets `marks_seen` on a mark before it stores the entry, so a
    reader that has translated a text holding a mark finds it set.
    """

    def __init__(self, terminators: str = "", keep_digits: bool = True) -> None:
        super().__init__()
        self._terminators = terminators
        self._keep_digits = keep_digits
        self.marks_seen = False

    def __missing__(self, code_point: int) -> str:
        ch = chr(code_point)
        cat = unicodedata.category(ch)
        if cat[0] == "M":
            # combining marks ride along with the letter they modify
            self.marks_seen = True
        elif not (
            ch in self._terminators
            or ch in "-'"
            or cat[0] == "L"
            or (cat == "Nd" and self._keep_digits)
        ):
            ch = " "
        self[code_point] = ch
        return ch


# one shared table per recent (terminators, keep_digits); an evicted one is
# only filled again
_cleaning_table = lru_cache(maxsize=16)(_CleaningTable)
# in a kept string, where every mark left follows a word character: a
# joiner that has a space, a joiner or an end of the string on either side
_LOOSE_JOINER = re.compile(r"(?<![^ '-])[-']|[-'](?![^ '-])")


def _kept(text: str, table: _CleaningTable) -> str:
    """`text` translated by `table`, with a space for each run of marks
    that follows no word character or mark.

    A kept character is a space, a joiner, a terminator, a mark or a
    ``\\w`` character (a letter or a kept digit, as the table blanks every
    other ``\\w`` character that is not a terminator), and no mark is
    ``\\w``.  So a run of the characters that are none of the others is a
    run of marks, and one after a space, a joiner, a terminator or the
    start is an orphan.  The search runs only when `table` has seen a
    mark and `text` is not ASCII, which no mark is.
    """
    kept = text.translate(table)
    if not table.marks_seen or text.isascii():
        return kept
    other = r" '\-" + re.escape(table._terminators)
    return re.sub(rf"(?<![^{other}])[^\w{other}]+", " ", kept)


def _fold(text: str) -> str:
    """The text composed (NFC), lowercased and re-composed, with its
    typographic apostrophes and hyphens folded to ASCII; normalize's first
    step, which runs before any character is classified."""
    text = unicodedata.normalize("NFC", text).lower()
    # lowercasing rarely decomposes a codepoint; re-compose to stay NFC
    text = unicodedata.normalize("NFC", text)
    # fold typographic variants so one word type is one node: U+2018, U+2019,
    # U+02BC to "'" and U+2010, U+2011 to "-" (en/em dashes are separators)
    text = text.replace("\u2018", "'").replace("\u2019", "'").replace("\u02bc", "'")
    return text.replace("\u2010", "-").replace("\u2011", "-")


def _terminator_problem(ch: str) -> str | None:
    """Why ``ch`` cannot be a terminator, or None when it can.

    normalize looks for terminators after `_fold`, so one that `_fold`
    changes (an upper-case letter, a typographic apostrophe) never splits.
    NFC composes a mark (category M) or a Hangul vowel or final jamo into
    the character before it where a composed form exists, so such a
    terminator would split after some letters and not after others."""
    folded = _fold(ch)
    if folded != ch:
        why = f"becomes {folded!r} in text cleaning, so it never splits"
    elif unicodedata.category(ch)[0] == "M" or ch in _COMPOSING_JAMO:
        why = "can compose with the character before it, so it may not split"
    else:
        return None
    return f"terminator {ch!r} {why}"


DEFAULT_CONFIG = PipelineConfig()


def normalize(text: str, config: PipelineConfig | None = None) -> str:
    """Clean raw text into lowercase NFC-composed word material.

    Everything outside {letters, digits, whitespace, "-", "'", terminator
    set} becomes a space; whitespace runs collapse.  Idempotent.
    """
    cfg = config or DEFAULT_CONFIG
    text = _fold(text)
    kept = _kept(text, _cleaning_table(cfg.terminators, cfg.keep_digits))
    return _SPACE_RUN.sub(" ", kept).strip()


def segment_sentences(text: str, config: PipelineConfig | None = None) -> list[str]:
    """Split normalized text into sentence strings at terminator characters."""
    cfg = config or DEFAULT_CONFIG
    terminator = "[" + re.escape(cfg.terminators) + "]"
    parts = re.split(terminator, text) if cfg.terminators else [text]
    return [part.strip() for part in parts if part.strip()]


def tokenize(sentence: str) -> list[str]:
    """Split a normalized sentence string into word tokens.

    Tokens are maximal runs of letters/digits; a hyphen or apostrophe is
    kept only when word characters sit on both sides of it.  Any other
    character acts as a separator, so the output is well formed even on
    text that skipped ``normalize``.
    """
    kept = _kept(sentence, _cleaning_table())
    if "-" in kept or "'" in kept:
        kept = _LOOSE_JOINER.sub(" ", kept)
    return kept.split()


def extract_sentences(
    text: str, config: PipelineConfig | None = None
) -> list[list[str]]:
    """Full pipeline: normalize, segment, tokenize, drop empty sentences.

    Equal tokens are one object: every repeat of a word is replaced by the
    first ``str`` seen for it in this call, so the lists hold one string
    per word type and a pointer per token, and a network built from them
    keeps those same strings as its words.
    """
    cfg = config or DEFAULT_CONFIG
    first: dict[str, str] = {}
    sentences = []
    for part in segment_sentences(normalize(text, cfg), cfg):
        tokens = tokenize(part)
        if tokens:
            sentences.append(list(map(first.setdefault, tokens, tokens)))
    return sentences
