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
``normalize`` and ``tokenize`` classify characters through ``str.translate``
tables that are shared by every call and filled on the first sight of each
code point; a concurrent fill writes the same value, so threads may share
them.

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

    A terminator that `_terminator_problem` refuses raises ValueError.  A
    subclass, as `typing.NamedTuple` allows no `__new__` in its own body."""

    __slots__ = ()

    def __new__(cls, terminators: str = DEFAULT_TERMINATORS, keep_digits: bool = True):
        problem = next(filter(None, map(_terminator_problem, terminators)), None)
        if problem:
            raise ValueError(problem)
        return super().__new__(cls, terminators, keep_digits)

    @classmethod
    def _make(cls, iterable) -> PipelineConfig:
        # the inherited one skips `__new__`, and `_replace` goes through it
        return cls(*iterable)


class RawDocument(NamedTuple):
    """A decoded input text plus a label identifying where it came from."""

    content: str
    source_label: str


def load_document(path: str | Path) -> RawDocument:
    """Read a UTF-8 text file into a RawDocument.

    Raises IngestionError naming the byte offset when the file is not
    valid UTF-8.
    """
    path = Path(path)
    return RawDocument(content=_read_utf8(path), source_label=path.name)


def _read_utf8(path: Path) -> str:
    """The file's text; IngestionError names the first invalid byte."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key-value config file overriding the pipeline defaults.

    Recognized keys: ``terminators`` (a string of terminator characters)
    and ``keep_digits`` (true/yes/1 or false/no/0).  Lines starting with
    ``#`` and blank lines are ignored.  An unknown key, a bad value or a
    terminator that `PipelineConfig` refuses raises ValueError citing the
    file and line; a file that is not UTF-8 raises IngestionError.
    """
    if path == "":
        raise ValueError("config path is empty")  # Path("") would read "."
    overrides: dict[str, str | bool] = {}
    for lineno, raw_line in enumerate(_read_utf8(Path(path)).splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "terminators":
            problem = next(filter(None, map(_terminator_problem, value)), None)
            if problem:
                raise ValueError(f"{path}: line {lineno}: {problem}")
            overrides[key] = value
        elif key == "keep_digits":
            if value.lower() in ("true", "yes", "1"):
                overrides[key] = True
            elif value.lower() in ("false", "no", "0"):
                overrides[key] = False
            else:
                raise ValueError(
                    f"{path}: line {lineno}: keep_digits must be true or false"
                )
        else:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
    return PipelineConfig(**overrides)


def _char_class(ch: str) -> str:
    """One-letter class of a code point: ``w`` letter, ``d`` decimal digit,
    ``m`` combining mark, ``" "`` whitespace and everything else."""
    cat = unicodedata.category(ch)
    if cat[0] == "L":
        return "w"
    if cat[0] == "M":
        # combining marks ride along with the letter they modify
        return "m"
    if cat == "Nd":
        return "d"
    return " "


class _ClassTable(dict):
    """A ``str.translate`` table from code point to class, each entry filled
    the first time its code point is seen: a terminator is ``t``, a joiner
    (``-``, ``'``) is itself, a digit is ``w`` or, when dropped, ``" "``."""

    def __init__(self, terminators: str = "", keep_digits: bool = True) -> None:
        super().__init__()
        self._terminators = terminators
        self._digit = "w" if keep_digits else " "

    def __missing__(self, code_point: int) -> str:
        ch = chr(code_point)
        if ch in self._terminators:
            cls = "t"
        elif ch in "-'":
            cls = ch
        else:
            cls = _char_class(ch)
            if cls == "d":
                cls = self._digit
        self[code_point] = cls
        return cls


# one shared table per recent (terminators, keep_digits); an evicted one is
# only filled again
_class_table = lru_cache(maxsize=16)(_ClassTable)
# what survives cleaning: terminators, joiners, and word characters with
# the marks that follow them; a mark after anything else is dropped
_KEPT = re.compile(r"(?:wm*|[-'t])+")
# a token joins runs of word characters with single joiners
_TOKEN = re.compile(r"w[wm]*(?:[-']w[wm]*)*")


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
    classes = text.translate(_class_table(cfg.terminators, cfg.keep_digits))
    kept = " ".join(text[m.start() : m.end()] for m in _KEPT.finditer(classes))
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
    classes = sentence.translate(_class_table())
    return [sentence[m.start() : m.end()] for m in _TOKEN.finditer(classes)]


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
