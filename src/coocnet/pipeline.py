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

All three functions are pure and total over their documented inputs, so
documents can be processed in parallel without shared state.

Known limitations, by design: abbreviations are not special-cased (``dr.``
ends a sentence), and combining marks that have no precomposed form stay
attached to the preceding word character.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

DEFAULT_TERMINATORS = ".!?…"

# Typographic variants folded to ASCII so the same word type maps to one
# node regardless of which quote/hyphen the source text used.
# U+2018 / U+2019 single quotation marks, U+02BC modifier letter apostrophe
_APOSTROPHE_VARIANTS = "‘’ʼ"
# U+2010 hyphen, U+2011 non-breaking hyphen (en/em dashes are separators)
_HYPHEN_VARIANTS = "‐‑"

_SPACE_RUN = re.compile(" {2,}")


class IngestionError(ValueError):
    """Input bytes are not valid UTF-8."""


@dataclass(frozen=True)
class PipelineConfig:
    """Cleaning knobs; the defaults are used everywhere unless overridden."""

    terminators: str = DEFAULT_TERMINATORS
    keep_digits: bool = True


DEFAULT_CONFIG = PipelineConfig()


@dataclass(frozen=True)
class RawDocument:
    """A decoded input text plus a label identifying where it came from."""

    content: str
    source_label: str


def load_document(path: str | Path) -> RawDocument:
    """Read a UTF-8 text file into a RawDocument.

    Raises IngestionError naming the byte offset when the file is not
    valid UTF-8.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc
    return RawDocument(content=content, source_label=path.name)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a key-value config file overriding the pipeline defaults.

    Recognized keys: ``terminators`` (a string of terminator characters)
    and ``keep_digits`` (true/false).  Lines starting with ``#`` and blank
    lines are ignored.  Unknown keys raise ValueError.
    """
    if path == "":
        raise ValueError("config path is empty")  # Path("") would read "."
    overrides: dict[str, str | bool] = {}
    for lineno, raw_line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "terminators":
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


@lru_cache(maxsize=None)
def _char_class(ch: str) -> str:
    """Coarse character class: letter, mark, digit, space, or other."""
    if ch.isspace():
        return "space"
    cat = unicodedata.category(ch)
    if cat.startswith("L"):
        return "letter"
    if cat.startswith("M"):
        # combining marks ride along with the letter they modify
        return "mark"
    if cat == "Nd":
        return "digit"
    return "other"


def normalize(text: str, config: PipelineConfig | None = None) -> str:
    """Clean raw text into lowercase NFC-composed word material.

    Everything outside {letters, digits, whitespace, "-", "'", terminator
    set} becomes a space; whitespace runs collapse.  Idempotent.
    """
    cfg = config or DEFAULT_CONFIG
    text = unicodedata.normalize("NFC", text).lower()
    # lowercasing rarely decomposes a codepoint; re-compose to stay NFC
    text = unicodedata.normalize("NFC", text)

    pieces = []
    prev_is_word = False
    for ch in text:
        if ch in _APOSTROPHE_VARIANTS:
            ch = "'"
        elif ch in _HYPHEN_VARIANTS:
            ch = "-"
        if ch in cfg.terminators or ch in "-'":
            pieces.append(ch)
            prev_is_word = False
            continue
        cls = _char_class(ch)
        if cls == "letter" or (cls == "digit" and cfg.keep_digits):
            pieces.append(ch)
            prev_is_word = True
        elif cls == "mark" and prev_is_word:
            pieces.append(ch)
        else:
            # whitespace, punctuation, symbols, dropped digits, stray marks
            pieces.append(" ")
            prev_is_word = False
    return _SPACE_RUN.sub(" ", "".join(pieces)).strip()


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
    tokens: list[str] = []
    current: list[str] = []
    pending_joiner = ""

    def flush() -> None:
        if current:
            tokens.append("".join(current))
            current.clear()

    for ch in sentence:
        cls = _char_class(ch)
        if cls in ("letter", "digit"):
            if pending_joiner:
                current.append(pending_joiner)
                pending_joiner = ""
            current.append(ch)
        elif cls == "mark" and current and not pending_joiner:
            current.append(ch)
        elif ch in "-'" and current and not pending_joiner:
            pending_joiner = ch
        else:
            pending_joiner = ""
            flush()
    flush()
    return tokens


def extract_sentences(
    text: str, config: PipelineConfig | None = None
) -> list[list[str]]:
    """Full pipeline: normalize, segment, tokenize, drop empty sentences."""
    cfg = config or DEFAULT_CONFIG
    sentences = []
    for part in segment_sentences(normalize(text, cfg), cfg):
        tokens = tokenize(part)
        if tokens:
            sentences.append(tokens)
    return sentences
