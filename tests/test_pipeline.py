import gc
import random
import re
import sys
import threading
import tracemalloc
import unicodedata
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coocnet import (
    DEFAULT_TERMINATORS,
    IngestionError,
    PipelineConfig,
    build_network,
    extract_sentences,
    load_config,
    load_document,
    normalize,
    pipeline,
    segment_sentences,
    tokenize,
)


class TestNormalize:
    def test_diacritics_kept_punctuation_dropped(self):
        assert normalize("Došao, je!") == "došao je!"

    def test_empty_input(self):
        assert normalize("") == ""

    def test_case_folding_only(self):
        assert normalize("ABC") == "abc"

    def test_non_terminal_punctuation_becomes_space(self):
        assert normalize("a, b; (c) [d] \"e\"") == "a b c d e"

    def test_terminators_survive(self):
        assert normalize("Prvi. Drugi! Treći? Četvrti…") == "prvi. drugi! treći? četvrti…"

    def test_typographic_apostrophe_and_hyphen_fold(self):
        assert normalize("don’t") == "don't"
        assert normalize("well‑known") == "well-known"

    def test_en_dash_is_a_separator(self):
        # only the two hyphen lookalikes fold; dashes split words
        assert normalize("1914–1918") == "1914 1918"

    def test_digits_kept_by_default(self):
        assert normalize("abc 123") == "abc 123"

    def test_digits_dropped_when_configured(self):
        cfg = PipelineConfig(keep_digits=False)
        assert normalize("abc 123 a1b", cfg) == "abc a b"

    def test_output_is_composed(self):
        # s followed by combining caron must come out as one codepoint
        decomposed = "što"
        out = normalize(decomposed)
        assert out == "što"
        assert len(out) == 3

    def test_custom_terminators(self):
        cfg = PipelineConfig(terminators=";")
        assert normalize("a; b. c", cfg) == "a; b c"

    def test_idempotent_on_mixed_sample(self):
        sample = "Šuma — 42 stabla… Đak, ’kaže’: NE-MA!?"
        once = normalize(sample)
        assert normalize(once) == once


class TestSegmentSentences:
    def test_two_sentences(self):
        assert segment_sentences("a b. c d!") == ["a b", "c d"]

    def test_no_terminator_trailing_segment(self):
        assert segment_sentences("a b") == ["a b"]

    def test_only_terminators(self):
        assert segment_sentences("...") == []

    def test_empty_segments_dropped(self):
        assert segment_sentences("a.. b") == ["a", "b"]

    def test_ellipsis_character(self):
        assert segment_sentences("a… b") == ["a", "b"]

    def test_custom_terminators(self):
        cfg = PipelineConfig(terminators=";")
        assert segment_sentences("a. b; c", cfg) == ["a. b", "c"]

    def test_empty_terminator_set_means_one_sentence(self):
        cfg = PipelineConfig(terminators="")
        assert segment_sentences("a. b", cfg) == ["a. b"]
        assert segment_sentences(" \t ", cfg) == []


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("ja ću doći") == ["ja", "ću", "doći"]

    def test_whitespace_only(self):
        assert tokenize("  ") == []

    def test_internal_hyphen_kept(self):
        assert tokenize("e-mail adresa") == ["e-mail", "adresa"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_edge_joiners_stripped(self):
        assert tokenize("-rub 'quote' kraj-") == ["rub", "quote", "kraj"]

    def test_double_hyphen_splits(self):
        assert tokenize("a--b") == ["a", "b"]

    def test_lone_joiners_vanish(self):
        assert tokenize("- ' -") == []


class TestExtractSentences:
    def test_full_pipeline(self):
        text = "I want it. I want to do it!"
        assert extract_sentences(text) == [
            ["i", "want", "it"],
            ["i", "want", "to", "do", "it"],
        ]

    def test_empty_sentences_dropped(self):
        assert extract_sentences("Prvi! ?! Drugi.") == [["prvi"], ["drugi"]]

    def test_punctuation_only_text(self):
        assert extract_sentences(",;: --- (!)") == []

    def test_equal_tokens_are_one_object(self):
        sentences = extract_sentences("The cat saw the dog. The dog ran!")
        tokens = [token for sentence in sentences for token in sentence]
        the = [token for token in tokens if token == "the"]
        dog = [token for token in tokens if token == "dog"]
        assert len(the) == 3 and len(dog) == 2
        assert the[1] is the[0] and the[2] is the[0] and dog[1] is dog[0]
        net = build_network(sentences)
        assert net.words[net.node_id("the")] is the[0]

    def test_sentence_lists_keep_one_string_per_word_type(self, zipf_sentences):
        text = ". ".join(" ".join(sentence) for sentence in zipf_sentences) + "."
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sentences = extract_sentences(text)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        tokens = sum(map(len, sentences))
        assert tokens == 40_000
        # a pointer per token, the sentence lists and one string per word
        # type take ~26 bytes a token here; a string per token adds ~41
        assert retained < 40 * tokens


class TestLoadDocument:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("Došao je.", encoding="utf-8")
        assert load_document(path) == "Došao je."

    def test_invalid_utf8_names_byte_offset(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_bytes(b"ab\xffcd")
        with pytest.raises(IngestionError, match="byte offset 2"):
            load_document(path)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "marked.txt"
        path.write_bytes(b"\xef\xbb\xbfab \xef\xbb\xbfc")
        assert load_document(path) == "ab \ufeffc"  # only the leading one

    def test_offset_counts_the_byte_order_mark(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(IngestionError, match="byte offset 5$"):
            load_document(path)


class TestLoadConfig:
    def test_overrides(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text(
            "# comment\nterminators = .!\nkeep_digits = false\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert cfg.terminators == ".!"
        assert cfg.keep_digits is False

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_bytes("\ufeffterminators = ;\n".encode("utf-8"))
        assert load_config(path) == PipelineConfig(terminators=";")

    def test_defaults_when_empty(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text("\n# nothing here\n", encoding="utf-8")
        assert load_config(path) == PipelineConfig()

    def test_single_override_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text("keep_digits = false\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.keep_digits is False
        assert cfg.terminators == DEFAULT_TERMINATORS

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text("terminators = .\nwindow = 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_config(path)

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        path.write_text("keep_digits = maybe\n", encoding="utf-8")
        with pytest.raises(ValueError, match="keep_digits"):
            load_config(path)

    def test_invalid_utf8_names_file_and_byte_offset(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"terminators = \xff\n")
        with pytest.raises(IngestionError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: invalid UTF-8 at byte offset 14"

    @pytest.mark.parametrize(
        "terminator, cleaned",
        [("X", "x"), ("’", "'"), ("İ", "i̇")],
        ids=["upper-case", "typographic-apostrophe", "dotted-capital-i"],
    )
    def test_terminator_that_cleaning_changes_is_refused(
        self, tmp_path, terminator, cleaned
    ):
        # normalize lowercases and folds the text before it looks for
        # terminators, so this one would never split a sentence
        problem = (
            f"terminator {terminator!r} becomes {cleaned!r} in "
            f"text cleaning, so it never splits"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            PipelineConfig(terminators=terminator)
        path = tmp_path / "pipeline.conf"
        path.write_text(f"# one\nterminators = .{terminator}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: line 2: {problem}"

    @pytest.mark.parametrize(
        "terminator",
        ["\u0301", "\u1161"],
        ids=["combining-acute", "hangul-vowel-jamo"],
    )
    def test_terminator_that_composes_is_refused(self, tmp_path, terminator):
        # NFC composes it into a letter that has a composed form with it, so
        # it would split "q" + it but not "e" + it (or "ᄀ" + it)
        problem = (
            f"terminator {terminator!r} can compose with the character before "
            f"it, so it may not split"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            PipelineConfig(terminators=terminator)
        path = tmp_path / "pipeline.conf"
        path.write_text(f"terminators = .{terminator}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value) == f"{path}: line 1: {problem}"

    def test_terminators_that_cleaning_keeps_are_accepted(self, tmp_path):
        path = tmp_path / "pipeline.conf"
        # an ASCII apostrophe among the defaults
        path.write_text("terminators = .!?…'\n", encoding="utf-8")
        assert load_config(path).terminators == ".!?…'"
        assert PipelineConfig(terminators=".!?…'").terminators == ".!?…'"


    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_keep_digits_that_is_not_a_bool_is_refused(self, value):
        # a string "false" is truthy and would keep the digits
        problem = f"^keep_digits must be a bool, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=problem):
            PipelineConfig(keep_digits=value)
        with pytest.raises(ValueError, match=problem):
            PipelineConfig()._replace(keep_digits=value)

    @pytest.mark.parametrize("value", [["."], (".",), b".", 5, None])
    def test_terminators_that_are_not_a_str_are_refused(self, value):
        # a list or bytes would fail later, inside extract_sentences
        problem = f"^terminators must be a str, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=problem):
            PipelineConfig(terminators=value)
        with pytest.raises(ValueError, match=problem):
            PipelineConfig()._replace(terminators=value)


def _collapse(text: str) -> str:
    return re.sub(" {2,}", " ", text).strip()


class TestPipelineProperties:
    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_normalize_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_token_alphabet(self, text):
        # tokens may only contain word material: letters (with their
        # combining marks), digits, and internal hyphen/apostrophe
        for sentence in extract_sentences(text):
            for token in sentence:
                assert token
                for ch in token:
                    cat = unicodedata.category(ch)
                    assert (
                        cat.startswith(("L", "M")) or cat == "Nd" or ch in "-'"
                    ), f"unexpected {ch!r} in token {token!r}"
                assert token[0] not in "-'" and token[-1] not in "-'"

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_segmentation_loses_only_terminators(self, text):
        normalized = normalize(text)
        rejoined = " ".join(segment_sentences(normalized))
        expected = _collapse(
            re.sub("[" + re.escape(DEFAULT_TERMINATORS) + "]", " ", normalized)
        )
        assert rejoined == expected

    @given(st.text())
    @settings(max_examples=100, deadline=None)
    def test_tokens_survive_a_second_pass(self, text):
        # running the pipeline over its own flattened output changes nothing
        sentences = extract_sentences(text)
        flattened = ". ".join(" ".join(tokens) for tokens in sentences)
        assert extract_sentences(flattened) == sentences


# Edge cases the pipeline must classify as the reference does: combining
# marks after a letter, a digit, a joiner, a terminator and on their own
# (so also at the start), characters that regex ``\w`` takes for word
# material, and the five typographic variants.
_EDGE_PIECES = (
    "a\u0301", "e\u0308", "5\u0301", "-\u0308", "'\u0301", ".\u0308",
    "!\u0301", "\u0301", "\u0308", "_", "\u00b2", "\u00bd", "\u216b",
    "\u2018", "\u2019", "\u02bc", "\u2010", "\u2011",
    "a", "Z", "7", "-", "'", ".", "?", "\u2026", " ", "\t", "\u0130",
)
_PIECE = st.one_of(
    st.characters(blacklist_categories=()),  # lone surrogates included
    st.sampled_from(_EDGE_PIECES),
)
_TEXT = st.lists(_PIECE).map("".join)

# the edges of the two Hangul jamo ranges NFC composes, and one step outside
_JAMO_EDGES = "\u1160\u1161\u1175\u1176\u11a7\u11a8\u11c2\u11c3"


def _refused(ch: str) -> bool:
    """The terminator rule: text cleaning changes ``ch``, or NFC may compose
    it into the character before it (a mark, a Hangul vowel or final jamo)."""
    cleaned = unicodedata.normalize("NFC", unicodedata.normalize("NFC", ch).lower())
    return (
        cleaned != ch
        or ch in "\u2018\u2019\u02bc\u2010\u2011"  # folded to ' and -
        or unicodedata.category(ch).startswith("M")
        or "\u1161" <= ch <= "\u1175"
        or "\u11a8" <= ch <= "\u11c2"
    )


# terminators hold only the characters the constructor accepts
_CONFIG = st.builds(
    PipelineConfig,
    terminators=st.lists(_PIECE, max_size=4).map(
        lambda pieces: "".join(ch for ch in "".join(pieces) if not _refused(ch))
    ),
    keep_digits=st.booleans(),
)


class TestTerminatorRule:
    @given(_PIECE | st.sampled_from(_JAMO_EDGES))
    @settings(max_examples=1000, deadline=None)
    def test_refused_exactly_by_the_rule(self, piece):
        for ch in piece:
            if _refused(ch):
                message = f"^terminator {re.escape(repr(ch))} "
                with pytest.raises(ValueError, match=message):
                    PipelineConfig(terminators=ch)
            else:
                assert PipelineConfig(terminators=ch).terminators == ch

    def test_replace_checks_terminators(self):
        config = PipelineConfig(terminators=";")
        assert config._replace(keep_digits=False) == PipelineConfig(";", False)
        with pytest.raises(ValueError, match="terminator 'X' becomes 'x'"):
            config._replace(terminators="X")
        with pytest.raises(ValueError, match="terminator 'X' becomes 'x'"):
            PipelineConfig._make(["X", True])

    def test_every_character_that_nfc_composes_is_refused(self):
        # the characters NFC composes into the one before them: every one
        # after the first of the canonical decomposition of a code point
        # that NFC rebuilds from it
        composing = set()
        for code_point in range(sys.maxunicode + 1):
            ch = chr(code_point)
            if unicodedata.is_normalized("NFD", ch):
                continue
            parts = unicodedata.normalize("NFD", ch)
            if len(parts) > 1 and unicodedata.normalize("NFC", parts) == ch:
                composing.update(parts[1:])
        assert {"\u0301", "\u1161", "\u11c2"} <= composing
        for ch in composing:
            with pytest.raises(ValueError, match="can compose"):
                PipelineConfig(terminators=ch)


# the neighbor-dependent blanking paths, so each runs on every test run:
# an orphan mark at the start, after a space terminator, after "-" and
# after a letter, a dropped digit and a joiner that are terminators; a
# joiner next to a joiner, before a mark, at the start and at the end
_ORPHAN_MARK_CASES = (
    ("\u0301ab c", PipelineConfig()),
    ("ab \u0301c. d", PipelineConfig(terminators=" .")),
    ("ab-\u0301c", PipelineConfig()),
    ("ax\u0301b", PipelineConfig(terminators="x")),
    ("a7\u0301b", PipelineConfig(terminators="7", keep_digits=False)),
    ("a'\u0301b", PipelineConfig(terminators="'")),
)
_LOOSE_JOINER_CASES = ("a--b", "a-\u0301b", "'a'", "a'")


def _examples(cases):
    """Hypothesis `example` decorators, one per argument tuple."""

    def decorate(test):
        for case in reversed(cases):
            test = example(*case)(test)
        return test

    return decorate


class TestPipelineOracle:
    """Translation and blanking equal the per-character state machines."""

    @given(_TEXT, _CONFIG)
    @settings(max_examples=1000, deadline=None)
    @_examples(_ORPHAN_MARK_CASES)
    @_examples([(case, PipelineConfig()) for case in _LOOSE_JOINER_CASES])
    def test_normalize(self, text, config):
        assert normalize(text, config) == oracles.normalize(text, config)

    @given(_TEXT)
    @settings(max_examples=1000, deadline=None)
    @_examples([(text,) for text, _ in _ORPHAN_MARK_CASES])
    @_examples([(case,) for case in _LOOSE_JOINER_CASES])
    def test_tokenize(self, text):
        assert tokenize(text) == oracles.tokenize(text)

    @given(_TEXT, _CONFIG)
    @settings(max_examples=1000, deadline=None)
    @_examples(_ORPHAN_MARK_CASES)
    @_examples([(case, PipelineConfig()) for case in _LOOSE_JOINER_CASES])
    def test_extract_sentences(self, text, config):
        assert extract_sentences(text, config) == oracles.extract_sentences(
            text, config
        )


class TestCleaningTableFill:
    """A cold table gives the oracles' output while marks are first seen."""

    def test_marks_first_seen_inside_the_call(self):
        for text, config in _ORPHAN_MARK_CASES:
            pipeline._cleaning_table.cache_clear()
            assert normalize(text, config) == oracles.normalize(text, config)
            pipeline._cleaning_table.cache_clear()
            assert tokenize(text) == oracles.tokenize(text)

    def test_threads_share_a_cold_table(self):
        # each thread cleans every combining mark of U+0300-U+036F in its own
        # order, at the start, after a letter or after a joiner, so the
        # threads race to fill the same entries
        marks = [chr(code_point) for code_point in range(0x300, 0x370)]
        texts = []
        for seed in range(4):
            rng = random.Random(seed)
            rng.shuffle(marks)
            texts.append(" ".join(rng.choice(["", "q", "ab-"]) + m for m in marks))
        expected = [(oracles.normalize(t), oracles.tokenize(t)) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                pipeline._cleaning_table.cache_clear()
                barrier = threading.Barrier(len(texts))

                def clean(text):
                    barrier.wait(timeout=60)
                    return normalize(text), tokenize(text)

                with ThreadPoolExecutor(max_workers=len(texts)) as pool:
                    results = list(pool.map(clean, texts, timeout=60))
                assert results == expected
        finally:
            sys.setswitchinterval(interval)


class TestUnicodeVersion:
    """Outputs hash identically for one ``unicodedata.unidata_version``."""

    @pytest.mark.parametrize("fixture", ["formal_text_path", "informal_text_path"])
    def test_fixture_categories_match_unicode_3_2(self, request, fixture):
        # each code point's class comes from its category, so fixture
        # outputs that agree under Unicode 3.2 and this build's database
        # do not hang on the version between them
        text = request.getfixturevalue(fixture).read_text("utf-8")
        moved = {
            ch
            for ch in set(text)
            if unicodedata.category(ch) != unicodedata.ucd_3_2_0.category(ch)
        }
        assert not moved

    def test_no_mark_is_a_regex_word_character(self):
        # `pipeline._kept` finds marks as the kept characters that are not
        # ``\w``, so every letter and decimal digit must be ``\w`` and no
        # mark may be, in each Unicode version the interpreter carries
        word = re.compile(r"\w").match
        wrong = []
        for code_point in range(sys.maxunicode + 1):
            ch = chr(code_point)
            category = unicodedata.category(ch)
            if category[0] == "M" and word(ch):
                wrong.append(f"U+{code_point:04X} {category} is \\w")
            elif (category[0] == "L" or category == "Nd") and not word(ch):
                wrong.append(f"U+{code_point:04X} {category} is not \\w")
        assert not wrong, (unicodedata.unidata_version, wrong[:10])
