import random
from pathlib import Path

import pytest

from coocnet import CooccurrenceNetwork

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def complete_triad() -> CooccurrenceNetwork:
    """All six directed edges among three nodes, unit weights."""
    edges = {
        (0, 1): 1,
        (1, 0): 1,
        (1, 2): 1,
        (2, 1): 1,
        (0, 2): 1,
        (2, 0): 1,
    }
    return CooccurrenceNetwork(("a", "b", "c"), edges)


@pytest.fixture
def path4() -> CooccurrenceNetwork:
    """a -> b -> c -> d; projection is the path on four nodes."""
    return CooccurrenceNetwork(("a", "b", "c", "d"), {(0, 1): 1, (1, 2): 1, (2, 3): 1})


@pytest.fixture
def two_node_net() -> CooccurrenceNetwork:
    """{a -> b: 2, b -> a: 1}, the smallest interesting network."""
    return CooccurrenceNetwork(("a", "b"), {(0, 1): 2, (1, 0): 1})


@pytest.fixture(scope="session")
def formal_text_path() -> Path:
    return FIXTURE_DIR / "formal_excerpt.txt"


@pytest.fixture(scope="session")
def informal_text_path() -> Path:
    return FIXTURE_DIR / "informal_excerpt.txt"


@pytest.fixture(scope="session")
def zipf_sentences() -> list[list[str]]:
    """40,000 seeded tokens over 20,000 words with Zipf's law, in sentences.

    A sentence ends after a token with probability 6%, so the network has
    text's shape: a few hubs, a long tail, and many shared values.  Read
    only; the list is shared by every test of the session.
    """
    rng = random.Random(3)
    vocabulary = [f"w{rank}" for rank in range(1, 20_001)]
    weights = [1 / rank for rank in range(1, 20_001)]
    sentences: list[list[str]] = [[]]
    for token in rng.choices(vocabulary, weights, k=40_000):
        sentences[-1].append(token)
        if rng.random() < 0.06:
            sentences.append([])
    return sentences
