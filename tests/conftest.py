import numpy as np
import pytest
from hypothesis import strategies as st

from roleproj import fixtures
from roleproj.similarity import SimilarityMatrix

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def figure1():
    return fixtures.figure1_bisentence()


@pytest.fixture
def toy_corpus():
    return fixtures.toy_bisentences()


@pytest.fixture
def fixture_dir(tmp_path):
    fixtures.emit(tmp_path)
    return tmp_path


def sim_matrix(sim) -> SimilarityMatrix:
    sim = np.asarray(sim, dtype=float)
    n, m = sim.shape
    return SimilarityMatrix(tuple(range(n)), tuple(range(m)), sim)


def random_sim(rng, n, m, zero_frac=0.3) -> SimilarityMatrix:
    sim = rng.random((n, m))
    sim[rng.random((n, m)) < zero_frac] = 0.0
    return sim_matrix(sim)


@st.composite
def trees(draw, max_depth=4):
    labels = st.sampled_from(["S", "NP", "VP", "PP", "X"])
    tags = st.sampled_from(["NN", "DT", "VBZ", "JJ"])
    words = st.sampled_from(["cat", "dog", "runs", "the", "green"])

    def node(depth):
        if depth >= max_depth or draw(st.booleans()):
            return f"({draw(tags)} {draw(words)})"
        k = draw(st.integers(1, 3))
        inner = " ".join(node(depth + 1) for _ in range(k))
        return f"({draw(labels)} {inner})"

    return node(0)
