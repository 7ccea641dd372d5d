from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from scomma.analyzer import analyze
from scomma.cli import corpus_dir
from scomma.flattener import flatten
from scomma.parser import parse_data, parse_model

FIXTURES = Path(__file__).parent / "fixtures"


def parse_ok(text: str, filename: str = "<test>"):
    model, diags = parse_model(text, filename)
    assert model is not None, [d.render() for d in diags]
    return model


def parse_data_ok(text: str, filename: str = "<test>"):
    data, diags = parse_data(text, filename)
    assert data is not None, [d.render() for d in diags]
    return data


def analyze_ok(model, data=None):
    tm, diags = analyze(model, data)
    assert tm is not None, [d.render() for d in diags]
    return tm


def compile_text(model_text: str, data_text: str | None = None):
    """Full front-end pipeline for inline sources; returns (tm, fm)."""
    model = parse_ok(model_text)
    data = parse_data_ok(data_text) if data_text else None
    tm = analyze_ok(model, data)
    fm, _trace = flatten(tm)
    return tm, fm


def compile_corpus(name: str, data_name: str | None = None):
    """Compile a shipped corpus model, optionally with replacement data."""
    model_path = corpus_dir() / f"{name}.scm"
    model = parse_ok(model_path.read_text(), str(model_path))
    data = None
    if data_name is not None:
        source = FIXTURES / data_name
        if not source.exists():
            source = corpus_dir() / data_name
        data = parse_data_ok(source.read_text(), str(source))
    else:
        merged = None
        for imp in model.imports:
            dpath = corpus_dir() / imp
            part = parse_data_ok(dpath.read_text(), str(dpath))
            merged = part if merged is None else merged.merged_with(part)[0]
        data = merged
    tm = analyze_ok(model, data)
    fm, trace = flatten(tm)
    return tm, fm, trace


@pytest.fixture(scope="session")
def corpus_path() -> Path:
    return corpus_dir()


@pytest.fixture(scope="session")
def stable():
    tm, fm, _ = compile_corpus("stable")
    return tm, fm


CORPUS_NAMES = [
    "golfers", "ineq20", "packing", "production",
    "queens-10", "queens-18", "send", "stable", "sudoku",
]


# Property tests run the same examples on every run and machine: no example
# database, no wall-clock deadline, a bounded number of examples.
settings.register_profile(
    "scomma", derandomize=True, database=None, max_examples=300, deadline=None
)
settings.load_profile("scomma")
