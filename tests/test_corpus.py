import json

import pytest

from rmcorr.corpus import BUNDLED, CorpusEntry, load_corpus
from rmcorr.render import OutputFormat, render
from rmcorr.syntax import parse


def test_bundled_corpus_loads():
    entries = load_corpus(BUNDLED)
    assert len(entries) == 36
    assert len({e.name for e in entries}) == 36
    for e in entries:
        parse(e.formula)  # every formula is well-formed


def test_pinned_expected_correspondents(corpus_runs, corpus_entries):
    pinned = [e for e in corpus_entries if e.expected_fo is not None]
    assert len(pinned) == 2
    for entry in pinned:
        _, res = corpus_runs[entry.name]
        assert render(res.fo, OutputFormat.TEX) == entry.expected_fo


def test_corpus_file_loader_errors(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text("{not json}\n")
    with pytest.raises(ValueError):
        load_corpus(str(path))


def test_corpus_loader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("# comment\n\n" + json.dumps(
        {"name": "x", "formula": "p"}) + "\n")
    assert load_corpus(str(path)) == [CorpusEntry("x", "p")]


@pytest.mark.parametrize("line,message", [
    ('{"name": "a"}', "'formula' must be a string"),
    ('{"formula": "p"}', "'name' must be a string"),
    ("[1]", "expected a JSON object"),
    ("null", "expected a JSON object"),
    ('{"name": "a", "formula": "p", "expected_fo": 1}', "'expected_fo'"),
])
def test_corpus_loader_rejects_malformed_entries(line, message, tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("# header\n" + line + "\n")
    with pytest.raises(ValueError, match=f"c.jsonl:2: {message}"):
        load_corpus(str(path))
