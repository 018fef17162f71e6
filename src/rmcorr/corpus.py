"""Bundled axiom corpus and corpus-file loading.

A corpus file holds one JSON object per line: {"name": ..., "formula": ...,
"expected_fo": ...} where the formula is surface text in the corpus's
notation and expected_fo, when present, is the TeX rendering of the final
first-order correspondent the entry is pinned to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

__all__ = ["CorpusEntry", "load_corpus", "BUNDLED"]

BUNDLED = "bundled-axioms"


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    formula: str
    expected_fo: Optional[str] = None


def _parse_lines(text: str, source: str) -> list[CorpusEntry]:
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}:{lineno}: bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"{source}:{lineno}: expected a JSON object")
        for key in ("name", "formula"):
            if not isinstance(obj.get(key), str):
                raise ValueError(f"{source}:{lineno}: '{key}' must be a string")
        expected = obj.get("expected_fo")
        if expected is not None and not isinstance(expected, str):
            raise ValueError(f"{source}:{lineno}: 'expected_fo' must be a "
                             "string or null")
        entries.append(CorpusEntry(obj["name"], obj["formula"], expected))
    return entries


def load_corpus(name_or_path: str) -> list[CorpusEntry]:
    """Load the bundled corpus by name, or any corpus file by path."""
    if name_or_path == BUNDLED:
        text = resources.files("rmcorr").joinpath(
            "data/bundled_axioms.jsonl").read_text("utf-8")
        return _parse_lines(text, BUNDLED)
    path = Path(name_or_path)
    return _parse_lines(path.read_text("utf-8"), str(path))
