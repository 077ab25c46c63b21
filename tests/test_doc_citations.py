"""Every citation of an EXPERIMENTS.md campaign or an ARCHITECTURE section
in the project's records resolves to a heading of the cited document."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
RECORDS = ["ROADMAP.md", "CHANGES.md", "README.md", *sorted(f"docs/{p.name}" for p in (REPO / "docs").glob("*.md"))]

#: ``EXPERIMENTS.md "PR 44"`` / ``EXPERIMENTS "PR 44"``, and ``ARCHITECTURE §7`` /
#: ``docs/ARCHITECTURE.md` §7``, also across a line break.
CITATIONS = {
    "EXPERIMENTS.md": re.compile(r'EXPERIMENTS(?:\.md)?`?\s+"PR (\d+)"'),
    "docs/ARCHITECTURE.md": re.compile(r"ARCHITECTURE(?:\.md)?`?\s+§(\d+)"),
}
#: What a heading of the cited document names: a campaign's PR, a section's number.
TARGETS = {
    "EXPERIMENTS.md": re.compile(r"^#+ .*\bPR (\d+)\b", re.M),
    "docs/ARCHITECTURE.md": re.compile(r"^## (\d+)\. ", re.M),
}


def citations(document: str) -> list[tuple[str, str]]:
    return [
        (record, match.group(1))
        for record in RECORDS
        for match in CITATIONS[document].finditer((REPO / record).read_text())
    ]


@pytest.mark.parametrize("document", sorted(CITATIONS))
def test_every_citation_names_a_heading(document):
    found = citations(document)
    assert found, f"no citation of {document} found: the pattern no longer matches the records"
    headings = set(TARGETS[document].findall((REPO / document).read_text()))
    assert [(record, n) for record, n in found if n not in headings] == []
