"""Documentation link and command-line check.

Every relative markdown link in the documentation set must resolve to
a real file (anchors are stripped; external http(s)/mailto links are
skipped), every ``--flag`` a fenced ``repro.cli <subcommand>``
recipe passes must be one that subcommand accepts, and the endpoints
``docs/operations.md`` lists must be the wire table's.  Run standalone
by the CI docs step::

    PYTHONPATH=src python -m pytest tests/test_docs_links.py -q
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: the documentation set the link check covers
DOC_FILES = sorted(
    [
        *(REPO / "docs").glob("*.md"),
        REPO / "ARCHITECTURE.md",
        REPO / "EXPERIMENTS.md",
        REPO / "PAPER.md",
        REPO / "ROADMAP.md",
    ]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CLI_LINE = re.compile(r"repro\.cli[ \t]+([a-z][\w-]*)(.*)")


def _relative_links(path: Path):
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_doc_set_exists():
    assert (REPO / "docs" / "protocol.md").exists()
    assert (REPO / "docs" / "examples.md").exists()
    assert (REPO / "docs" / "campaigns.md").exists()
    assert (REPO / "docs" / "operations.md").exists()
    assert (REPO / "docs" / "README.md").exists()
    assert DOC_FILES, "documentation set is empty"


def test_docs_index_lists_every_docs_page():
    """docs/README.md is the index: a page added to docs/ without an
    index entry is invisible to readers."""
    index = (REPO / "docs" / "README.md").read_text(encoding="utf-8")
    for page in (REPO / "docs").glob("*.md"):
        if page.name == "README.md":
            continue
        assert f"({page.name})" in index, f"docs/README.md misses {page.name}"


def test_paper_md_has_title_and_abstract():
    """PAPER.md must carry the real paper title and a summary, not
    the empty seed block."""
    text = (REPO / "PAPER.md").read_text(encoding="utf-8")
    assert "Relative Consensus Voting" in text
    assert "## Summary" in text
    assert "## What this repository covers" in text


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken relative links {broken}"


def _cli_recipes(path: Path):
    """``(subcommand, [--flag, ...])`` per ``repro.cli`` command line
    inside the fenced blocks of ``path`` (continuation lines joined;
    a line ends at a shell operator or comment)."""
    for block in _FENCED.findall(path.read_text(encoding="utf-8")):
        for command, rest in _CLI_LINE.findall(block.replace("\\\n", " ")):
            flags = []
            for token in rest.split():
                if token in {"&", "&&", "|", ";", ">", ">>"} or token[0] == "#":
                    break
                if token.startswith("--"):
                    flags.append(token.split("=", 1)[0])
            yield command, flags


def _subcommand_parsers():
    import argparse

    from repro import cli

    (subparsers,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices


def test_the_flag_check_sees_the_recipes():
    """The check below passes vacuously if the extraction rots."""
    recipes = list(_cli_recipes(REPO / "docs" / "campaigns.md"))
    assert ("campaign", ["--backend", "--steal", "--out"]) in recipes
    assert ("cell-server", ["--host", "--port"]) in recipes


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_cli_recipes_pass_only_flags_the_cli_accepts(doc):
    """A recipe for a removed flag (``--parallel``, ``--shard``) must
    not outlive the flag."""
    parsers = _subcommand_parsers()
    unknown = [
        f"{command} {flag}"
        for command, flags in _cli_recipes(doc)
        for flag in flags
        if command not in parsers
        or flag not in parsers[command]._option_string_actions
    ]
    assert not unknown, f"{doc.name}: the CLI does not accept {unknown}"


def test_operations_md_lists_exactly_the_wire_table():
    """"The HTTP protocol" is the prose copy of
    ``repro.experiments.protocol.ENDPOINTS``: every endpoint once, and
    none the server does not serve."""
    from repro.experiments.protocol import API_PREFIX, ENDPOINTS

    text = (REPO / "docs" / "operations.md").read_text(encoding="utf-8")
    section = text.split("\n## The HTTP protocol", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(
        rf"^(GET|PUT|POST)\s+({API_PREFIX}/\S+)", section, re.MULTILINE
    )
    assert sorted(documented) == sorted(
        (op.method, f"{API_PREFIX}/{op.resource}" + "/<key>" * op.keyed)
        for op in ENDPOINTS.values()
    )
