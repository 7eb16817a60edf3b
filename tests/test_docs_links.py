"""Documentation link and command-line check.

Every relative markdown link in the documentation set must resolve to
a real file (anchors are stripped; external http(s)/mailto links are
skipped), every ``--flag`` a fenced ``repro.cli <subcommand>``
recipe passes must be one that subcommand accepts (and every flag a
``python -m repro.verify`` line passes, fenced or not, one the model
checker accepts), every test id a
document or CI step cites (``tests/x.py::test_y``) must name a
function that file defines, and the endpoints ``docs/operations.md``
lists must be the wire table's.  Run standalone
by the CI docs step::

    PYTHONPATH=src python -m pytest tests/test_docs_links.py -q
"""

import ast
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

#: the files that cite test ids by path: the documents and CI's steps
CITING_FILES = [
    *DOC_FILES,
    REPO / ".github" / "workflows" / "ci.yml",
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CLI_LINE = re.compile(r"repro\.cli[ \t]+([a-z][\w-]*)(.*)")
_VERIFY_LINE = re.compile(r"(?:python -m repro\.verify|repro\.cli[ \t]+verify)(?![\w.])(.*)")
_TEST_ID = re.compile(r"\b((?:benchmarks|tests)/[\w/]+\.py)::(\w+)")


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


def _flags(rest: str):
    """The ``--flag`` tokens of one command line's arguments: up to a
    shell operator, a comment or the end of an inline code span."""
    flags = []
    for token in rest.split():
        if token in {"&", "&&", "|", ";", ">", ">>"} or token[0] == "#":
            break
        token = token.lstrip("[")  # an optional flag: `[--channel fifo]`
        if token.startswith("--"):
            flags.append(re.split(r"[=\]`]", token, maxsplit=1)[0])
        if "`" in token:
            break
    return flags


def _cli_recipes(path: Path):
    """``(subcommand, [--flag, ...])`` per ``repro.cli`` command line
    inside the fenced blocks of ``path`` (continuation lines joined);
    ``repro.cli verify`` lines are :func:`_verify_recipes`'."""
    for block in _FENCED.findall(path.read_text(encoding="utf-8")):
        for command, rest in _CLI_LINE.findall(block.replace("\\\n", " ")):
            if command != "verify":
                yield command, _flags(rest)


def _verify_recipes(path: Path):
    """``[--flag, ...]`` per model-checker command line anywhere in
    ``path`` — fenced, inline or a CI ``run:`` step."""
    text = path.read_text(encoding="utf-8").replace("\\\n", " ")
    for rest in _VERIFY_LINE.findall(text):
        yield _flags(rest)


def _subcommand_parsers():
    import argparse

    from repro import cli

    (subparsers,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices


def _unknown_flags(path: Path):
    """``"subcommand --flag"`` per flag a recipe in ``path`` passes
    that the command line it names does not accept."""
    from repro.verify.__main__ import build_parser

    parsers = _subcommand_parsers()
    unknown = [
        f"{command} {flag}"
        for command, flags in _cli_recipes(path)
        for flag in flags
        if command not in parsers
        or flag not in parsers[command]._option_string_actions
    ]
    verify = build_parser()._option_string_actions
    unknown += [
        f"verify {flag}"
        for flags in _verify_recipes(path)
        for flag in flags
        if flag not in verify
    ]
    return unknown


def test_the_flag_check_sees_the_recipes():
    """The check below passes vacuously if the extraction rots."""
    recipes = list(_cli_recipes(REPO / "docs" / "campaigns.md"))
    assert ("campaign", ["--backend", "--out"]) in recipes
    assert ("cell-server", ["--host", "--port"]) in recipes
    verify = list(_verify_recipes(REPO / "docs" / "verification.md"))
    assert [
        "--algo", "--n", "--planted-bug", "--checks", "--save-trace"
    ] in verify


@pytest.mark.parametrize("doc", CITING_FILES, ids=lambda p: p.name)
def test_cli_recipes_pass_only_flags_the_cli_accepts(doc):
    """A recipe for a removed flag (``--parallel``, ``--shard``,
    ``--symmetry``) must not outlive the flag."""
    unknown = _unknown_flags(doc)
    assert not unknown, f"{doc.name}: the CLI does not accept {unknown}"


def test_a_removed_verify_flag_is_named(tmp_path):
    doc = tmp_path / "planted.md"
    doc.write_text(
        "Run `python -m repro.verify --algo rcv --n 3` to prove it, and\n"
        "```sh\npython -m repro.verify --algo echo --n 3 \\\n"
        "    --symmetry --json  # the quotient\n```\n",
        encoding="utf-8",
    )
    assert _unknown_flags(doc) == ["verify --symmetry"]


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


def _unresolved_test_ids(paths):
    """``file: path::name`` for every cited test id whose file is
    missing or defines no top-level ``name`` (read by AST: nothing
    is imported or run)."""
    defined = {}
    unresolved = []
    for path in paths:
        for target, name in _TEST_ID.findall(path.read_text(encoding="utf-8")):
            if target not in defined:
                source = REPO / target
                body = (
                    ast.parse(source.read_text(encoding="utf-8")).body
                    if source.is_file()
                    else []
                )
                defined[target] = {
                    node.name
                    for node in body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                }
            if name not in defined[target]:
                unresolved.append(f"{path.name}: {target}::{name}")
    return unresolved


def test_cited_test_ids_resolve():
    """A CI step or doc recipe naming a moved or renamed test would
    select nothing and pass, or fail as "not found" only when run."""
    assert not _unresolved_test_ids(CITING_FILES)


def test_a_bogus_test_id_is_named(tmp_path):
    doc = tmp_path / "planted.md"
    doc.write_text(
        "`tests/test_docs_links.py::test_cited_test_ids_resolve` and\n"
        "`benchmarks/bench_protocol.py::test_no_such_floor`\n",
        encoding="utf-8",
    )
    assert _unresolved_test_ids([doc]) == [
        "planted.md: benchmarks/bench_protocol.py::test_no_such_floor"
    ]
