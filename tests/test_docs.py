"""The docs agree with the tree: every path, test id, console script
and dotted ``repro.…`` name they show exists, every ``repro-cluster``
flag they show is accepted, and the metric catalogue lists exactly the
metrics ``src/repro`` registers."""

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [
    path.relative_to(ROOT).as_posix()
    for path in [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md"]
    + sorted((ROOT / "docs").glob("*.md"))
]

#: a repo-relative path as the docs write one: under a top-level source
#: directory, or one of the upper-case ``*.json`` / ``*.md`` files at the root
PATH = re.compile(
    r"(?:benchmarks|docs|examples|tests|src)/[\w./-]*\w|[A-Z][A-Z_]*\.(?:json|md)"
)
#: what a run writes; named in instructions, absent from a checkout
GENERATED = ("benchmarks/e2e/out/",)


def _named_paths(text):
    """``(path, test-id parts)`` for every backticked path in *text*."""
    for span in re.findall(r"`([^`\n]+)`", text):
        for token in span.split():
            path, *parts = token.split("::")
            if PATH.fullmatch(path) and not path.startswith(GENERATED):
                yield path, [part.split("[")[0] for part in parts]


def _link_targets(text):
    for target in re.findall(r"\]\(([^)\s]+)\)", text):
        if not re.match(r"[a-z]+:|#", target):
            yield target.split("#")[0]


def _console_scripts():
    pyproject = (ROOT / "pyproject.toml").read_text()
    section = pyproject.split("[project.scripts]")[1].split("\n[")[0]
    return set(re.findall(r"^([\w-]+)\s*=", section, flags=re.M))


@pytest.mark.parametrize("doc", DOCS)
def test_everything_a_doc_names_exists(doc):
    text = (ROOT / doc).read_text()
    missing = []
    for path, parts in _named_paths(text):
        if not (ROOT / path).exists():
            missing.append(path)
        elif parts:
            defined = set(
                re.findall(r"^\s*(?:def|class) (\w+)", (ROOT / path).read_text(), flags=re.M)
            )
            missing += [f"{path}::{part}" for part in parts if part not in defined]
    for target in _link_targets(text):
        if not ((ROOT / doc).parent / target).exists():
            missing.append(f"link {target}")
    scripts = _console_scripts()
    missing += [
        f"console script {name}"
        for name in set(re.findall(r"\brepro-[a-z]+\b", text))
        if name not in scripts
    ]
    assert not missing, f"{doc} names things that do not exist: {sorted(set(missing))}"


#: a dotted name under the package, as the docs write one in backticks
DOTTED = re.compile(r"(?<![\w/.-])repro(?:\.[A-Za-z_]\w*)+")


def _dotted_names(text):
    """Every dotted ``repro.…`` name in a backtick span of *text*.  A
    bare identifier span that continues a comma list after one (as in
    ``repro.detect.A``, ``B``) names ``repro.detect.B``."""
    for line in text.splitlines():
        module, end = None, 0
        for match in re.finditer(r"`([^`]+)`", line):
            span, gap = match.group(1), line[end:match.start()]
            found = DOTTED.findall(span)
            if found:
                yield from found
                module = found[-1].rsplit(".", 1)[0]
            elif module and re.fullmatch(r"[A-Za-z_]\w*", span) and re.fullmatch(
                r",\s*(?:and\s+)?", gap
            ):
                yield f"{module}.{span}"
            else:
                module = None
            end = match.end()


def _resolves(name):
    """Import the longest importable prefix of *name*, then ``getattr``
    the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_name_a_doc_shows_resolves(doc):
    names = set(_dotted_names((ROOT / doc).read_text()))
    unresolved = sorted(name for name in names if not _resolves(name))
    assert not unresolved, f"{doc} shows names that do not resolve: {unresolved}"


def _cluster_subcommand_flags():
    from repro.net.cli import build_parser

    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        name: set(parser._option_string_actions)
        for name, parser in subparsers.choices.items()
    }


@pytest.mark.parametrize("doc", DOCS)
def test_every_cluster_flag_a_doc_shows_is_accepted(doc):
    """A ``repro-cluster <subcommand>`` command line — up to the end of
    its backtick span, or of its shell line with ``\\`` continuations —
    names only flags that subcommand takes, so a deleted flag cannot
    live on in the docs."""
    accepted = _cluster_subcommand_flags()
    text = (ROOT / doc).read_text()
    unknown = []
    for command, rest in re.findall(
        r"repro-cluster ([a-z-]+)((?:\\\n|[^`\n])*)", text
    ):
        if command in accepted:
            unknown += [
                f"repro-cluster {command} {flag}"
                for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", rest)
                if flag not in accepted[command]
            ]
    assert not unknown, f"{doc} shows flags the CLI does not take: {sorted(set(unknown))}"


# ----------------------------------------------------------------------
# metric catalogue drift
# ----------------------------------------------------------------------
def _registered_metrics():
    """Metric names written out under ``src/repro``: every string
    constant that is a whole ``repro_*`` name, plus — as ``prefix_<…>``
    — every f-string that starts with one (a family whose last part is
    filled in at registration)."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                text, pattern, suffix = node.values[0], r"repro_[a-z0-9_]*_", "<…>"
            else:
                text, pattern, suffix = node, r"repro_[a-z0-9_]*[a-z0-9]", ""
            if (
                isinstance(text, ast.Constant)
                and isinstance(text.value, str)
                and re.fullmatch(pattern, text.value)
            ):
                names.add(text.value + suffix)
    return names


def _catalogued_metrics():
    """First column of every metric table row in ``docs/*.md``."""
    names = set()
    for path in (ROOT / "docs").glob("*.md"):
        for name, family in re.findall(
            r"^\| `(repro_[a-z0-9_]+)(<[a-z]+>)?` \|", path.read_text(), flags=re.M
        ):
            names.add(name + ("<…>" if family else ""))
    return names


REGISTERED, CATALOGUED = _registered_metrics(), _catalogued_metrics()


@pytest.mark.parametrize("metric", sorted(REGISTERED | CATALOGUED))
def test_metric_is_registered_and_catalogued(metric):
    assert metric in CATALOGUED, f"{metric}: named under src/repro, in no docs/*.md table"
    assert metric in REGISTERED, f"{metric}: catalogued, but nothing under src/repro names it"
