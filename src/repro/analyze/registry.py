"""The pluggable rule registry.

Every rule registers itself with :func:`rule`: an ID, a rule family, a
default severity, and a one-line rationale (rendered by
``repro lint --list-rules`` and mirrored in ``docs/static-analysis.md``).
A rule is a callable taking the whole-program
:class:`~repro.analyze.index.ProgramIndex` and yielding
:class:`~repro.analyze.findings.LintFinding`\\ s — whole-program by
design, because the interface-conformance and wiring families need the
cross-file class hierarchy, not one file at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.analyze.findings import SEVERITIES, LintFinding
from repro.errors import AnalysisError

#: Rule families, keyed by ID prefix.
FAMILIES = {
    "IF": "interface conformance",
    "DT": "determinism",
    "WR": "wiring & race surface",
    "SW": "sweep safety",
}


@dataclass(frozen=True)
class Rule:
    """Metadata plus the check callable for one rule."""

    id: str
    title: str
    severity: str
    rationale: str
    check: Callable[["ProgramIndex"], Iterable[LintFinding]]  # noqa: F821

    @property
    def family(self) -> str:
        return FAMILIES[self.id[:2]]


#: All registered rules, keyed by ID (insertion-ordered).
RULES: Dict[str, Rule] = {}


def rule(id: str, title: str, severity: str, rationale: str):
    """Class/function decorator registering a rule checker."""
    if id[:2] not in FAMILIES:
        raise AnalysisError(f"rule {id!r} has no family; known: {sorted(FAMILIES)}")
    if severity not in SEVERITIES:
        raise AnalysisError(
            f"rule {id!r}: severity must be one of {SEVERITIES}, got {severity!r}"
        )
    if id in RULES:
        raise AnalysisError(f"rule {id!r} registered twice")

    def register(check):
        RULES[id] = Rule(
            id=id, title=title, severity=severity, rationale=rationale, check=check
        )
        return check

    return register


def all_rules() -> List[Rule]:
    """Every registered rule, loading the built-in rule modules."""
    # Import for side effects: each module registers its rules on import.
    from repro.analyze import (  # noqa: F401
        rules_determinism,
        rules_interface,
        rules_sweep,
        rules_wiring,
    )

    return list(RULES.values())


def catalog_hash() -> str:
    """Stable digest of the loaded rule catalog, for cache keying.

    Covers every rule's identity, metadata, and the *compiled bytecode*
    of its check callable, plus the analyzer version — so editing a
    rule's logic (not just its docstring) or adding/removing a rule
    changes the hash and invalidates cached findings keyed on it.
    """
    from repro.analyze.index import ANALYZER_VERSION

    digest = hashlib.sha1()
    digest.update(f"analyzer/v{ANALYZER_VERSION}".encode("utf-8"))
    for registered in sorted(all_rules(), key=lambda r: r.id):
        digest.update(
            "\x1f".join(
                (registered.id, registered.title, registered.severity,
                 registered.rationale)
            ).encode("utf-8")
        )
        code = getattr(registered.check, "__code__", None)
        if code is not None:
            digest.update(code.co_code)
            digest.update(repr(code.co_consts).encode("utf-8"))
    return digest.hexdigest()


def resolve_rules(ids: Iterable[str]) -> List[Rule]:
    """Map IDs (or family prefixes like ``IF``) to registered rules."""
    available = {r.id: r for r in all_rules()}
    selected: List[Rule] = []
    for wanted in ids:
        if wanted in available:
            selected.append(available[wanted])
        elif wanted in FAMILIES:
            selected.extend(r for r in available.values() if r.id.startswith(wanted))
        else:
            raise AnalysisError(
                f"unknown rule or family {wanted!r}; see `repro lint --list-rules`"
            )
    return selected
