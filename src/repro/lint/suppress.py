"""Inline suppressions: ``# lint: disable=RULE[,RULE...] -- justification``.

A suppression applies to findings on its own line, or — when the line
holds nothing but the comment — to the next source line.  The
justification after ``--`` is **required**: a silent suppression is
itself reported (rule ``suppression-justification``), so every exception
to an invariant carries its reasoning in the diff that introduced it.
A suppression that no longer matches any finding is reported too (rule
``unused-suppression``), so a waiver cannot outlive the code it excused
or silently stop covering a site the analysis no longer sees.
These inline comments are the only way to accept a finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Tuple

from repro.lint.findings import Finding

SUPPRESSION_RULE = "suppression-justification"
UNUSED_RULE = "unused-suppression"

_PATTERN = re.compile(
    r"#\s*lint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


@dataclass
class Suppression:
    line: int  # line the suppression applies to
    rules: Tuple[str, ...]
    justification: str
    used_for: List[str] = field(default_factory=list)


def parse_suppressions(path: str, text: str) -> Tuple[List[Suppression], List[Finding]]:
    """Extract suppressions from source text.

    Returns the suppressions plus findings for any ``disable`` comment
    that lacks a justification.
    """
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = _PATTERN.search(raw)
        if not match:
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        why = (match.group("why") or "").strip()
        # A comment-only line shields the line below it; a trailing
        # comment shields its own line.
        own_line = raw[: match.start()].strip()
        target = lineno if own_line else lineno + 1
        if not why:
            findings.append(
                Finding(
                    rule=SUPPRESSION_RULE,
                    path=path,
                    line=lineno,
                    message=(
                        "suppression needs a justification: "
                        "'# lint: disable="
                        + ",".join(rules)
                        + " -- <why this is safe>'"
                    ),
                    snippet=raw.strip(),
                )
            )
            continue
        suppressions.append(Suppression(target, rules, why))
    return suppressions, findings


def apply_suppressions(
    findings: List[Finding], by_path: Dict[str, List[Suppression]]
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (active, suppressed) using parsed suppressions."""
    active: List[Finding] = []
    suppressed: List[Finding] = []
    index: Dict[Tuple[str, int], List[Suppression]] = {}
    for path, items in by_path.items():
        for sup in items:
            index.setdefault((path, sup.line), []).append(sup)
    for finding in findings:
        hit = None
        for sup in index.get((finding.path, finding.line), []):
            if finding.rule in sup.rules:
                hit = sup
                break
        if hit is not None:
            hit.used_for.append(finding.rule)
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed


def unused_suppressions(
    by_path: Dict[str, List[Suppression]], checked: AbstractSet[str]
) -> List[Finding]:
    """Findings for suppressed rule ids that matched nothing this run.

    Call after :func:`apply_suppressions`.  Only rules in ``checked``
    count: a rule that did not run (a ``--rules`` subset) could not have
    matched, so silence from it proves nothing.
    """
    findings: List[Finding] = []
    for path, items in sorted(by_path.items()):
        for sup in items:
            dead = [
                rule
                for rule in sup.rules
                if rule in checked and rule not in sup.used_for
            ]
            if dead:
                findings.append(
                    Finding(
                        rule=UNUSED_RULE,
                        path=path,
                        line=sup.line,
                        message=(
                            f"'# lint: disable={','.join(dead)}' "
                            "suppresses nothing on this line; delete it"
                        ),
                    )
                )
    return findings


__all__ = [
    "SUPPRESSION_RULE",
    "UNUSED_RULE",
    "Suppression",
    "apply_suppressions",
    "parse_suppressions",
    "unused_suppressions",
]
