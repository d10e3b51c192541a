"""Lint findings and the three reporter formats (text, JSON, GitHub)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    ``snippet`` is the stripped source line, shown by the SARIF reporter.
    """

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str
    snippet: str = ""

    def row(self) -> dict:
        return asdict(self)


def _text(findings: List[Finding]) -> str:
    lines = [
        f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in findings
    ]
    return "\n".join(lines)


def _json(findings: List[Finding]) -> str:
    return json.dumps([f.row() for f in findings], indent=2, sort_keys=True)


def _github(findings: List[Finding]) -> str:
    """GitHub Actions workflow-command annotations (one per finding)."""
    lines = []
    for f in findings:
        message = f"{f.rule}: {f.message}".replace("%", "%25")
        message = message.replace("\r", "%0D").replace("\n", "%0A")
        lines.append(f"::error file={f.path},line={f.line}::{message}")
    return "\n".join(lines)


def _sarif(findings: List[Finding]) -> str:
    """SARIF 2.1.0 for CI code scanning (GitHub's security tab)."""
    # Lazy import: findings is a leaf module the rules themselves import.
    from repro.lint.rules import all_rules

    descriptions = {r.id: r.description for r in all_rules()}
    used = sorted({f.rule for f in findings})
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": descriptions.get(rule_id, rule_id)
            },
        }
        for rule_id in used
    ]
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": used.index(f.rule),
            "level": "error",
            "message": {"text": f"{f.rule}: {f.message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(1, f.line),
                            "snippet": {"text": f.snippet},
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://github.com/example/repro"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


FORMATS = {"text": _text, "json": _json, "github": _github, "sarif": _sarif}


def render_findings(findings: List[Finding], fmt: str = "text") -> str:
    """Render findings in one of the supported formats."""
    try:
        renderer = FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown format {fmt!r} (choose from {sorted(FORMATS)})"
        ) from None
    return renderer(sorted(findings, key=lambda f: (f.path, f.line, f.rule)))


__all__ = ["Finding", "render_findings", "FORMATS"]
