"""Exporters: save views and mappings "in different formats for further
analysis in external tools" (paper Section 5.1).

Supported formats: ``tsv``, ``csv``, ``json`` and ``html`` for annotation
views; ``tsv`` and ``json`` for mappings.
"""

from __future__ import annotations

import csv
import html
import io
import json
from pathlib import Path

from repro.gam.errors import ExportError
from repro.operators.mapping import Mapping
from repro.operators.views import AnnotationView

VIEW_FORMATS = ("tsv", "csv", "json", "html")
MAPPING_FORMATS = ("tsv", "json")


def render_view(view: AnnotationView, fmt: str = "tsv") -> str:
    """Serialize a view to a string in the requested format."""
    fmt = fmt.lower()
    if fmt == "tsv":
        return view.to_tsv()
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(view.columns)
        for row in view.rows:
            writer.writerow(["" if value is None else value for value in row])
        return buffer.getvalue()
    if fmt == "json":
        return view.to_json()
    if fmt == "html":
        return _view_to_html(view)
    raise ExportError(f"unknown view format {fmt!r} (known: {VIEW_FORMATS})")


def write_view(view: AnnotationView, path: str | Path, fmt: str = "tsv") -> Path:
    """Write a view to a file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_view(view, fmt), encoding="utf-8")
    return path


def _view_to_html(view: AnnotationView) -> str:
    lines = [
        "<table>",
        "  <thead><tr>"
        + "".join(f"<th>{html.escape(col)}</th>" for col in view.columns)
        + "</tr></thead>",
        "  <tbody>",
    ]
    for row in view.rows:
        cells = "".join(
            f"<td>{'' if value is None else html.escape(str(value))}</td>"
            for value in row
        )
        lines.append(f"    <tr>{cells}</tr>")
    lines.append("  </tbody>")
    lines.append("</table>")
    return "\n".join(lines) + "\n"


def render_mapping(mapping: Mapping, fmt: str = "tsv") -> str:
    """Serialize a mapping to a string in the requested format."""
    fmt = fmt.lower()
    if fmt == "tsv":
        lines = [f"{mapping.source}\t{mapping.target}\tevidence"]
        for acc1, acc2, evidence in mapping.rows:
            lines.append(f"{acc1}\t{acc2}\t{evidence:g}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(
            {
                "source": mapping.source,
                "target": mapping.target,
                "rel_type": mapping.rel_type.value if mapping.rel_type else None,
                "associations": [
                    {"source": acc1, "target": acc2, "evidence": evidence}
                    for acc1, acc2, evidence in mapping.rows
                ],
            },
            indent=2,
        )
    raise ExportError(f"unknown mapping format {fmt!r} (known: {MAPPING_FORMATS})")


def write_mapping(mapping: Mapping, path: str | Path, fmt: str = "tsv") -> Path:
    """Write a mapping to a file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_mapping(mapping, fmt), encoding="utf-8")
    return path
