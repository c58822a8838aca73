"""Export of the reproduced Table I to Markdown and CSV.

``repro store export`` writes a stored campaign's Table I in
document-friendly formats: these helpers render the same structured rows the
plain-text renderer uses as a GitHub-flavoured Markdown table and as CSV.
"""

from __future__ import annotations

import csv
import io
from typing import List, Sequence

from .tables import TableOne


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured Markdown table."""
    lines = ["| " + " | ".join(str(header) for header in headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def table_one_to_markdown(table: TableOne) -> str:
    """Render Table I as a Markdown table (one row per sample)."""
    headers: List[str] = ["sample"]
    for result in table.results:
        headers.extend(
            [
                f"{result.label} — R (ms)",
                f"{result.label} — In (ms)",
                f"{result.label} — Code (ms)",
                f"{result.label} — Out (ms)",
            ]
        )
    rows = []
    for row in table.rows():
        cells: List[object] = [row["sample"]]
        for result in table.results:
            prefix = f"scheme{result.scheme}"
            cells.extend(
                [
                    row[f"{prefix}_r"],
                    row[f"{prefix}_input"],
                    row[f"{prefix}_code"],
                    row[f"{prefix}_output"],
                ]
            )
        rows.append(cells)
    summary_lines = []
    for summary in table.summary_rows():
        summary_lines.append(
            f"- **{summary['label']}**: {summary['violations']} violation(s) "
            f"({summary['timeouts']} MAX) of {summary['samples']} samples; "
            f"R-testing {'PASS' if summary['passed'] else 'FAIL'}"
        )
    return f"### {table.title}\n\n" + _markdown_table(headers, rows) + "\n\n" + "\n".join(summary_lines)


def table_one_to_csv(table: TableOne) -> str:
    """Render the structured Table I rows as CSV."""
    rows = table.rows()
    buffer = io.StringIO()
    if not rows:
        return ""
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()
