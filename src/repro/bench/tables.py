"""Table I: MaxPool input sizes in CNNs."""

from __future__ import annotations

from ..workloads import CNN_MAXPOOL_LAYERS


def table1_rows() -> list[tuple[str, list[str]]]:
    """Rows of Table I: (CNN name, [input-size cells])."""
    rows = []
    max_inputs = max(len(v) for v in CNN_MAXPOOL_LAYERS.values())
    for cnn, layers in CNN_MAXPOOL_LAYERS.items():
        cells = [f"{l.h},{l.w},{l.c}" for l in layers]
        cells += ["-"] * (max_inputs - len(cells))
        rows.append((cnn, cells))
    return rows


def render_table1() -> str:
    """Text rendering of Table I, matching the paper's layout."""
    rows = table1_rows()
    n_inputs = len(rows[0][1])
    headers = ["CNN"] + [f"Input {i + 1}" for i in range(n_inputs)]
    table = [headers] + [[cnn, *cells] for cnn, cells in rows]
    widths = [
        max(len(r[c]) for r in table) for c in range(len(headers))
    ]
    lines = ["TABLE I: MAXPOOL INPUT SIZES IN CNNS"]
    for i, row in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)

