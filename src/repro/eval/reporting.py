"""Plain-text tables and density plots for benchmark output.

Benchmarks regenerate the paper's tables/figures as aligned text — the
same rows and series the paper reports, printable in CI logs and diffable
across runs.
"""

from __future__ import annotations

import numpy as np

from repro.obs.export import render_table

__all__ = ["render_table", "render_density", "render_series", "format_si"]


#: Density shade ramp, light to dark.
_SHADES = " .:-=+*#%@"


def render_density(grid: np.ndarray, title: str = "") -> str:
    """Render a 2-D density grid as an ASCII heat map (Fig. 7 style)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValueError("density grid must be 2-D")
    peak = grid.max()
    lines = [title] if title else []
    if peak <= 0:
        lines.extend("".join(" " for _ in range(grid.shape[1]))
                     for _ in range(grid.shape[0]))
        return "\n".join(lines)
    levels = np.clip((grid / peak * (len(_SHADES) - 1)).astype(int),
                     0, len(_SHADES) - 1)
    for row in levels:
        lines.append("".join(_SHADES[v] for v in row))
    return "\n".join(lines)


def render_series(values, title: str = "", height: int = 8,
                  y_min: float | None = None,
                  y_max: float | None = None,
                  markers: dict[int, str] | None = None) -> str:
    """Render a numeric series as an ASCII line chart.

    Used for trajectory figures (identity risk over a session).  ``markers``
    maps x-indices to single-character annotations drawn on the top row
    (e.g. the takeover point).
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("need at least one value")
    if height < 2:
        raise ValueError("height must be at least 2")
    lo = float(values.min()) if y_min is None else float(y_min)
    hi = float(values.max()) if y_max is None else float(y_max)
    if hi <= lo:
        hi = lo + 1.0
    levels = np.clip(((values - lo) / (hi - lo) * (height - 1)).round()
                     .astype(int), 0, height - 1)
    rows = []
    for row_level in range(height - 1, -1, -1):
        label = f"{lo + (hi - lo) * row_level / (height - 1):5.2f} |"
        cells = []
        for index, level in enumerate(levels):
            if markers and row_level == height - 1 and index in markers:
                cells.append(markers[index][0])
            elif level == row_level:
                cells.append("*")
            elif level > row_level:
                cells.append(".")
            else:
                cells.append(" ")
        rows.append(label + "".join(cells))
    axis = "      +" + "-" * values.size
    lines = ([title] if title else []) + rows + [axis]
    return "\n".join(lines)


def format_si(value: float, unit: str = "") -> str:
    """Human-scale formatting: 0.00123 -> '1.23m', 12400 -> '12.4k'."""
    if value == 0:
        return f"0{unit}"
    prefixes = [(1e9, "G"), (1e6, "M"), (1e3, "k"), (1.0, ""),
                (1e-3, "m"), (1e-6, "u"), (1e-9, "n")]
    for scale, prefix in prefixes:
        if abs(value) >= scale:
            return f"{value / scale:.3g}{prefix}{unit}"
    return f"{value:.3g}{unit}"
