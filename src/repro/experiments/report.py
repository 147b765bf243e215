"""Text rendering of experiment results.

Every benchmark prints its figure's rows through these helpers so the
bench output is a readable paper-vs-measured report.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping, Optional

from ..config import results_dir_from_env


def format_per_app(
    title: str,
    per_app: Mapping[str, object],
    value_format: str = "{:.2f}",
    paper: Optional[Mapping] = None,
) -> str:
    """One row per app, plus a paper-expectation footer."""
    lines = [title, "-" * len(title)]
    for app in sorted(per_app):
        value = per_app[app]
        if isinstance(value, Mapping):
            cells = "  ".join(
                f"{k}={value_format.format(v)}" for k, v in sorted(value.items())
                if isinstance(v, (int, float))
            )
            lines.append(f"  {app:16s} {cells}")
        else:
            lines.append(f"  {app:16s} {value_format.format(value)}")
    if paper:
        lines.append(f"  paper: {json.dumps(paper, default=str)}")
    return "\n".join(lines)


def format_series(
    title: str,
    series: Mapping[object, Mapping[str, float]],
    value_format: str = "{:.2f}",
    paper: Optional[Mapping] = None,
) -> str:
    """One row per sweep point."""
    lines = [title, "-" * len(title)]
    for point in sorted(series):
        row = series[point]
        cells = "  ".join(
            f"{k}={value_format.format(v)}" for k, v in sorted(row.items())
        )
        lines.append(f"  {str(point):>8s}: {cells}")
    if paper:
        lines.append(f"  paper: {json.dumps(paper, default=str)}")
    return "\n".join(lines)


def save_result(experiment_id: str, result: Dict, directory: str = "") -> str:
    """Persist a figure's result dict as JSON for EXPERIMENTS.md collation.

    The directory defaults to ``$REPRO_RESULTS_DIR`` or
    ``benchmarks/results`` relative to the working directory.
    """
    directory = directory or results_dir_from_env()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{experiment_id}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, default=str, sort_keys=True)
    return path
