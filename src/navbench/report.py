"""Aggregate comparison tables rebuilt from trial CSV logs.

One table per scenario group, one row per (scenario, pair), metric x planner
columns; failed trials render as "-".  Tables are always derived from the CSV
files so `bench report` reproduces exactly what `bench run` wrote.
"""

from __future__ import annotations

import os

from .errors import ParseError, ValidationError
from .metrics import (C_UNITS, MetricsConfig, MetricsReport, Outcome, aggregate_reports,
                      compute_report, read_log_csv)


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


class GroupRows(dict):
    """{(scenario, pair): {planner: report}} of one group, whose trials all
    ran in `cost_mode`."""

    def __init__(self, cost_mode: str):
        super().__init__()
        self.cost_mode = cost_mode


def collect_rows(in_dir):
    """Scan trial CSVs and recompute their reports.

    Returns {group: GroupRows} plus the sorted planner list actually present.
    Bad or missing metadata, or mixed cost modes in one group, raise ParseError.
    """
    groups = {}
    planners = set()
    for name in sorted(os.listdir(in_dir)):
        if not name.endswith(".csv") or name.startswith("table_"):
            continue
        path = os.path.join(in_dir, name)
        log, meta = read_log_csv(path)
        group = meta.get("group", "ungrouped")
        scenario = meta.get("scenario", name)
        pair = int(meta.get("pair", 0))
        planner = meta.get("planner", "planner")
        mode = meta.get("cost_mode")
        if mode not in C_UNITS:
            raise ParseError(f"missing or unknown '# cost_mode:' {mode!r}", path=path)
        if "d_safe" not in meta:
            raise ParseError("missing '# d_safe:'", path=path)
        try:
            metrics_cfg = MetricsConfig(d_safe=float(meta["d_safe"]))
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"bad '# d_safe:': {exc}", path=path)
        rows = groups.setdefault(group, GroupRows(mode))
        if mode != rows.cost_mode:
            raise ParseError(f"cost_mode {mode!r} differs from the {rows.cost_mode!r} "
                             f"of group {group!r}", path=path)
        report = compute_report(log, metrics_cfg)
        rows.setdefault((scenario, pair), {})[planner] = report
        planners.add(planner)
    return groups, sorted(planners)


def render_group_table(rows: GroupRows, planners: list) -> tuple[str, str]:
    """(markdown, csv) table for one group's rows."""
    columns = MetricsReport.columns(rows.cost_mode)
    header = ["Scenario", "Pair"]
    for metric in columns:
        for p in planners:
            header.append(f"{metric} {p.upper()}")

    body = []
    per_planner_reports = {p: [] for p in planners}
    for (scenario, pair) in sorted(rows):
        by_planner = rows[(scenario, pair)]
        for p, rep in by_planner.items():
            per_planner_reports[p].append(rep)
        cells = [scenario, str(pair)]
        for metric_idx in range(len(columns)):
            for p in planners:
                rep = by_planner.get(p)
                if rep is None or rep.outcome is not Outcome.SUCCESS:
                    cells.append("-")
                else:
                    cells.append(_fmt6(rep.as_tuple()[metric_idx]))
        body.append(cells)

    mean_cells = ["mean", ""]
    for metric_idx in range(len(columns)):
        for p in planners:
            agg = aggregate_reports(per_planner_reports[p])
            mean_cells.append("-" if agg is None else _fmt6(agg.as_tuple()[metric_idx]))
    body.append(mean_cells)

    md_lines = ["| " + " | ".join(header) + " |",
                "|" + "|".join("---" for _ in header) + "|"]
    md_lines += ["| " + " | ".join(row) + " |" for row in body]
    csv_lines = [",".join(header)] + [",".join(row) for row in body]
    return "\n".join(md_lines) + "\n", "\n".join(csv_lines) + "\n"


def write_group_tables(in_dir, out_dir=None) -> list:
    """Aggregate every trial CSV under in_dir into per-group tables."""
    out_dir = out_dir or in_dir
    groups, planners = collect_rows(in_dir)
    paths = []
    for group, rows in sorted(groups.items()):
        md, csv = render_group_table(rows, planners)
        md_path = os.path.join(out_dir, f"table_{group}.md")
        csv_path = os.path.join(out_dir, f"table_{group}.csv")
        with open(md_path, "w", encoding="utf-8") as f:
            f.write(md)
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(csv)
        paths.extend([md_path, csv_path])
    return paths
