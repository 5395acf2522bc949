"""Byte-stable export: tables as CSV or JSON, trial summaries as JSON."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

from ..ode import TableRecord
from .trials import TrialSummary

TABLE_HEADER = ("property", "k", "l", "constant", "kind")


def tables_to_csv(records: list[TableRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(TABLE_HEADER)
    for r in records:
        w.writerow([r.property, r.k, "" if r.l is None else r.l, repr(r.constant), r.kind])
    return buf.getvalue()


def tables_to_json(records: list[TableRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2, sort_keys=True) + "\n"


def summary_to_json(summary: TrialSummary, include_trajectories: bool = False) -> str:
    spec = summary.spec
    payload = {
        "spec": asdict(spec),
        "main_rounds_per_n": {
            "mean": summary.main.mean,
            "std": summary.main.std,
            "ci95_half_width": summary.main.ci_half_width,
            "trials": summary.main.count,
        },
        "completion_rounds_per_n": {
            "mean": summary.completion.mean,
            "std": summary.completion.std,
            "ci95_half_width": summary.completion.ci_half_width,
        },
        "phase_means": summary.phase_means,
        "results": [
            {
                "trial": r.trial,
                "threshold_round": r.threshold_round,
                "completion_rounds": r.completion_rounds,
                "hitting_round": r.hitting_round,
                "phase_ends": r.phase_ends,
            }
            for r in summary.results
        ],
    }
    if include_trajectories:
        payload["trajectories"] = [
            {"trial": r.trial, "samples": [list(s) for s in r.samples]}
            for r in summary.results
            if r.samples
        ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_text(path: str, content: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(content)
