"""Human-readable summaries of recorded traces.

``repro-tpi report run.jsonl`` lands here: :func:`load_trace` parses the
JSONL event stream back into a :class:`Trace`, and :func:`render_trace`
formats it — run metadata, a per-span-name timing table, the slowest
individual spans as a tree, and the final metrics snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..ioutil import read_jsonl_tolerant

__all__ = ["Trace", "load_trace", "render_trace", "render_metrics"]


@dataclass
class Trace:
    """Parsed contents of one trace file."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    run_dur_ns: Optional[int] = None
    n_lines: int = 0
    n_bad_lines: int = 0


def load_trace(path: Union[str, Path]) -> Trace:
    """Parse a JSONL trace.  Unparseable lines are counted, not fatal.

    Tolerance mirrors the fabric journal reader
    (:func:`repro.ioutil.read_jsonl_tolerant`): a torn final line from a
    killed recorder — or any corrupt middle line — is counted in
    ``n_bad_lines`` and skipped, as is a ``span`` record missing the
    fields every renderer/analyzer needs.  A truncated trace therefore
    always loads; it is simply missing its tail.
    """
    trace = Trace()
    records, good, bad = read_jsonl_tolerant(path)
    trace.n_lines = len(good) + len(bad)
    trace.n_bad_lines = len(bad)
    for record in records:
        kind = record.get("event")
        if kind == "run_start":
            trace.meta = record.get("meta", {})
        elif kind == "span":
            if isinstance(record.get("name"), str) and isinstance(
                record.get("dur_ns"), (int, float)
            ):
                trace.spans.append(record)
            else:  # torn/foreign span record: unusable downstream
                trace.n_bad_lines += 1
        elif kind == "event":
            trace.events.append(record)
        elif kind == "metrics":
            trace.metrics = record.get("metrics", {})
        elif kind == "run_end":
            trace.run_dur_ns = record.get("dur_ns")
    return trace


# ---------------------------------------------------------------------------
def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:10.3f}"


def _fmt_num(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}"


def _span_table(spans: List[Dict[str, Any]]) -> List[str]:
    by_name: Dict[str, List[int]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span.get("dur_ns", 0))
    width = max((len(n) for n in by_name), default=4)
    lines = [
        f"  {'span':<{width}s} {'count':>7s} {'total ms':>10s} "
        f"{'mean ms':>10s} {'max ms':>10s}"
    ]
    for name, durs in sorted(
        by_name.items(), key=lambda kv: -sum(kv[1])
    ):
        total = sum(durs)
        lines.append(
            f"  {name:<{width}s} {len(durs):7d} {_fmt_ms(total)} "
            f"{_fmt_ms(total / len(durs))} {_fmt_ms(max(durs))}"
        )
    return lines


def _span_tree(spans: List[Dict[str, Any]], limit: int = 40) -> List[str]:
    """Chronological tree of the recorded spans (truncated past ``limit``)."""
    ordered = sorted(spans, key=lambda s: s.get("start_ns", 0))
    lines = []
    for span in ordered[:limit]:
        indent = "  " * span.get("depth", 0)
        attrs = span.get("attrs") or {}
        attr_text = (
            " [" + ", ".join(f"{k}={v}" for k, v in attrs.items()) + "]"
            if attrs
            else ""
        )
        lines.append(
            f"  {indent}{span['name']}  "
            f"{span.get('dur_ns', 0) / 1e6:.3f} ms{attr_text}"
        )
    if len(ordered) > limit:
        lines.append(f"  … {len(ordered) - limit} more spans")
    return lines


def render_metrics(metrics: Dict[str, Any]) -> str:
    """Format a metrics snapshot (the ``metrics`` event payload)."""
    lines: List[str] = []
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    if counters:
        lines.append("counters")
        width = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}s} {_fmt_num(value):>14s}")
    if gauges:
        lines.append("gauges")
        width = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}s} {_fmt_num(value):>14s}")
    if histograms:
        lines.append("histograms")
        for name, snap in histograms.items():
            lines.append(
                f"  {name}: n={snap.get('count', 0)} "
                f"mean={snap.get('mean', 0.0):.4g} "
                f"min={snap.get('min')} max={snap.get('max')}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def render_trace(source: Union[str, Path, Trace]) -> str:
    """Render a full human-readable trace summary."""
    trace = source if isinstance(source, Trace) else load_trace(source)
    lines: List[str] = ["Trace summary", "============="]
    if trace.meta:
        lines.append("run metadata")
        width = max(len(str(k)) for k in trace.meta)
        for key, value in trace.meta.items():
            lines.append(f"  {key:<{width}s} {value}")
    if trace.run_dur_ns is not None:
        lines.append(f"run duration   {trace.run_dur_ns / 1e9:.3f} s")
    lines.append(
        f"events         {trace.n_lines} lines, {len(trace.spans)} spans, "
        f"{len(trace.events)} custom events"
        + (f", {trace.n_bad_lines} unparseable" if trace.n_bad_lines else "")
    )
    if trace.spans:
        from .analyze import render_phases  # late: sibling module

        lines.append("")
        lines.append("spans by name (sorted by total time)")
        lines.extend(_span_table(trace.spans))
        lines.append("")
        lines.append(render_phases(trace.spans, trace.run_dur_ns))
        lines.append("")
        lines.append("span tree (chronological)")
        lines.extend(_span_tree(trace.spans))
    if trace.metrics:
        lines.append("")
        lines.append(render_metrics(trace.metrics))
    return "\n".join(lines)
