"""Trace export: Chrome trace-event files.

The Chrome trace-event format (the JSON Perfetto and ``chrome://tracing``
load) maps naturally onto the simulation: one *process* row per trace
track — the FE/coordinator plus one per DCP compute node — with a node's
task slots as the threads inside it.  Span trees become nested "X"
(complete) events; span events become "i" (instant) marks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from repro.telemetry.spans import FE_TRACK, Span

#: Simulated seconds -> trace microseconds.
_US = 1_000_000.0


def _track_order(spans: Sequence[Span]) -> List[str]:
    """Distinct tracks: FE first, then node tracks by node id."""
    seen = {span.track for span in spans}
    tracks: List[str] = []
    if FE_TRACK in seen:
        tracks.append(FE_TRACK)
        seen.discard(FE_TRACK)

    def sort_key(track: str):
        prefix, __, suffix = track.partition(":")
        return (prefix, int(suffix)) if suffix.isdigit() else (track, 0)

    tracks.extend(sorted(seen, key=sort_key))
    return tracks


def _track_label(track: str) -> str:
    if track == FE_TRACK:
        return "FE / coordinator"
    prefix, __, suffix = track.partition(":")
    if prefix == "node":
        return f"DCP node {suffix}"
    return track


def chrome_trace_events(
    spans: Sequence[Span], pid_base: int = 1, process_prefix: str = ""
) -> Tuple[List[Dict[str, Any]], int]:
    """Trace events for one span set; returns ``(events, next_free_pid)``.

    Each distinct track becomes one process (pid) starting at ``pid_base``,
    named via "process_name" metadata (prefixed by ``process_prefix`` when
    merging several deployments into a single file).
    """
    finished = [span for span in spans if span.finished]
    tracks = _track_order(finished)
    pids = {track: pid_base + index for index, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = []
    for track in tracks:
        label = _track_label(track)
        if process_prefix:
            label = f"{process_prefix} {label}"
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pids[track],
                "tid": 0,
                "args": {"name": label},
            }
        )
    for span in finished:
        pid = pids[span.track]
        args = dict(_jsonable_attrs(span.attributes))
        args["status"] = span.status
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "pid": pid,
                "tid": span.tid,
                "ts": span.start * _US,
                "dur": max(span.duration, 0.0) * _US,
                "args": args,
            }
        )
        for event in span.events:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": event.name,
                    "cat": span.category,
                    "pid": pid,
                    "tid": span.tid,
                    "ts": event.timestamp * _US,
                    "args": _jsonable_attrs(event.attributes),
                }
            )
    return events, pid_base + len(tracks)


def chrome_trace(
    spans: Sequence[Span], process_prefix: str = ""
) -> Dict[str, Any]:
    """A complete Chrome trace document for one deployment's spans."""
    events, __ = chrome_trace_events(spans, 1, process_prefix)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(document: Dict[str, Any], path: str) -> None:
    """Write a trace document as JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _jsonable_attrs(attributes: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
