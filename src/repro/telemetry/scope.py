"""The request scope: which request a stall or a statement belongs to.

One stack of immutable :class:`Frame` values per deployment, owned by
:class:`~repro.telemetry.facade.Telemetry`.  The gateway enters a frame
per request (tenant, workload class), the SQL runner one per statement
(query fingerprint); the collectors only ever *read* the innermost
frame, so the three attributions of a record come from one place.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional


class Frame(NamedTuple):
    """One attribution; an empty string means "not attributed"."""

    tenant: str = ""
    workload_class: str = ""
    query_hash: str = ""

    def override(
        self,
        tenant: Optional[str] = None,
        workload_class: Optional[str] = None,
        query_hash: Optional[str] = None,
    ) -> "Frame":
        """This frame with every non-None argument replacing its field."""
        return Frame(
            self.tenant if tenant is None else tenant,
            self.workload_class if workload_class is None else workload_class,
            self.query_hash if query_hash is None else query_hash,
        )


class RequestScope:
    """The stack of attribution frames; the innermost one is current."""

    def __init__(self) -> None:
        self._frames: List[Frame] = [Frame()]

    @property
    def current(self) -> Frame:
        """The innermost frame (all-empty outside any request)."""
        return self._frames[-1]

    @contextmanager
    def enter(
        self,
        tenant: Optional[str] = None,
        workload_class: Optional[str] = None,
        query_hash: Optional[str] = None,
    ) -> Iterator[Frame]:
        """Enter a frame for the ``with`` body.

        Fields left None inherit from the enclosing frame (a statement
        inside a gateway request keeps the tenant).  The frame is left on
        every exit, a simulated crash included: attribution is control
        flow, not crash-volatile state.
        """
        frame = self.current.override(tenant, workload_class, query_hash)
        self._frames.append(frame)
        try:
            yield frame
        finally:
            self._frames.pop()
