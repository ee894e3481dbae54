"""The striped-fetch constructor the benchmark harness still calls.

Striping is a setting of :class:`.client.NonStrictFetcher`: give it two
or more endpoints and the fetch runs as a pull stripe.
``reprobench/journeys.py`` builds its striped fetcher through
:func:`StripedResilientFetcher`, and ``reprobench/tracing.py`` patches
this module's ``decode_frame`` binding, so both names stay until the
harness is next changed.
"""

from __future__ import annotations

from typing import Any, Sequence

from .client import Endpoint, NonStrictFetcher
from .protocol import decode_frame  # noqa: F401 - patched by reprobench/tracing.py

__all__ = ["StripedResilientFetcher"]


def StripedResilientFetcher(
    endpoints: Sequence[Endpoint], **options: Any
) -> NonStrictFetcher:
    """``NonStrictFetcher(*endpoints[0], links=endpoints[1:], **options)``."""
    (host, port), *links = endpoints
    return NonStrictFetcher(host, port, links=links, **options)
