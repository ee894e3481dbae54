"""Resilience is built into :class:`.client.NonStrictFetcher` itself.

This module stays importable, with its ``decode_frame`` binding, only
because the benchmark harness (``reprobench/tracing.py``) imports it
and patches that name; it goes when the harness is next changed.
"""

from .protocol import decode_frame  # noqa: F401 - patched by reprobench/tracing.py
