"""The DeepFlow Server (§3.1, right half of Figure 4).

A cluster-level process that stores spans in the database, enriches them
with resource tags (smart-encoding, Design 4), and assembles them into
traces at query time (Algorithm 1).
"""

from repro.server.assembler import TraceAssembler
from repro.server.database import SpanStore
from repro.server.encoding import (
    DirectEncoder,
    EncodingStats,
    LowCardinalityEncoder,
    SmartEncoder,
)
from repro.server.metricsdb import MetricsDatabase
from repro.server.server import DeepFlowServer
from repro.server.tags import TagRegistry

__all__ = [
    "DeepFlowServer",
    "DirectEncoder",
    "EncodingStats",
    "LowCardinalityEncoder",
    "MetricsDatabase",
    "SmartEncoder",
    "SpanStore",
    "TagRegistry",
    "TraceAssembler",
]
