"""Single-process golden-output engine.

Runs the exact extraction semantics over a corpus sequentially with ONE
global ExtractionStore — the analogue of the reference's single-process
``sub_god`` accumulation (reference: manager.py:53-90) — and is the golden
reference the distributed Ray pipeline must match 100%:

- per-document output span sequences (the BASELINE equality surface on
  ``(kind, text, media_ref, order)``), and
- the merged relational object tables (FIXTURES.md §6).

No Ray, no parallelism — by construction free of distribution bugs.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from .core import AspectConfig, default_config
from .deltas import oracle_tables
from .emit import process_document
from .spandoc import Span
from .store import ExtractionStore


def run_oracle(
    docs: pa.Table, config: AspectConfig = default_config
) -> tuple[dict[str, list[dict]], dict[str, list[dict[str, Any]]]]:
    """Process every document sequentially.

    Returns ``(spans_out, object_tables)`` where ``spans_out`` maps
    ``doc_id`` to the list of output span dicts and ``object_tables`` is
    ``deltas.oracle_tables`` of the global store.
    """
    store = ExtractionStore(config)
    spans_out: dict[str, list[dict]] = {}
    doc_ids = docs.column("doc_id").to_pylist()
    span_lists = docs.column("spans").to_pylist()
    for doc_id, raw in zip(doc_ids, span_lists):
        spans = [
            Span(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in raw
        ]
        out = process_document(doc_id, spans, store)
        spans_out[doc_id] = [
            {
                "kind": s.kind,
                "text": s.text,
                "media_ref": s.media_ref,
                "offset": s.offset,
            }
            for s in out
        ]
    return spans_out, oracle_tables(store)
