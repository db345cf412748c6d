"""indu_doc_transformer_ray — a Ray-Data-native industrial-document extraction engine.

Brand-new implementation (not a port) with the query / data-processing
capabilities of the reference repo EPDF-Extractor/indu-doc-transformer
(read-only snapshot at /root/reference).  The engine consumes Lance/Parquet
tables of interleaved text + media documents
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
and re-expresses the reference's classification -> footer-merge ->
table-reconstruction -> tag-parse -> object-emission semantics as
``ray.data.Dataset`` pipelines: one ``map_batches`` task stage over
zero-copy Arrow batches, fused with the checkpoint write, and a
shuffle-free object merge whose tasks fold GUID-prefix ranges of sorted
per-shard delta files (the per-document span equality surface never
shuffles).

Layout:
    core        - aspect config, tag parsing, GUID recipes (pure functions)
    pagemodel   - page types, per-page-type table setups, error model
    tables      - per-page table reconstruction + table mechanics
    store       - dict-based extraction store (dedup/merge semantics)
    emit        - per-page-type object emission (E1-E9 semantics)
    oracle      - single-process golden-output engine for tests
    fixtures    - deterministic synthetic span-corpus generator
    pipelines   - Ray Data pipeline composition + checkpoint/resume
    functions   - generic large-scale ops (dedup, similarity, text, relational)
"""

from . import _compat  # noqa: F401  (env shims, must run first)

__version__ = "0.1.0"
