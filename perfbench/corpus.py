"""Seeded benchmark inputs, generated in one process.

- ``fixture_corpus``: documents of ``fixtures.doc_spans`` (13 page kinds,
  dirty paths included) with a fixed page-count design: 2% of the
  documents are the 100-250 page tail, the rest have 1-8 pages.  The
  generator draws the page count per document, so a free draw would move
  the corpus size by tens of percent from seed to seed; instead candidate
  ids are scanned in order and the first whose page count fills an open
  slot of the design is kept.  The seed picks the documents (and so the
  page kinds and their contents) and their order.
- ``digest_doc_ids``: a seeded sample of integer doc ids for the
  md5-choice corpus of ``functions/extractsql.py`` (9 pages per document).

Both are pure functions of their arguments.
"""

from __future__ import annotations

import random

import pyarrow as pa
import pyarrow.parquet as pq

#: share of documents in the 100-250 page tail
TAIL_SHARE = 0.02
#: digest doc ids are drawn from [0, DIGEST_ID_SPACE)
DIGEST_ID_SPACE = 1_000_000


def fixture_page_counts(n_docs: int) -> list[int]:
    """The fixed page-count design of an ``n_docs`` corpus: 2% tail
    documents spread evenly over 100..249 pages, the rest cycling 1..8."""
    n_tail = round(n_docs * TAIL_SHARE)
    tail = [100 + 150 * (2 * k + 1) // (2 * n_tail) for k in range(n_tail)]
    return tail + [1 + i % 8 for i in range(n_docs - n_tail)]


def fixture_corpus(n_docs: int, seed: int) -> pa.Table:
    from indu_doc_transformer_ray.fixtures import DOCS_SCHEMA, _doc_rng, doc_spans

    wanted: dict[int, int] = {}
    for c in fixture_page_counts(n_docs):
        wanted[c] = wanted.get(c, 0) + 1
    ids = []
    j = 0
    while wanted:
        doc_id = f"doc-{j:07d}"
        j += 1
        # doc_spans' first draws: the tail coin, then the page count
        rng = _doc_rng(doc_id, seed)
        pages = rng.randrange(100, 250) if rng.random() < 0.02 else rng.randrange(1, 9)
        if wanted.get(pages):
            wanted[pages] -= 1
            if not wanted[pages]:
                del wanted[pages]
            ids.append(doc_id)
    random.Random(seed).shuffle(ids)
    spans = [doc_spans(d, seed) for d in ids]
    if sorted(sum(x["kind"] == "page_break" for x in s) for s in spans) != sorted(
        fixture_page_counts(n_docs)
    ):
        raise RuntimeError("fixtures.doc_spans no longer draws its page count first")
    return pa.table({"doc_id": ids, "spans": spans}, schema=DOCS_SCHEMA)


def digest_doc_ids(n_docs: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(DIGEST_ID_SPACE), n_docs))


def digest_corpus(doc_ids: list[int]) -> pa.Table:
    from indu_doc_transformer_ray.fixtures import DOCS_SCHEMA
    from indu_doc_transformer_ray.functions.extractsql import synth_doc_spans

    return pa.table(
        {
            "doc_id": [f"sdoc-{d}" for d in doc_ids],
            "spans": [
                [
                    {"kind": k, "text": t, "media_ref": m, "offset": i}
                    for i, (k, t, m) in enumerate(synth_doc_spans(d))
                ]
                for d in doc_ids
            ],
        },
        schema=DOCS_SCHEMA,
    )


def write_single_file(table: pa.Table, directory: str) -> str:
    """One parquet file, so ``run_extraction`` runs exactly one shard."""
    import os

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "corpus.parquet")
    pq.write_table(table, path)
    return path
