"""End-to-end equality: the distributed Ray pipeline vs the single-process
oracle on the deterministic synthetic corpus.

- per-document span sequences must match 100% on (kind, text, media_ref,
  order) — the BASELINE per-row invariant;
- every merged normalized object table must match exactly (the distributed
  groupby+Max merge vs the oracle's sequential dict merge).
"""

import pytest

import ray.data

from indu_doc_transformer_ray.fixtures import corpus_table
from indu_doc_transformer_ray.oracle import run_oracle
from indu_doc_transformer_ray.pipelines.extract import (
    extract_documents,
    object_tables_to_pylists,
)

N_DOCS = 60
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return corpus_table(N_DOCS, seed=SEED)


@pytest.fixture(scope="module")
def oracle_result(corpus):
    return run_oracle(corpus)


@pytest.fixture(scope="module")
def ray_extracted(ray_session, corpus):
    ds = ray.data.from_arrow(corpus).repartition(8)
    return extract_documents(ds, batch_size=8).materialize()


def test_span_sequences_match(ray_extracted, oracle_result):
    oracle_spans, _ = oracle_result
    got = {}
    for batch in ray_extracted.select_columns(["doc_id", "spans"]).iter_batches(
        batch_format="pyarrow"
    ):
        got.update(zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ))
    assert set(got) == set(oracle_spans)
    mismatched = [d for d in got if got[d] != oracle_spans[d]]
    assert mismatched == [], f"span mismatch in {mismatched[:3]}"


def test_object_tables_match(ray_extracted, oracle_result):
    _, oracle_tabs = oracle_result
    ray_tabs = object_tables_to_pylists(ray_extracted)

    def keyed(rows):
        return sorted(
            (tuple(sorted((k, str(v)) for k, v in r.items())) for r in rows)
        )

    for name, oracle_rows in oracle_tabs.items():
        assert keyed(ray_tabs[name]) == keyed(oracle_rows), f"table {name} differs"
    # sanity: the corpus actually exercises every table
    for name in ("xtargets", "connections", "links", "pins", "aspects",
                 "attributes", "object_attrs", "page_objects", "errors"):
        assert len(oracle_tabs[name]) > 0, f"corpus never produced {name}"


def test_determinism_across_runs(ray_session, corpus):
    """Two independent distributed runs produce byte-identical merged output."""
    ds1 = ray.data.from_arrow(corpus).repartition(4)
    ds2 = ray.data.from_arrow(corpus).repartition(13)
    t1 = object_tables_to_pylists(extract_documents(ds1, batch_size=16))
    t2 = object_tables_to_pylists(extract_documents(ds2, batch_size=3))

    def keyed(rows):
        return sorted(
            (tuple(sorted((k, str(v)) for k, v in r.items())) for r in rows)
        )

    for name in t1:
        assert keyed(t1[name]) == keyed(t2[name]), name


def test_edge_case_documents(ray_session):
    """Degenerate documents: empty span list, no page_break prefix, only
    media spans, unknown kinds — pipeline must not crash and passthrough
    ordering must hold."""
    import pyarrow as pa

    from indu_doc_transformer_ray.fixtures import DOCS_SCHEMA, SPAN_STRUCT

    def doc(doc_id, spans):
        return {
            "doc_id": doc_id,
            "spans": [
                {"kind": k, "text": t, "media_ref": r, "offset": i}
                for i, (k, t, r) in enumerate(spans)
            ],
        }

    rows = [
        doc("empty", []),
        doc("no-break", [("title", "Connection list", ""), ("media", "", "m/x")]),
        doc("media-only", [("page_break", "", ""), ("media", "", "m/a"),
                           ("media", "", "m/b")]),
        doc("unknown-kind", [("page_break", "", ""), ("mystery", "??", "")]),
    ]
    tab = pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)
    ds = ray.data.from_arrow(tab)
    out = {
        r["doc_id"]: r["spans"]
        for r in extract_documents(ds, batch_size=2).take_all()
    }
    assert out["empty"] == []
    assert [s["kind"] for s in out["media-only"]] == [
        "page_break", "media", "media",
    ]
    assert [s["media_ref"] for s in out["media-only"]][1:] == ["m/a", "m/b"]
    assert [s["kind"] for s in out["unknown-kind"]] == ["page_break", "mystery"]
    # no-break: content before any break is page 0; passthrough preserved
    assert [s["kind"] for s in out["no-break"]] == ["title", "media"]


def test_pathological_multi_hundred_page_document(ray_session):
    """Document skew (the north-rule's multi-hundred-page schematic): one
    ~400-page monster among tiny docs must extract with exact span-sequence
    equality vs the oracle — the per-document unit of work absorbs the
    tail via small batches + dynamic block splitting, and a monster doc
    may never perturb its batch-mates."""
    import pyarrow as pa

    from indu_doc_transformer_ray.fixtures import DOCS_SCHEMA, corpus_table

    small = corpus_table(6, seed=31)
    donor = small.to_pylist()
    # build the monster by cycling the small docs' page contents: slice
    # each doc's span list at page_break boundaries and concatenate until
    # ~400 pages, renumbering offsets
    pages = []
    for r in donor:
        cur = []
        for s in r["spans"]:
            if s["kind"] == "page_break" and cur:
                pages.append(cur)
                cur = []
            cur.append(s)
        if cur:
            pages.append(cur)
    monster_spans = []
    i = 0
    while sum(1 for s in monster_spans if s["kind"] == "page_break") < 400:
        for s in pages[i % len(pages)]:
            monster_spans.append(dict(s, offset=len(monster_spans)))
        i += 1
    rows = donor + [{"doc_id": "zz-monster", "spans": monster_spans}]
    tab = pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)

    want, _tables = run_oracle(tab)
    ds = ray.data.from_arrow(tab)
    got = {
        r["doc_id"]: r["spans"]
        for r in extract_documents(ds, batch_size=4).take_all()
    }
    assert got.keys() == want.keys()
    for d in want:
        assert got[d] == want[d], d
    n_breaks = sum(1 for s in got["zz-monster"] if s["kind"] == "page_break")
    assert n_breaks >= 400
