"""SQL-oracled extraction digests (functions/extractsql.py): the md5-choice
corpus must drive the REAL pipeline to the exact digests the DuckDB oracle
derives from first principles — the round-5 driver-green gate for the
flagship extraction surface."""

import hashlib

import duckdb
import pytest

from indu_doc_transformer_ray.core import default_config
from indu_doc_transformer_ray.deltas import (
    store_to_deltas,
    store_to_local_tuples,
)
from indu_doc_transformer_ray.emit import process_document
from indu_doc_transformer_ray.functions.extractsql import (
    EXTRACT_MERGE_DIGEST_SQL,
    EXTRACT_SPAN_DIGEST_SQL,
    RS,
    _h40,
    synth_doc_spans,
)
from indu_doc_transformer_ray.spandoc import US, Span
from indu_doc_transformer_ray.store import ExtractionStore

# every d % 36 residue -> all (page-1 variant) x (row-count) combos, plus a
# large id for digit-width coverage, plus docs whose two pin-missing rows
# emit IDENTICAL messages (the error set-dedup path found at sf0.001)
DOCS = list(range(36)) + [987654, 111, 138]


def _single_process() -> tuple[list[tuple], list[tuple]]:
    """(span-digest rows, merge-digest rows) via the sequential store."""
    rows, merged = [], {}
    for d in DOCS:
        spans = [
            Span(k, t, m, i)
            for i, (k, t, m) in enumerate(synth_doc_spans(d))
        ]
        store = ExtractionStore(default_config)
        out = process_document(f"sdoc-{d}", spans, store)
        seq = RS.join(
            f"{s.kind}{US}{s.text}{US}{s.media_ref}{US}{s.offset}"
            for s in out
        )
        pobjs, errs = store_to_local_tuples(store)
        rows.append(
            (
                f"sdoc-{d}",
                sum(1 for s in spans if s.kind == "page_break"),
                len(spans),
                len(errs),
                len(pobjs),
                hashlib.md5(seq.encode()).hexdigest(),
            )
        )
        for mk, pl in store_to_deltas(store):
            old = merged.get(mk)
            if old is None or pl > old:
                merged[mk] = pl
    agg: dict[str, list[int]] = {}
    for mk, pl in merged.items():
        kind = mk.split(US, 1)[0]
        a = agg.setdefault(kind, [0, 0])
        a[0] += 1
        a[1] += _h40(f"{mk}{US}{pl}")
    merge_rows = sorted((k, n, h) for k, (n, h) in agg.items())
    return sorted(rows), merge_rows


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT UNNEST(["
        + ",".join(map(str, DOCS))
        + "]::BIGINT[]) AS doc_id"
    )
    return con


def test_sql_oracle_matches_engine(duck):
    eng_rows, eng_merge = _single_process()
    sql_rows = [tuple(r) for r in duck.execute(EXTRACT_SPAN_DIGEST_SQL).fetchall()]
    assert sql_rows == eng_rows
    sql_merge = [tuple(r) for r in duck.execute(EXTRACT_MERGE_DIGEST_SQL).fetchall()]
    assert sql_merge == eng_merge
    # EVERY merged delta kind the engine can emit is present: phase B
    # (CONNECTION_LIST) added connection/link/link_attr/pin, phase E/F
    # (TOPOLOGY + STRUCTURE) added the routing-collision attribute and
    # the aspect_attr edges
    assert [r[0] for r in sql_merge] == [
        "aspect", "aspect_attr", "attribute", "connection", "link",
        "link_attr", "pin", "xtarget", "xtarget_attr",
    ]


def test_corpus_exercises_every_shape():
    """All 9 tag shapes, all 4 page-1 variants and all 6 connection-row
    shapes occur in the test slice."""
    from indu_doc_transformer_ray.functions.extractsql import _h

    shapes = {
        _h(f"sq:{d}:shape:{r}") % 9 for d in DOCS for r in range(4 + d % 3)
    }
    assert shapes == set(range(9))
    assert {d % 4 for d in DOCS} == {0, 1, 2, 3}
    conn_shapes = {
        _h(f"sq:{d}:ct:{r}") % 6 for d in DOCS for r in range(2 + d % 2)
    }
    assert conn_shapes == set(range(6))


def test_distributed_matches_single_process(ray_session):
    """The Ray actor-pool pipeline + merge equals the sequential digests."""
    import ray.data

    from indu_doc_transformer_ray.functions import extractsql

    def fake_corpus(sf_dir):
        import pyarrow as pa

        from indu_doc_transformer_ray.fixtures import SPAN_STRUCT

        tbl = pa.table(
            {
                "doc_id": pa.array([f"sdoc-{d}" for d in DOCS]),
                "spans": pa.array(
                    [
                        [
                            {
                                "kind": k,
                                "text": t,
                                "media_ref": m,
                                "offset": i,
                            }
                            for i, (k, t, m) in enumerate(synth_doc_spans(d))
                        ]
                        for d in DOCS
                    ],
                    pa.list_(SPAN_STRUCT),
                ),
            }
        )
        return ray.data.from_arrow(tbl).repartition(6)

    extractsql._MEMO.clear()
    orig = extractsql.sql_corpus_dataset
    extractsql.sql_corpus_dataset = fake_corpus
    try:
        got_rows = [
            (
                r["doc_id"], r["n_pages"], r["n_spans_in"], r["n_errors"],
                r["n_page_objects"], r["seq_md5"],
            )
            for r in extractsql.extract_span_digest("<test>").take_all()
        ]
        got_merge = [
            tuple(r)
            for r in extractsql.extract_merge_digest("<test>").itertuples(
                index=False
            )
        ]
    finally:
        extractsql.sql_corpus_dataset = orig
        extractsql._MEMO.clear()
    eng_rows, eng_merge = _single_process()
    assert sorted(got_rows) == eng_rows
    assert got_merge == eng_merge


def test_extract_object_stats_matches_object_tables(ray_session):
    """The bucketed stats fold (round-5 cliff fix) must equal per-table
    row counts of the fully decoded object tables on the same corpus."""
    import __ray_entry__ as entry
    from indu_doc_transformer_ray.pipelines import extract as ex

    sf = "/root/testdata/sf0.001"
    got = entry._extract_object_stats(sf)
    tables = ex.object_tables_to_pylists(ex.extract_corpus_cached(sf))
    want = {
        name: len(rows) for name, rows in tables.items() if len(rows)
    }
    assert dict(zip(got["table_name"], got["n"])) == want


def test_span_digest_of_sliced_spans_matches_unsliced():
    """A sliced ``spans`` ListArray (nonzero offset) digests exactly like
    the same rows cut from the unsliced digest."""
    import pyarrow as pa

    from indu_doc_transformer_ray.fixtures import SPAN_STRUCT
    from indu_doc_transformer_ray.functions.extractsql import _span_seq_md5

    spans = pa.array(
        [
            [
                {"kind": k, "text": t, "media_ref": m, "offset": i}
                for i, (k, t, m) in enumerate(synth_doc_spans(d))
            ]
            for d in DOCS[:8]
        ],
        pa.list_(SPAN_STRUCT),
    )
    part = spans.slice(3, 4)
    assert part.offset == 3
    assert _span_seq_md5(part) == _span_seq_md5(spans)[3:7]


def test_corpus_memos_keep_one_entry(tmp_path, monkeypatch):
    """Both driver corpus memos (``extractsql._MEMO`` and
    ``extract._EXTRACT_MEMO``) keep only the current (key, session) entry:
    sweeping two scale-factor dirs leaves one, and a repeat of the current
    key is a hit."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.functions import _util, extractsql
    from indu_doc_transformer_ray.pipelines import corpus, extract

    class Materializable:
        def __init__(self, tag):
            self.tag = tag

        def materialize(self):
            return self.tag

    builds = []

    def fake_extract(ds):
        builds.append(ds)
        return Materializable(ds)

    monkeypatch.setattr(_util, "session_token", lambda: "session-1")
    monkeypatch.setattr(extract, "extract_documents", fake_extract)
    monkeypatch.setattr(extractsql, "sql_corpus_dataset", lambda sf: ("sql", sf))
    monkeypatch.setattr(corpus, "corpus_dataset", lambda n, seed: ("docs", n))
    sf_dirs = []
    for i, n in enumerate((100, 200)):
        d = tmp_path / f"sf{i}"
        d.mkdir()
        pq.write_table(pa.table({"doc_id": list(range(n))}),
                       str(d / "documents.parquet"))
        sf_dirs.append(str(d))
    monkeypatch.setattr(extractsql, "_MEMO", {})
    monkeypatch.setattr(extract, "_EXTRACT_MEMO", {})

    for memo, fetch in ((lambda: extractsql._MEMO, extractsql._extracted),
                        (lambda: extract._EXTRACT_MEMO,
                         extract.extract_corpus_cached)):
        builds.clear()
        first = fetch(sf_dirs[0])
        second = fetch(sf_dirs[1])
        assert first != second
        assert len(memo()) == 1
        assert fetch(sf_dirs[1]) is second  # hit: no third build
        assert len(builds) == 2
