"""The benchmark's correctness checks pass on a real output and fail on a
deliberately corrupted copy of it.

    python3 -m pytest perfbench/tests -q

The output is made in-process, without Ray: ``DocumentExtractor`` over a
small fixture corpus writes the checkpoint, and a max-per-key fold of its
deltas writes ``objects/`` and the merge manifest, in run_merge's layout.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, corpus  # noqa: E402


@pytest.fixture(scope="module")
def job(tmp_path_factory):
    from indu_doc_transformer_ray.pipelines import extract as ex

    out = str(tmp_path_factory.mktemp("job"))
    table = corpus.fixture_corpus(16, seed=5)
    extracted = ex.DocumentExtractor()(table)
    shard = os.path.join(out, "extracted", "shard=00000")
    os.makedirs(shard)
    pq.write_table(extracted, os.path.join(shard, "part-0.parquet"))
    objects = ex._tag_table_name(ex._explode_deltas(extracted))
    os.makedirs(os.path.join(out, "objects"))
    pq.write_table(objects, os.path.join(out, "objects", "bucket=00.parquet"))
    os.makedirs(os.path.join(out, "manifests"))
    n_local = sum(
        pc.sum(pc.list_value_length(extracted.column(c))).as_py()
        for c in ("page_objects", "errors")
    )
    with open(os.path.join(out, "manifests", "merge.json"), "w") as f:
        json.dump({"complete": True, "n_objects": objects.num_rows + n_local}, f)
    return table, out


def _copy(out: str, tmp_path) -> str:
    dest = str(tmp_path / "copy")
    shutil.copytree(out, dest)
    return dest


def _tables(out: str) -> dict[str, list[dict]]:
    from indu_doc_transformer_ray.pipelines.extract import decode_object_batch

    objects = pq.read_table(os.path.join(out, "objects"))
    ckpt = checks.read_checkpoint(out, ["page_objects", "errors"])
    tables = {}
    for name in checks.TABLES:
        if name in ("page_objects", "errors"):
            tables[name] = pc.list_flatten(ckpt.column(name)).to_pylist()
        else:
            rows = objects.filter(pc.equal(objects.column("table_name"), name))
            tables[name] = decode_object_batch(
                rows.select(["mkey", "payload"])).to_pylist()
    return tables


def test_clean_output_passes(job, tmp_path):
    from indu_doc_transformer_ray import exporters
    from indu_doc_transformer_ray.search.index import SearchIndex

    table, out = job
    assert checks.check_spans(table, out) == 16
    counts = checks.check_merge(out)
    assert counts["xtargets"] > 0 and counts["errors"] > 0
    tables = _tables(out)
    path = str(tmp_path / "export.sqlite")
    exporters.save_sqlite(tables, path)
    checks.check_sqlite(path, counts)
    checks.check_json(exporters.export_json(tables), counts)
    queries = ["=F01", "-D1", "+L3"]
    index = SearchIndex(tables)
    hits = {q: index.search_targets(q) for q in queries}
    expected = checks.expected_hits(out, queries)
    assert all(expected.values())
    checks.check_search(hits, expected)


def test_dropped_span_fails(job, tmp_path):
    table, out = job
    bad = _copy(out, tmp_path)
    path = os.path.join(bad, "extracted", "shard=00000", "part-0.parquet")
    t = pq.read_table(path)
    rows = t.to_pylist()
    # drop the first cell span and renumber, so only the dropped span differs
    spans = next(r["spans"] for r in rows if any(s["kind"] == "cell" for s in r["spans"]))
    del spans[next(k for k, s in enumerate(spans) if s["kind"] == "cell")]
    for k, s in enumerate(spans):
        s["offset"] = k
    pq.write_table(pa.Table.from_pylist(rows, schema=t.schema), path)
    with pytest.raises(checks.CheckError, match="input spans dropped"):
        checks.check_spans(table, bad)


def test_generated_span_inside_page_fails(job, tmp_path):
    table, out = job
    bad = _copy(out, tmp_path)
    path = os.path.join(bad, "extracted", "shard=00000", "part-0.parquet")
    t = pq.read_table(path)
    rows = t.to_pylist()
    # swap the first generated span with the input span before it
    spans = next(r["spans"] for r in rows if any(s["kind"] == "object" for s in r["spans"]))
    k = next(k for k, s in enumerate(spans) if s["kind"] in checks.GENERATED)
    spans[k - 1], spans[k] = spans[k], spans[k - 1]
    for i, s in enumerate(spans):
        s["offset"] = i
    pq.write_table(pa.Table.from_pylist(rows, schema=t.schema), path)
    with pytest.raises(checks.CheckError, match="generated span inside a page"):
        checks.check_spans(table, bad)


def test_changed_payload_fails(job, tmp_path):
    _table, out = job
    bad = _copy(out, tmp_path)
    path = os.path.join(bad, "objects", "bucket=00.parquet")
    t = pq.read_table(path)
    payload = t.column("payload").to_pylist()
    payload[len(payload) // 2] += " "
    t = t.set_column(
        t.schema.get_field_index("payload"), "payload", pa.array(payload))
    pq.write_table(t, path)
    with pytest.raises(checks.CheckError, match="differs from the DuckDB fold"):
        checks.check_merge(bad)


def test_missing_sqlite_row_fails(job, tmp_path):
    from indu_doc_transformer_ray import exporters

    _table, out = job
    counts = checks.check_merge(out)
    path = str(tmp_path / "export.sqlite")
    exporters.save_sqlite(_tables(out), path)
    con = sqlite3.connect(path)
    con.execute("DELETE FROM links WHERE rowid = (SELECT min(rowid) FROM links)")
    con.commit()
    con.close()
    with pytest.raises(checks.CheckError, match="sqlite links"):
        checks.check_sqlite(path, counts)


def test_removed_search_hit_fails(job):
    from indu_doc_transformer_ray.search.index import SearchIndex

    _table, out = job
    index = SearchIndex(_tables(out))
    hits = {"=F01": index.search_targets("=F01")}
    expected = checks.expected_hits(out, ["=F01"])
    checks.check_search(hits, expected)
    hits["=F01"] = hits["=F01"][1:]
    with pytest.raises(checks.CheckError, match="search '=F01'"):
        checks.check_search(hits, expected)
