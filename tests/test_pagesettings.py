"""JSON page-settings loader (S4 parity with reference page_settings.py):
round-trip, rect fixup, missing/corrupt files, PAGE_SPECS-as-parsed-default,
and the headline extensibility story — a brand-new page type introduced by a
JSON entry (plus one emitter registration) extracts end to end."""

import json

from indu_doc_transformer_ray import emit
from indu_doc_transformer_ray.pagemodel import PAGE_SPECS, PageType
from indu_doc_transformer_ray.pagesettings import (
    PageSettings,
    PageSetup,
    TableSetup,
    default_page_settings,
    page_specs_from_settings,
    settings_from_page_specs,
)
from indu_doc_transformer_ray.core import default_config
from indu_doc_transformer_ray.spandoc import US, Span, split_pages
from indu_doc_transformer_ray.store import ExtractionStore


def test_default_specs_match_shipped_json():
    """PAGE_SPECS IS the parsed default settings file."""
    specs = page_specs_from_settings(default_page_settings())
    assert specs == PAGE_SPECS
    assert len(specs) == 9


def test_json_round_trip(tmp_path):
    """to_json -> from_json preserves every field, including the list->tuple
    rect/lines fixup (mirrors the reference's JSON round-trip)."""
    f = tmp_path / "settings.json"
    orig = PageSettings(
        f,
        pages_setup={
            PageType.CONNECTION_LIST: PageSetup(
                tables={
                    "main": TableSetup(
                        key_columns={"name": "connection name"},
                        roi=(1.5, 2.5, 3.5, 4.5),
                        overlap_test_roi=(0.0, 0.0, 10.0, 10.0),
                        lines=[((0.0, 1.0), (2.0, 3.0))],
                        columns={"name": (True,), "Color": (True, "=")},
                        expected_num_tables=2,
                        on_many_join=True,
                        row_offset=-1,
                    )
                },
                search_name="Connection list",
            )
        },
    )
    loaded = PageSettings.init_from_file(f)
    assert loaded.pages_setup == orig.pages_setup
    ts = loaded[PageType.CONNECTION_LIST].tables["main"]
    assert isinstance(ts.roi, tuple) and ts.roi == (1.5, 2.5, 3.5, 4.5)
    assert isinstance(ts.overlap_test_roi, tuple)
    assert ts.lines == [((0.0, 1.0), (2.0, 3.0))]
    assert ts.columns["Color"] == (True, "=")
    assert loaded.to_enum()[PageType.CONNECTION_LIST] == "Connection list"
    assert PageType.CONNECTION_LIST in loaded


def test_missing_file_is_empty_and_corrupt_is_empty(tmp_path):
    s = PageSettings(tmp_path / "nope.json")
    assert s.pages_setup == {}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    s2 = PageSettings(bad)
    assert s2.pages_setup == {}


def test_specs_round_trip_through_settings(tmp_path):
    """PAGE_SPECS -> settings -> JSON file -> settings -> specs is the
    identity (the lowering is lossless for the fields the pipeline uses)."""
    f = tmp_path / "exported.json"
    settings = settings_from_page_specs(PAGE_SPECS, f)
    reloaded = PageSettings.init_from_file(f)
    assert page_specs_from_settings(reloaded) == PAGE_SPECS


def test_new_page_type_via_json_extracts_end_to_end(tmp_path):
    """A page type that exists ONLY in a JSON settings file classifies,
    reconstructs its table, and emits through a registered emitter."""
    f = tmp_path / "custom.json"
    f.write_text(json.dumps({
        "VALVE_LIST": {
            "tables": {
                "main": {
                    "columns": {
                        "tag": [True],
                        "Ignored": [False],
                        "Valve size": [True],
                    }
                }
            },
            "search_name": "Valve list",
        }
    }), encoding="utf-8")
    settings = PageSettings.init_from_file(f)
    specs = page_specs_from_settings(settings)
    assert "VALVE_LIST" in specs  # unknown name stays a string key

    seen = []

    def emit_valve_list(df, page, store):
        for row in df.rows:
            tag = str(row["tag"]).strip()
            attrs, _ = emit._collect_attrs(store, page, row, ("tag",))
            store.aspect(tag, page, tuple(attrs))
            seen.append(tag)

    emit.register_page_type(specs["VALVE_LIST"], emit_valve_list)
    try:
        spans = [
            Span("page_break", "", "", 0),
            Span("title", "Valve list", "", 1),
            Span("footer_cell", f"project{US}P1", "", 2),
            Span("footer_cell", f"product{US}M1", "", 3),
            # post-header data rows (the corpus encoding carries no header
            # row; column names come from the spec)
            Span("cell", f"main{US}0{US}0{US}=A1", "", 4),
            Span("cell", f"main{US}0{US}1{US}junk", "", 5),
            Span("cell", f"main{US}0{US}2{US}DN50", "", 6),
        ]
        store = ExtractionStore(default_config)
        page = split_pages(spans)[0]
        emit.process_page("doc-1", page, store)
        assert seen == ["=A1"]
        assert not store.error_log
    finally:
        del emit.PAGE_SPECS["VALVE_LIST"]
        del emit.EMITTERS["VALVE_LIST"]
        del emit._NAME_INDEX["valve list"]


#: retitles CONNECTION_LIST: no corpus page carries the new search name,
#: so every connection-list page stops classifying -> fewer page objects
RENAME_CONNECTION_LIST = json.dumps({
    "CONNECTION_LIST": {
        "tables": {"main": {"columns": {
            "name": [True], "src_pin_tag": [True], "dst_pin_tag": [True],
            "Color": [True], "Cross-section": [True],
        }}},
        "search_name": "Renamed connection list",
    }
})


def test_page_settings_override_through_pipeline(ray_session, tmp_path):
    """--page-settings plumbing: a JSON override (here: CONNECTION_LIST's
    search name) is applied inside the extraction tasks, changing which
    pages classify — the driver's module state never propagates to workers,
    so this exercises the worker-side registration."""
    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.extract import extract_documents

    docs = ray.data.from_arrow(corpus_table(20, seed=11))
    base = extract_documents(docs).to_pandas()

    docs2 = ray.data.from_arrow(corpus_table(20, seed=11))
    changed = extract_documents(
        docs2, page_settings_json=RENAME_CONNECTION_LIST
    ).to_pandas()
    assert changed["n_page_objects"].sum() < base["n_page_objects"].sum()


def test_page_settings_override_ends_with_its_batch():
    """The stage function keeps one warm extractor per process and Ray
    reuses processes across jobs: a batch run without an override after
    one run with it must see the shipped page specs again."""
    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.extract import extract_batch

    batch = corpus_table(20, seed=11)
    records = default_config.to_records()
    try:
        base = extract_batch(batch, records, None, None)
        changed = extract_batch(batch, records, RENAME_CONNECTION_LIST, None)
        after = extract_batch(batch, records, None, None)
    finally:
        emit.use_page_settings(None)
    assert not changed.equals(base)  # the override took effect
    assert after.equals(base)
    assert PAGE_SPECS == page_specs_from_settings(default_page_settings())


def test_page_settings_override_ends_with_its_job(ray_session):
    """The same through Ray: an overridden job, then a plain one on the
    same (reused) worker processes.  Small batches spread both jobs over
    every worker.  The plain job must equal the plain baseline."""
    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.extract import extract_documents

    corpus = corpus_table(20, seed=11)

    def run(psj):
        docs = ray.data.from_arrow(corpus).repartition(10)
        rows = extract_documents(
            docs, batch_size=2, page_settings_json=psj
        ).take_all()
        for r in rows:  # a doc's delta order follows its process's str hash
            r["deltas"].sort(key=lambda d: (d["mkey"], d["payload"]))
        return sorted(rows, key=lambda r: r["doc_id"])

    base = run(None)
    changed = run(RENAME_CONNECTION_LIST)
    after = run(None)
    assert changed != base  # the override took effect
    assert after == base
