"""Search DSL + index semantics and the export finishers, over oracle-built
object tables from the synthetic corpus."""

import xml.etree.ElementTree as ET

import pytest

from indu_doc_transformer_ray.core import default_config
from indu_doc_transformer_ray.deltas import oracle_tables
from indu_doc_transformer_ray.emit import process_document
from indu_doc_transformer_ray.exporters import (
    export_aml,
    export_json,
    get_stats,
    get_tree,
    load_sqlite,
    save_sqlite,
    tables_equal,
)
from indu_doc_transformer_ray.fixtures import corpus_table
from indu_doc_transformer_ray.search.index import SearchIndex
from indu_doc_transformer_ray.search.query import (
    Filter,
    check_path_match,
    parse_query,
    partial_match,
)
from indu_doc_transformer_ray.spandoc import Span
from indu_doc_transformer_ray.store import ExtractionStore


# -- parser -----------------------------------------------------------------

def test_parse_tag_only():
    tag, filters = parse_query("=E+A1-x")
    assert tag == "=E+A1-x"
    assert filters == []


def test_parse_filters():
    tag, filters = parse_query("@links.attributes(color)=b")
    assert tag is None
    (f,) = filters
    assert f.path == ["links", "attributes"]
    assert f.param == "color"
    assert f.value == "b"


def test_parse_reference_examples():
    # from the reference's own __main__ test block (lark_parser.py:201-214)
    text = """
    @src.tag==E+A1-x @links.part-number=LLAP
    @page=4
    @guid=
    @tag
    @attribute(Length)=12m
    """
    tag, filters = parse_query(text)
    assert tag is None
    assert len(filters) == 6
    # multi-component dotted names fold the last component into param
    assert filters[0].path == ["src"] and filters[0].param == "tag"
    assert filters[0].value == "=E+A1-x"
    assert filters[3].path == ["guid"] and filters[3].value == ""
    assert filters[4].path == ["tag"] and filters[4].value is None
    assert filters[5].path == ["attribute"] and filters[5].param == "Length"
    assert filters[5].value == "12m"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_query("hello world")


def test_partial_match_and_path_walk():
    assert partial_match("The  Quick Fox", "quick fox")
    doc = {"attributes": {"color": "bk", "tracks": ["TR1", "TR2"]}}
    assert check_path_match(doc, ["attributes"], "color", "b")
    assert not check_path_match(doc, ["attributes"], "color", "xx")
    assert check_path_match(doc, ["attributes", "tracks"], None, "tr1")
    assert not check_path_match(doc, ["missing"], None, None)


# -- index + exports over a real corpus -------------------------------------

@pytest.fixture(scope="module")
def tables():
    tab = corpus_table(30, seed=3)
    store = ExtractionStore(default_config)
    for doc_id, raw in zip(
        tab.column("doc_id").to_pylist(), tab.column("spans").to_pylist()
    ):
        process_document(
            doc_id,
            [Span(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in raw],
            store,
        )
    return oracle_tables(store)


def test_search_targets(tables):
    idx = SearchIndex(tables)
    assert len(idx.targets) == len(tables["xtargets"])
    # every device is found by type filter
    devices = idx.search_targets("@type=device")
    expected = {t["guid"] for t in tables["xtargets"] if t["target_type"] == "device"}
    assert set(devices) == expected
    # tag substring narrows
    some_tag = next(
        t["tag_str"] for t in tables["xtargets"] if t["tag_str"].startswith("=")
    )
    res = idx.search_targets(some_tag[:6])
    assert res  # at least the target itself matches


def test_search_connections(tables):
    idx = SearchIndex(tables)
    assert len(idx.connections) == len(tables["connections"])
    all_conns = idx.search_connections("@guid")
    assert set(all_conns) == set(idx.connections)
    # through-cable tag search via the special 'tag' field
    with_cable = [
        c for c in tables["connections"] if c["through_guid"] is not None
    ]
    if with_cable:
        tgt = {t["guid"]: t for t in tables["xtargets"]}
        cable_tag = tgt[with_cable[0]["through_guid"]]["tag_str"]
        res = idx.search_connections(cable_tag.strip())
        assert with_cable[0]["guid"] in res


def test_guide_trees(tables):
    idx = SearchIndex(tables)
    tree = idx.target_guide_tree()
    assert "tag" in tree and "attributes" in tree and "type" in tree
    ctree = idx.connection_guide_tree()
    assert "links" in ctree and "src_target" in ctree


def test_sqlite_roundtrip(tables, tmp_path):
    from indu_doc_transformer_ray.exporters import with_derived

    path = str(tmp_path / "out.db")
    save_sqlite(tables, path)
    loaded, cfg = load_sqlite(path)
    assert cfg == default_config
    # save derives the ordered xtarget_aspects through table (db.py:224-241)
    assert tables_equal(with_derived(tables), loaded)


def test_xtarget_aspect_sort_order(tables):
    """Per xtarget the through rows enumerate the tag's aspects in config
    priority order with a dense 0-based sort_order (reference db.py:541-543
    reads them back ORDER BY sort_order to rebuild the tag)."""
    from indu_doc_transformer_ray import core as _core
    from indu_doc_transformer_ray.exporters import xtarget_aspect_rows

    rows = xtarget_aspect_rows(tables)
    by_target = {}
    for r in rows:
        by_target.setdefault(r["xtarget_guid"], []).append(r)
    aspect_guids = {a["guid"] for a in tables["aspects"]}
    for t in tables["xtargets"]:
        parts = _core.tag_parts(t["tag_str"], default_config)
        got = sorted(by_target.get(t["guid"], []), key=lambda r: r["sort_order"])
        if not parts:
            assert got == []
            continue
        assert [r["sort_order"] for r in got] == list(range(len(got)))
        expect = [
            _core.aspect_guid(sep, v)
            for sep, values in parts.items()
            for v in (values if values else ("",))
        ]
        assert [r["aspect_guid"] for r in got] == expect
        # every referenced aspect exists in the aspects table
        assert all(g in aspect_guids for g in expect)


def test_stats_and_tree(tables):
    stats = get_stats(tables)
    assert stats["xtargets"] == len(tables["xtargets"])
    tree = get_tree(tables)
    # every target guid appears exactly once in the tree leaves
    seen = []

    def walk(node):
        for k, v in node.items():
            if k == "_targets":
                seen.extend(v)
            else:
                walk(v)

    walk(tree)
    taggable = [
        t["guid"] for t in tables["xtargets"]
        if any(v for v in __import__(
            "indu_doc_transformer_ray.core", fromlist=["tag_parts"]
        ).tag_parts(t["tag_str"], default_config).values())
    ]
    assert sorted(seen) == sorted(taggable)


def test_export_json(tables):
    import json

    out = json.loads(export_json(tables))
    assert out["stats"]["connections"] == len(tables["connections"])


def test_export_aml(tables):
    xml = export_aml(tables)
    root = ET.fromstring(xml)
    hierarchies = root.findall("InstanceHierarchy")
    # ECAD + one per configured aspect
    assert len(hierarchies) == 1 + len(default_config.separators)
    ecad = hierarchies[0]
    assert ecad.get("Name") == "ECAD"
    # every target with a parseable tag appears as a leaf with its GUID
    ids = {el.get("ID") for el in ecad.iter("InternalElement") if el.get("ID")}
    target_ids = {t["guid"] for t in tables["xtargets"]}
    assert ids & target_ids
    # internal links reference declared external interfaces
    links = root.find("InternalLinks")
    assert links is not None and len(links) > 0


def test_document_blob_round_trip(ray_session, tmp_path):
    """Reference parity (db.py:360-376, 421-453): whole documents persist
    as DB blobs and re-extract to the SAME objects as the originals."""
    import ray.data

    from indu_doc_transformer_ray.exporters import (
        load_document_blobs,
        save_document_blobs,
    )
    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.extract import (
        extract_documents,
        merge_deltas,
    )

    tab = corpus_table(12, seed=33)
    db = str(tmp_path / "blobs.sqlite")
    assert save_document_blobs(ray.data.from_arrow(tab), db) == 12

    loaded = load_document_blobs(db)
    got = loaded.to_pandas().sort_values("doc_id").reset_index(drop=True)
    want = tab.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])

    def merged_map(t):
        m = merge_deltas(extract_documents(t)).to_pandas()
        return dict(zip(m["mkey"], m["payload"]))

    assert merged_map(load_document_blobs(db)) == merged_map(
        ray.data.from_arrow(tab)
    )


def test_export_aml_ignores_row_order(tables):
    """The same tables in another row order export byte-identical AML:
    attribute order and the pin chosen per link end depend on the rows
    only (the merge and object_table fix neither order)."""
    import random

    rng = random.Random(8)
    shuffled = {}
    for name, rows in tables.items():
        rows = list(rows)
        rng.shuffle(rows)
        shuffled[name] = rows
    got, want = export_aml(shuffled), export_aml(tables)
    # assert a plain bool: pytest's diff of two multi-MB strings takes
    # minutes
    first_diff = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), None
    )
    same = got == want
    assert same, f"AML differs from character {first_diff}"


def test_export_json_ignores_row_order(tables):
    """The same tables in another row order export byte-identical JSON
    (the rows of ``object_table`` follow task completion order)."""
    import random

    rng = random.Random(9)
    shuffled = {}
    for name, rows in tables.items():
        rows = list(rows)
        rng.shuffle(rows)
        shuffled[name] = rows
    # a plain bool: pytest's diff of two multi-MB strings takes minutes
    same = export_json(shuffled) == export_json(tables)
    assert same, "JSON export follows the input row order"
