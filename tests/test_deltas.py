"""Byte-level contract of the delta encoding and its decoders.

``store_to_deltas`` hand-assembles its JSON payloads with CPython's C string
escaper instead of ``json.dumps`` (hot path: every object of every document).
These tests pin that the fast form is byte-identical to
``canonical_json`` — including adversarial strings (quotes, backslashes,
control chars, non-ASCII, the \\x1f unit separator itself) and None fields —
and that the columnar production decoder (``decode_object_batch``) returns
exactly the rows of the per-row reference (``assemble_rows``), typed as
``TABLE_SCHEMAS`` declares.
"""

from __future__ import annotations

import json

import pyarrow as pa

from indu_doc_transformer_ray.deltas import (
    KIND_TO_TABLE,
    TABLE_SCHEMAS,
    assemble_rows,
    local_combine,
    store_to_deltas,
)
from indu_doc_transformer_ray.pipelines.extract import decode_object_batch
from indu_doc_transformer_ray.spandoc import US
from indu_doc_transformer_ray.store import (
    AspectRec,
    AttrRec,
    ConnRec,
    ExtractionStore,
    LinkRec,
    PageCtx,
    PinRec,
    TargetRec,
    canonical_json,
)
from indu_doc_transformer_ray.core import default_config

NASTY = [
    "plain",
    'quo"te',
    "back\\slash",
    "unié中\U0001f600",
    "ctrl\n\t\x01",
    f"unit{US}sep",
    "",
]


def _reference_payloads(store):
    """The pre-optimization encoding, verbatim (json.dumps, sort_keys)."""
    out = {}
    for a in store.attributes.values():
        out[f"attribute{US}{a.guid}"] = canonical_json(
            {"attr_type": a.attr_type, "name": a.name, "value_json": a.value_json}
        )
    for asp in store.aspects.values():
        out[f"aspect{US}{asp.guid}"] = canonical_json(
            {"separator": asp.separator, "value": asp.value}
        )
    for l in store.links.values():
        out[f"link{US}{l.guid}"] = canonical_json(
            {
                "name": l.name,
                "connection_guid": l.connection_guid,
                "src_pin_name": l.src_pin_name,
                "dst_pin_name": l.dst_pin_name,
            }
        )
    for c in store.connections.values():
        out[f"connection{US}{c.guid}"] = canonical_json(
            {"src_guid": c.src_guid, "dst_guid": c.dst_guid,
             "through_guid": c.through_guid}
        )
    for p in store.pins.values():
        out[f"pin{US}{p.guid}"] = canonical_json(
            {"name": p.name, "role": p.role, "chain": p.chain,
             "link_guid": p.link_guid}
        )
    return out


def test_fast_payloads_match_canonical_json():
    store = ExtractionStore(default_config)
    for i, s in enumerate(NASTY):
        store.attributes[f"ag{i}"] = AttrRec(
            f"ag{i}", "SimpleAttribute", s, json.dumps({"name": s, "value": s})
        )
        store.aspects[f"sg{i}"] = AspectRec(f"sg{i}", "+", s)
        store.links[f"lg{i}"] = LinkRec(f"lg{i}", s, f"cg{i}", s + "1", s + "2")
        store.pins[f"pg{i}"] = PinRec(f"pg{i}", s, "src", [s, s + "x"], f"lg{i}")
    store.connections["cg0"] = ConnRec("cg0", "s", "d", "t")
    store.connections["cg1"] = ConnRec("cg1", None, None, None)
    store.connections["cg2"] = ConnRec("cg2", NASTY[3], None, NASTY[4])

    ref = _reference_payloads(store)
    got = {k: v for k, v in store_to_deltas(store) if not k.endswith(US)}
    for mkey, payload in got.items():
        kind = mkey.split(US)[0]
        if kind in ("xtarget", "xtarget_attr", "aspect_attr", "link_attr"):
            continue
        assert payload == ref[mkey], mkey
    assert set(ref) <= set(got)


def test_payloads_round_trip_through_json():
    store = ExtractionStore(default_config)
    store.pins["p"] = PinRec("p", NASTY[1], "dst", NASTY[:3], "lk")
    store.connections["c"] = ConnRec("c", None, NASTY[2], None)
    for mkey, payload in store_to_deltas(store):
        if payload.startswith("{"):
            json.loads(payload)  # must stay valid JSON


def _decode_against_reference(store) -> dict[str, pa.Table]:
    """Decode the store's merged deltas table by table with the production
    decoder, assert each batch equals the per-row reference and carries the
    declared schema, and return the decoded tables."""
    by_table: dict[str, list[tuple[str, str]]] = {}
    for mkey, payload in sorted(local_combine(store_to_deltas(store)).items()):
        by_table.setdefault(KIND_TO_TABLE[mkey.split(US)[0]], []).append(
            (mkey, payload)
        )
    out = {}
    for name, pairs in by_table.items():
        decoded = decode_object_batch(pa.table({
            "mkey": pa.array([m for m, _ in pairs], pa.string()),
            "payload": pa.array([p for _, p in pairs], pa.string()),
        }))
        ref = [assemble_rows(m, p) for m, p in pairs]
        assert {n for n, _ in ref} == {name}
        assert decoded.schema == TABLE_SCHEMAS[name], name
        assert decoded.to_pylist() == [row for _, row in ref], name
        out[name] = decoded
    return out


def test_decoder_matches_reference_on_nasty_strings():
    store = ExtractionStore(default_config)
    for i, s in enumerate(NASTY):
        store.attributes[f"ag{i}"] = AttrRec(
            f"ag{i}", "SimpleAttribute", s, json.dumps({"name": s, "value": s})
        )
        store.targets[f"tg{i}"] = TargetRec(
            f"tg{i}", s, ("device", "cable", "other")[i % 3], {f"ag{i}"}
        )
        store.aspects[f"sg{i}"] = AspectRec(f"sg{i}", "+", s, {f"ag{i}"})
        store.links[f"lg{i}"] = LinkRec(
            f"lg{i}", s, f"cg{i}", s + "1", s + "2", {f"ag{i}"}
        )
        store.pins[f"pg{i}"] = PinRec(f"pg{i}", s, "src", [s, s + "x"], f"lg{i}")
        store.connections[f"cg{i}"] = ConnRec(f"cg{i}", s, None, s or None)
    assert set(_decode_against_reference(store)) == set(KIND_TO_TABLE.values())


def test_decoder_keeps_date_like_names_as_strings():
    """Pin and link names that look like dates must stay strings: a
    JSON reader that infers types would turn them into timestamps."""
    store = ExtractionStore(default_config)
    page = PageCtx(doc_id="d", page_no=0, footer=None)
    assert store.connection_with_link(
        None, "-X1:2020-01-01", "-X2:2021-02-02", page
    ) is not None
    decoded = _decode_against_reference(store)
    assert {"pins", "links", "connections"} <= set(decoded)
    pins = decoded["pins"].to_pylist()
    assert {p["name"] for p in pins} == {"2020-01-01", "2021-02-02"}


def test_decoder_types_all_null_column():
    """A batch whose through_guid is null in every row still decodes as a
    string column."""
    store = ExtractionStore(default_config)
    store.connections["c0"] = ConnRec("c0", "s", "d", None)
    store.connections["c1"] = ConnRec("c1", None, "d", None)
    assert set(_decode_against_reference(store)) == {"connections"}


def test_delta_order_does_not_follow_the_hash_seed():
    """The per-document ``deltas`` lists are a function of the input only:
    two processes with different string-hash seeds extract the same
    documents into identical lists, compared unsorted."""
    import os
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import json
        from indu_doc_transformer_ray.fixtures import corpus_table
        from indu_doc_transformer_ray.pipelines.extract import DocumentExtractor
        out = DocumentExtractor()(corpus_table(20, seed=5))
        print(json.dumps(out.column("deltas").to_pylist()))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def deltas(seed: str) -> list:
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=root, timeout=300,
            env=dict(os.environ, PYTHONPATH=root, PYTHONHASHSEED=seed),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    first, second = deltas("1"), deltas("2")
    assert any(len(doc) > 1 for doc in first)
    assert first == second
