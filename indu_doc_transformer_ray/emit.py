"""Per-page-type object emission (the reference's E1-E9 semantics).

Each handler walks one reconstructed page table and drives the
ExtractionStore factories, mirroring reference
src/indu_doc/plugins/eplan_pdfs/page_processor.py:107-521 row for row:
non-key, non-underscore columns become SimpleAttributes when non-empty,
``_loc`` becomes a PDFLocation attribute, empty key fields skip the row with
a WARNING error record, ``;``-lists fan out as cartesian products.

These loops are inherently row-wise (the reference's semantics are defined
per row) but operate on per-page RowTables of a few dozen rows inside a
batch of documents — the distributed hot path above them stays
Arrow-vectorized, and the per-page layer is plain dicts (no pandas).
"""

from __future__ import annotations

from itertools import product
from typing import Any, Optional

from .pagemodel import PAGE_SPECS, PageType, Severity, search_name_index
from .spandoc import PageSpans, Span, detect_page_type, extract_footer, split_pages
from .store import AttrRec, ExtractionStore, PageCtx
from .tables import RowTable, extract_page_table


def _cell(row: dict[str, Any], name: str) -> str:
    """The reference's ``str(row[name]).strip()`` conversion — a missing
    value (None) renders as 'None', exactly like upstream's str()."""
    return str(row[name]).strip()


def _collect_attrs(
    store: ExtractionStore,
    page: PageCtx,
    row: dict[str, Any],
    exclude: tuple[str, ...],
) -> tuple[list[AttrRec], Optional[AttrRec]]:
    """Simple attributes from the non-key visible columns + the location
    attribute from ``_loc`` (appended last, as every reference handler does).
    Returns (attributes, loc)."""
    attrs: list[AttrRec] = []
    for name in row:
        if name in exclude or name.startswith("_"):
            continue
        value = _cell(row, name)
        if name != "" and value != "":
            attrs.append(store.simple_attr(name, value))
    loc: Optional[AttrRec] = None
    if "_loc" in row:
        loc = store.location_attr(page.page_no, tuple(row["_loc"]))
        attrs.append(loc)
    return attrs, loc


def emit_connection_list(df: RowTable, page: PageCtx, store: ExtractionStore):
    """CONNECTION_LIST (page_processor.py:107-140): linked connection per row
    in a virtual cable."""
    keys = ("src_pin_tag", "dst_pin_tag", "name")
    for idx, row in zip(df.labels, df.rows):
        tag_from = _cell(row, "src_pin_tag")
        tag_to = _cell(row, "dst_pin_tag")
        if tag_from == "" or tag_to == "":
            store.error(
                page,
                f"row #{idx} skipped: one/both of the connection targets are"
                f" empty (is that intended?): `{tag_from}` `{tag_to}`",
                Severity.WARNING,
            )
            continue
        attrs, loc = _collect_attrs(store, page, row, keys)
        store.connection_with_link(
            None, tag_from, tag_to, page, tuple(attrs), loc
        )


def emit_device_tag_list(df: RowTable, page: PageCtx, store: ExtractionStore):
    """DEVICE_TAG_LIST (page_processor.py:142-176): DEVICE target per row."""
    for idx, row in zip(df.labels, df.rows):
        tag = _cell(row, "tag")
        if tag == "":
            store.error(
                page,
                f"row #{idx} skipped: empty device tag (is that intended?): `{tag}`",
                Severity.WARNING,
            )
            continue
        attrs, _loc = _collect_attrs(store, page, row, ("tag",))
        store.xtarget(tag, page, "device", tuple(attrs))


def emit_cable_overview(df: RowTable, page: PageCtx, store: ExtractionStore):
    """CABLE_OVERVIEW (page_processor.py:178-213): plain connection through a
    named cable; row skipped when the cable tag or both endpoints are empty."""
    keys = ("cable_tag", "src_tag", "dst_tag")
    for idx, row in zip(df.labels, df.rows):
        tag = _cell(row, "cable_tag")
        tag_from = _cell(row, "src_tag")
        tag_to = _cell(row, "dst_tag")
        if tag == "" or (tag_from == "" and tag_to == ""):
            store.error(
                page,
                f"row #{idx} skipped: empty cable tag (is that intended?):"
                f" `{tag}` from=`{tag_from}` to=`{tag_to}`",
                Severity.WARNING,
            )
            continue
        attrs, loc = _collect_attrs(store, page, row, keys)
        if tag_from and tag_to:
            store.connection(tag, tag_from, tag_to, page, tuple(attrs), loc)


def emit_topology(df: RowTable, page: PageCtx, store: ExtractionStore):
    """TOPOLOGY (page_processor.py:254-304): routing-tracks attribute + a
    connection per (src, dst) in the cartesian product of the ';'-lists."""
    keys = ("designation", "src_tags", "dst_tags", "route")
    for idx, row in zip(df.labels, df.rows):
        tag = _cell(row, "designation")
        tags_src = _cell(row, "src_tags")
        tags_dst = _cell(row, "dst_tags")
        tags_route = _cell(row, "route")
        if tag == "" or tags_src == "" or tags_dst == "" or tags_route == "":
            store.error(
                page,
                f"row #{idx} skipped: empty topology tag (is that intended?):"
                f" `{tag}` from=`{tags_src}` to=`{tags_dst}` route=`{tags_route}`",
                Severity.WARNING,
            )
            continue
        attrs, loc = _collect_attrs(store, page, row, keys)
        attrs.append(store.routing_attr("route", tags_route))
        for t1, t2 in product(tags_src.split(";"), tags_dst.split(";")):
            store.connection(tag, t1, t2, page, tuple(attrs), loc)


def emit_wires_part_list(df: RowTable, page: PageCtx, store: ExtractionStore):
    """WIRES_PART_LIST (page_processor.py:306-354): linked connection per row
    (virtual cable) with an optional routing-tracks attribute."""
    keys = ("src_pin_tag", "dst_pin_tag", "route")
    for idx, row in zip(df.labels, df.rows):
        tag_src = _cell(row, "src_pin_tag")
        tag_dst = _cell(row, "dst_pin_tag")
        tags_route = _cell(row, "route")
        if tag_src == "" or tag_dst == "":
            store.error(
                page,
                f"row #{idx} skipped: empty wire connection info (is that"
                f" intended?): from=`{tag_src}` to=`{tag_dst}`",
                Severity.WARNING,
            )
            continue
        attrs, loc = _collect_attrs(store, page, row, keys)
        if tags_route != "":
            attrs.append(store.routing_attr("route", tags_route))
        store.connection_with_link(
            None, tag_src, tag_dst, page, tuple(attrs), loc
        )


def emit_cable_diagram(df: RowTable, page: PageCtx, store: ExtractionStore):
    """CABLE_DIAGRAM (page_processor.py:356-422): zip the ';'-split
    (src_tag, src_pin, cable_tag) triples against the (dst_tag, dst_pin)
    pairs and emit a linked connection per combination with composed
    ``tag:pin`` endpoints."""
    keys = ("cable_tag", "src_tag", "src_pin", "dst_tag", "dst_pin")
    for idx, row in zip(df.labels, df.rows):
        tag = _cell(row, "cable_tag")
        tag_src = _cell(row, "src_tag")
        tag_dst = _cell(row, "dst_tag")
        pin_src = _cell(row, "src_pin")
        pin_dst = _cell(row, "dst_pin")
        if tag_src == "" and tag_dst == "" and pin_src == "" and pin_dst == "":
            store.error(
                page,
                f"row #{idx} skipped: empty cable diagram info (is that"
                f" intended?): `{tag}` from=`{tag_src}``{pin_src}`"
                f" to=`{tag_dst}``{pin_dst}` ",
                Severity.WARNING,
            )
            continue
        attrs, loc = _collect_attrs(store, page, row, keys)
        src_triples = list(zip(tag_src.split(";"), pin_src.split(";"), tag.split(";")))
        dst_pairs = list(zip(tag_dst.split(";"), pin_dst.split(";")))
        for (tag_s, pin_s, tag_), (tag_d, pin_d) in product(src_triples, dst_pairs):
            store.connection_with_link(
                tag_,
                tag_s + ":" + pin_s,
                tag_d + ":" + pin_d,
                page,
                tuple(attrs),
                loc,
            )


def emit_plc_diagram(df: RowTable, page: PageCtx, store: ExtractionStore):
    """PLC_DIAGRAM (page_processor.py:425-467): DEVICE target carrying a
    PLCAddress attribute whose meta is the remaining visible columns."""
    keys = ("tag", "plc_addr")
    for idx, row in zip(df.labels, df.rows):
        tag = _cell(row, "tag")
        plc_addr = _cell(row, "plc_addr")
        if tag == "" or plc_addr == "":
            store.error(
                page,
                f"row #{idx} skipped: empty PLC diagram info (is that"
                f" intended?): `{tag}` addr=`{plc_addr}`",
                Severity.WARNING,
            )
            continue
        meta: dict[str, str] = {}
        for name in row:
            if name in keys or name.startswith("_"):
                continue
            value = _cell(row, name)
            if name and value:
                meta[name] = value
        attrs: list[AttrRec] = [store.plc_attr(plc_addr, meta)]
        if "_loc" in row:
            attrs.append(store.location_attr(page.page_no, tuple(row["_loc"])))
        store.xtarget(tag, page, "device", tuple(attrs))


def emit_structure_identifier_overview(
    df: RowTable, page: PageCtx, store: ExtractionStore
):
    """STRUCTURE_IDENTIFIER_OVERVIEW (page_processor.py:470-500): standalone
    aspect per row (no empty-tag skip; invalid tags produce WARNING errors
    from the aspect factory)."""
    for row in df.rows:
        tag = _cell(row, "tag")
        attrs, _loc = _collect_attrs(store, page, row, ("tag",))
        store.aspect(tag, page, tuple(attrs))


def emit_terminal_diagram(df: RowTable, page: PageCtx, store: ExtractionStore):
    """TERMINAL_DIAGRAM (page_processor.py:503-521): split the assembled
    table into its ``_1`` (cable->strip) and ``_2`` (strip->cable) halves and
    run each through the cable-diagram emitter."""
    l_cols = [c for c in df.columns if c.startswith("_1")]
    r_cols = [c for c in df.columns if c.startswith("_2")]
    base = [c for c in df.columns if not (c.startswith("_1") or c.startswith("_2"))]

    def strip_prefix(c: str) -> str:
        return c.removeprefix("_1").removeprefix("_2")

    for half_cols in (l_cols, r_cols):
        cols = half_cols + base
        half = RowTable(
            [strip_prefix(c) for c in cols],
            df.labels,
            [{strip_prefix(c): row[c] for c in cols} for row in df.rows],
        )
        emit_cable_diagram(half, page, store)


EMITTERS = {
    PageType.CONNECTION_LIST: emit_connection_list,
    PageType.DEVICE_TAG_LIST: emit_device_tag_list,
    PageType.CABLE_OVERVIEW: emit_cable_overview,
    PageType.TOPOLOGY: emit_topology,
    PageType.WIRES_PART_LIST: emit_wires_part_list,
    PageType.CABLE_DIAGRAM: emit_cable_diagram,
    PageType.TERMINAL_DIAGRAM: emit_terminal_diagram,
    PageType.STRUCTURE_IDENTIFIER_OVERVIEW: emit_structure_identifier_overview,
    PageType.PLC_DIAGRAM: emit_plc_diagram,
}

_NAME_INDEX = search_name_index()


def register_page_type(spec, emitter) -> None:
    """Register a page type added at runtime — typically one introduced by a
    JSON settings file (``pagesettings.page_specs_from_settings``): wires the
    spec into ``PAGE_SPECS``, the title classifier index, and the emitter
    registry.  ``spec.page_type`` may be a PageType member or a plain string
    (JSON-only page types)."""
    PAGE_SPECS[spec.page_type] = spec
    _NAME_INDEX[spec.search_name.strip().lower()] = spec.page_type
    EMITTERS[spec.page_type] = emitter


#: the shipped page specs, as imported: ``use_page_settings`` starts from
#: them, so an override never outlives the extractor it was set for
_SHIPPED_SPECS = dict(PAGE_SPECS)


def use_page_settings(page_settings_json: Optional[str]) -> None:
    """Make this process's page specs the shipped ones plus the JSON
    override ``page_settings_json`` (None: no override).  Only page types
    with a registered emitter take effect.  The title index is rebuilt
    from the final specs, since an override may rename a search string."""
    PAGE_SPECS.clear()
    PAGE_SPECS.update(_SHIPPED_SPECS)
    if page_settings_json:
        from .pagesettings import PageSettings, page_specs_from_settings

        st = PageSettings.__new__(PageSettings)
        st.filename = "<inline>"
        st.from_json(page_settings_json)
        PAGE_SPECS.update({
            k: spec for k, spec in page_specs_from_settings(st).items()
            if k in EMITTERS
        })
    _NAME_INDEX.clear()
    _NAME_INDEX.update(search_name_index())


def process_page(doc_id: str, page: PageSpans, store: ExtractionStore) -> None:
    """One page through the full chain (page_processor.py:26-63): classify ->
    footer -> tables -> emit.  Faithful quirk: pages with an unknown type or
    a missing footer are dropped WITHOUT error records (the reference returns
    before persisting its local error list)."""
    ptype = detect_page_type(page, _NAME_INDEX)
    if ptype is None:
        return
    spec = PAGE_SPECS[ptype]
    footer = extract_footer(page)
    if footer is None:
        return
    ctx = PageCtx(doc_id=doc_id, page_no=page.page_no, footer=footer)

    df, errs = extract_page_table(page, spec)
    if df is None or len(df) == 0:
        errs = errs + [(Severity.FAULT, "No tables found")]
        store.add_errors(ctx, errs)
        return
    store.add_errors(ctx, errs)

    # processing error envelope (page_processor.py:92-104)
    try:
        EMITTERS[ptype](df, ctx, store)
    except ValueError as ve:
        store.error(ctx, f"{ve}", Severity.WARNING)
    except Exception as e:  # noqa: BLE001 — mirrors the broad catch upstream
        store.error(ctx, f"{e}", Severity.UNKNOWN_ERROR)


def process_document(
    doc_id: str, spans: list[Span], store: ExtractionStore,
    renumber: bool = True,
) -> list[Span]:
    """Run every page of one document and return the document's output span
    sequence — the per-row equality surface (BASELINE input_hint):

    each page's input spans in offset order, followed by one ``object`` span
    per page<->object mapping call (text ``"<kind>\\x1f<guid>"``) and one
    ``error`` span per error record (text ``"<severity>\\x1f<message>"``), in
    emission order.  Offsets are renumbered to list positions.

    ``renumber=False`` skips the final Span-rebuild pass and returns spans
    whose ``offset`` fields are stale — for callers (the columnar extractor)
    that write positional offsets themselves; the renumbered offset is by
    construction just the list index.
    """
    pages = split_pages(spans)
    out: list[Span] = []
    for page in pages:
        out.extend(page.spans)
        map_mark = len(store.mapping_log)
        err_mark = len(store.error_log)
        process_page(doc_id, page, store)
        errors = store.error_log[err_mark:]
        err_iter = iter(errors)
        for _doc, _pno, kind, guid in store.mapping_log[map_mark:]:
            if kind == "error":
                _d, _p, sev, msg = next(err_iter)
                out.append(Span("error", f"{sev}\x1f{msg}", "", 0))
            else:
                out.append(Span("object", f"{kind}\x1f{guid}", "", 0))
    if renumber:
        for i, sp in enumerate(out):
            out[i] = Span(sp.kind, sp.text, sp.media_ref, i)
    return out
