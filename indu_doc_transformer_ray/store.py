"""Dict-based extraction store: object identity, dedup and merge semantics.

This is the engine's equivalent of the reference's central store/factory
(reference: src/indu_doc/god.py:186-667), reshaped for a distributed world:

- In the Ray pipeline, ONE store instance lives per document inside the
  emission stage; its contents are flushed to object-delta rows and the
  cross-document merge is a max-per-key fold over GUID buckets
  (SURVEY.md §2.4 G10: the global groupby IS the merge).
- In the single-process oracle, ONE store instance accumulates every
  document sequentially, like the reference's ``sub_god``.

Both paths share exactly these semantics, and the per-kind merge rules are
commutative + associative (attribute-set union, max type priority,
identity-on-GUID first-wins), so the shuffle merge provably equals the
sequential merge.

Merge-rule note: when two payloads collide on the same GUID with different
bytes (possible only via the reference's sorted-tracks GUID for routing
attributes), the canonical winner is the lexicographically LARGEST payload,
applied identically here and in the distributed merge (where it is a single
vectorized ``Max(payload)`` aggregate) — a deterministic refinement of the
reference's nondeterministic first-writer-wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import core
from .core import AspectConfig
from .pagemodel import Severity
from .spandoc import PageFooter

# XTarget type priorities (reference: src/indu_doc/xtarget.py:22-39)
TARGET_TYPES = ("other", "strip", "device", "cable")
TYPE_PRIORITY = {"other": 0, "strip": 1, "device": 2, "cable": 3}


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class AttrRec:
    guid: str
    attr_type: str  # SimpleAttribute / RoutingTracksAttribute / ...
    name: str
    value_json: str  # canonical db-representation payload


@dataclass
class AspectRec:
    guid: str
    separator: str
    value: str
    attr_guids: set[str] = field(default_factory=set)


@dataclass
class TargetRec:
    guid: str
    tag_str: str
    target_type: str
    attr_guids: set[str] = field(default_factory=set)


@dataclass
class ConnRec:
    guid: str
    src_guid: Optional[str]
    dst_guid: Optional[str]
    through_guid: Optional[str]


@dataclass
class LinkRec:
    guid: str
    name: str
    connection_guid: str
    src_pin_name: str
    dst_pin_name: str
    attr_guids: set[str] = field(default_factory=set)


@dataclass
class PinRec:
    guid: str
    name: str
    role: str
    chain: list[str]  # this pin's name followed by its descendants' names
    link_guid: str


@dataclass
class PageCtx:
    """Page identity for mapping/error records: 0-based page number for PDF
    location attributes (page_processor passes ``page.number``), 1-based for
    the page-object edge table (PageMapperEntry, god.py:27-51)."""

    doc_id: str
    page_no: int  # 0-based
    footer: Optional[PageFooter]


class StoreMemo:
    """Cross-document memos shared by every per-document store one
    extractor creates, across batches and jobs of one worker process.
    Every entry is a pure function of its key (and the extractor's fixed
    config), so sharing never changes an output; only the per-doc
    registration side effects stay in each store."""

    #: entries past which a memo is cleared: an adversarial corpus with
    #: unbounded distinct attrs/tags must not grow a worker without limit
    CAP = 1_000_000

    def __init__(self):
        # (name, value) / ("__loc__", page_no, bbox) -> (guid, value_json)
        self.attr: dict[tuple, tuple[str, str]] = {}
        # (raw tag_str, footer tags) -> final merged tag string
        self.merge: dict[tuple, str] = {}
        # footer tags -> parsed footer_tag_parts
        self.footer: dict[tuple, dict] = {}
        # successful aspect parses: aspect_str -> (sep, value, guid)
        self.parse: dict[str, tuple[str, str, str]] = {}
        # final tag string -> parsed parts
        self.parts: dict[str, dict[str, tuple[str, ...]]] = {}
        # final tag string -> xtarget GUID
        self.guid: dict[str, str] = {}

    def bound(self) -> None:
        """Clear every memo that has grown past ``CAP``."""
        for memo in (self.attr, self.merge, self.footer, self.parse,
                     self.parts, self.guid):
            if len(memo) > self.CAP:
                memo.clear()


class ExtractionStore:
    """Create/dedup/merge factory for all extracted object kinds."""

    def __init__(self, config: AspectConfig, memo: Optional[StoreMemo] = None):
        self.config = config
        # cross-document memos (a fresh set unless the owning extractor shares
        # one): fresh per-doc stores would otherwise re-derive the same few
        # hundred entries for every document
        memo = memo if memo is not None else StoreMemo()
        self._attr_memo = memo.attr
        self.pattern = core.compile_separator_pattern(config)
        self.attributes: dict[str, AttrRec] = {}
        self.aspects: dict[str, AspectRec] = {}
        self.targets: dict[str, TargetRec] = {}
        self.connections: dict[str, ConnRec] = {}
        self.links: dict[str, LinkRec] = {}
        self.pins: dict[str, PinRec] = {}
        self.tag_cache: dict[str, dict[str, tuple[str, ...]]] = {}
        # identical raw tags under the same footer recur constantly within a
        # document; the footer merge re-parses several strings per miss
        self._merge_cache = memo.merge
        # each merge-cache MISS would otherwise re-parse every footer tag
        self._footer_cache = memo.footer
        # failures are NOT cached because each failing call must emit its
        # page error (mirroring the reference's re-parse per call,
        # god.py:302-340)
        self._aspect_parse_cache = memo.parse
        # per-DOC registration side effects (aspect records, invalid-tag
        # errors) are still gated by the per-doc ``tag_cache``
        self._parts_memo = memo.parts
        # every xtarget() call on a repeated tag otherwise re-hashes
        self._guid_memo = memo.guid
        # ordered log of page<->object mapping calls; drives both the
        # page_objects edge table and the per-page emitted "object" spans
        self.mapping_log: list[tuple[str, int, str, str]] = []
        # ordered error log: (doc_id, page_no_1based, severity, message)
        self.error_log: list[tuple[str, int, str, str]] = []

    # -- mapping / errors ---------------------------------------------------

    def _map(self, page: PageCtx, kind: str, guid: str) -> None:
        self.mapping_log.append((page.doc_id, page.page_no + 1, kind, guid))

    def error(
        self, page: PageCtx, message: str, severity: Severity = Severity.UNKNOWN_ERROR
    ) -> None:
        """A page error is a first-class page-mapped record (god.py:590-596)."""
        self.error_log.append((page.doc_id, page.page_no + 1, severity.value, message))
        self._map(page, "error", core.error_guid(severity.value, message))

    def add_errors(self, page: PageCtx, errs: list[tuple[Severity, str]]) -> None:
        for sev, msg in errs:
            self.error(page, msg, sev)

    # -- attributes (god.py:237-253) ---------------------------------------

    def _attr(self, guid: str, attr_type: str, name: str, payload: dict) -> AttrRec:
        existing = self.attributes.get(guid)
        if existing is not None and attr_type != "RoutingTracksAttribute":
            # payload is a pure function of the GUID for every type except
            # routing (sorted-tracks GUID) — skip re-serialization
            return existing
        vj = canonical_json(payload)
        if existing is None:
            rec = AttrRec(guid, attr_type, name, vj)
            self.attributes[guid] = rec
            return rec
        if vj > existing.value_json:  # deterministic collision winner (max)
            existing.value_json = vj
        return existing

    def simple_attr(self, name: str, value: str) -> AttrRec:
        hit = self._attr_memo.get((name, value))
        if hit is not None:
            guid, vj = hit
            existing = self.attributes.get(guid)
            if existing is not None:
                return existing
            rec = AttrRec(guid, "SimpleAttribute", name, vj)
            self.attributes[guid] = rec
            return rec
        rec = self._attr(
            core.simple_attr_guid(name, value),
            "SimpleAttribute", name, {"name": name, "value": value},
        )
        self._attr_memo[(name, value)] = (rec.guid, rec.value_json)
        return rec

    def routing_attr(self, name: str, tracks_str: str, sep: str = ";") -> AttrRec:
        tracks = tracks_str.split(sep)
        return self._attr(
            core.routing_attr_guid(name, tracks, sep),
            "RoutingTracksAttribute", name, {"name": name, "tracks": tracks},
        )

    def plc_attr(self, address: str, meta: dict[str, str]) -> AttrRec:
        return self._attr(
            core.plc_attr_guid(address, meta),
            "PLCAddressAttribute", address, {"name": address, "meta": meta},
        )

    def location_attr(
        self, page_no: int, bbox: tuple[float, float, float, float]
    ) -> AttrRec:
        # same cross-document memo shape as simple_attr: the (page_no,
        # bbox) domain recurs constantly (row labels x page numbers), and
        # both the GUID md5 and the canonical-JSON payload are pure
        # functions of the key.  The "__loc__" sentinel keys cannot
        # collide with simple_attr's (name, value) string pairs.
        mkey = ("__loc__", page_no, bbox)
        hit = self._attr_memo.get(mkey)
        if hit is not None:
            guid, vj = hit
            existing = self.attributes.get(guid)
            if existing is not None:
                return existing
            rec = AttrRec(guid, "PDFLocationAttribute", "location", vj)
            self.attributes[guid] = rec
            return rec
        rec = self._attr(
            core.pdf_location_guid("location", page_no, bbox),
            "PDFLocationAttribute", "location",
            {"name": "location", "bbox": list(bbox), "page_no": page_no},
        )
        self._attr_memo[mkey] = (rec.guid, rec.value_json)
        return rec

    # -- aspects (god.py:302-340) ------------------------------------------

    def aspect(
        self,
        aspect_str: str,
        page: PageCtx,
        attrs: tuple[AttrRec, ...] = (),
    ) -> Optional[AspectRec]:
        cached = self._aspect_parse_cache.get(aspect_str)
        if cached is not None:
            sep, value, guid = cached
        else:
            parts = core.try_parse_tag(aspect_str, self.config, self.pattern)
            if not parts:
                msg = f"Failed to create aspect with tag: '{aspect_str}'"
                self.error(page, msg, Severity.WARNING)
                return None
            sep, vals = next(iter(parts.items()))
            if len(parts) != 1 or len(vals) != 1:
                msg = (
                    f"Failed to create aspect with tag: '{aspect_str}'"
                    " - has composite structure"
                )
                self.error(page, msg, Severity.WARNING)
                return None
            value = vals[0]
            guid = core.aspect_guid(sep, value)
            self._aspect_parse_cache[aspect_str] = (sep, value, guid)
        rec = self.aspects.get(guid)
        if rec is None:
            rec = AspectRec(guid, sep, value)
            self.aspects[guid] = rec
        if attrs:
            rec.attr_guids.update(a.guid for a in attrs)
        return rec

    # -- tags (god.py:255-299) ---------------------------------------------

    def tag(self, tag_str: str, page: PageCtx) -> tuple[str, dict[str, tuple[str, ...]]]:
        """Footer-merge + parse + aspect side-effects; cached per final tag
        string.  Returns ``(final_tag_str, parts)``."""
        if page.footer:
            ftags = tuple(page.footer.tags)
            mkey = (tag_str, ftags)
            final = self._merge_cache.get(mkey)
            if final is None:
                foot = self._footer_cache.get(ftags)
                if foot is None:
                    foot = core.footer_tag_parts(
                        ftags, self.config, self.pattern
                    )
                    self._footer_cache[ftags] = foot
                final = core.merge_tag_with_footer(
                    tag_str, ftags, self.config, self.pattern, foot=foot,
                    parts_memo=self._parts_memo,
                )
                self._merge_cache[mkey] = final
        else:
            final = core.strip_pin(tag_str)
        if final in self.tag_cache:
            return final, self.tag_cache[final]
        parts = self._parts_memo.get(final)
        if parts is None:
            parts = core.tag_parts(final, self.config, self.pattern)
            self._parts_memo[final] = parts
        for sep, values in parts.items():
            if values:
                for v in values:
                    self.aspect(f"{sep}{v}", page)
            else:
                # empty level -> empty-value aspect (god.py:278-284)
                self.aspect(sep, page)
        if not parts:
            self.error(page, f"Tag is invalid: {final}", Severity.WARNING)
        self.tag_cache[final] = parts
        return final, parts

    # -- xtargets (god.py:343-396) -----------------------------------------

    def xtarget(
        self,
        tag_str: str,
        page: PageCtx,
        target_type: str = "other",
        attrs: tuple[AttrRec, ...] = (),
    ) -> Optional[TargetRec]:
        if core.is_pin_tag(tag_str):
            return None  # rejected silently, no error record (god.py:351-354)
        final, _parts = self.tag(tag_str, page)
        guid = self._guid_memo.get(final)
        if guid is None:
            guid = core.xtarget_guid(final)
            self._guid_memo[final] = guid
        rec = self.targets.get(guid)
        if rec is None:
            rec = TargetRec(guid, final, target_type)
            self.targets[guid] = rec
        elif TYPE_PRIORITY[target_type] > TYPE_PRIORITY[rec.target_type]:
            rec.target_type = target_type
        if attrs:
            rec.attr_guids.update(a.guid for a in attrs)
        self._map(page, "xtarget", guid)
        return rec

    # -- links (god.py:424-468) --------------------------------------------

    def link(
        self,
        name: str,
        page: PageCtx,
        conn_guid: Optional[str],
        src_pin_name: Optional[str],
        dst_pin_name: Optional[str],
        attrs: tuple[AttrRec, ...] = (),
    ) -> Optional[LinkRec]:
        if not (conn_guid and src_pin_name and dst_pin_name):
            return None  # logged-only in the reference, no error record
        guid = core.link_guid(name, src_pin_name, dst_pin_name, conn_guid)
        rec = self.links.get(guid)
        if rec is None:
            rec = LinkRec(guid, name, conn_guid, src_pin_name, dst_pin_name)
            self.links[guid] = rec
        if attrs:
            rec.attr_guids.update(a.guid for a in attrs)
        self._map(page, "link", guid)
        return rec

    # -- pins (god.py:398-422) ---------------------------------------------

    def pin_chain(self, pin_tag: str, role: str, link_guid: str) -> Optional[str]:
        """Register every suffix of the ':'-chain; returns the head pin GUID."""
        chain = core.pin_chain_guids(pin_tag, role, link_guid)
        if not chain:
            return None
        names = [name for _, name in chain]
        for i, (guid, name) in enumerate(chain):
            if guid not in self.pins:
                self.pins[guid] = PinRec(guid, name, role, names[i:], link_guid)
        return chain[0][0]

    # -- connections (god.py:470-565) --------------------------------------

    def connection(
        self,
        cable_tag: Optional[str],
        tag_from: str,
        tag_to: str,
        page: PageCtx,
        attrs: tuple[AttrRec, ...] = (),
        loc: Optional[AttrRec] = None,
    ) -> ConnRec:
        """Creates the through-cable (CABLE) and endpoint (DEVICE) targets as
        side effects; a None cable tag means a virtual cable."""
        through = (
            self.xtarget(cable_tag, page, "cable", attrs) if cable_tag else None
        )
        loc_attrs = (loc,) if loc else ()
        src = self.xtarget(tag_from, page, "device", loc_attrs)
        dst = self.xtarget(tag_to, page, "device", loc_attrs)
        guid = core.connection_guid(
            src.guid if src else None,
            dst.guid if dst else None,
            through.guid if through else None,
        )
        rec = self.connections.get(guid)
        if rec is None:
            rec = ConnRec(
                guid,
                src.guid if src else None,
                dst.guid if dst else None,
                through.guid if through else None,
            )
            self.connections[guid] = rec
        self._map(page, "connection", guid)
        return rec

    def connection_with_link(
        self,
        cable_tag: Optional[str],
        pin_tag_from: str,
        pin_tag_to: str,
        page: PageCtx,
        attrs: tuple[AttrRec, ...] = (),
        loc: Optional[AttrRec] = None,
    ) -> Optional[ConnRec]:
        tag_from, pin_from = core.split_pin_tag(pin_tag_from)
        tag_to, pin_to = core.split_pin_tag(pin_tag_to)
        if not (pin_from and pin_to):
            msg = (
                "Linked connection where one/no pins specified:"
                f" `{pin_from}` `{pin_to}`"
            )
            self.error(page, msg, Severity.WARNING)
            return None
        if not (tag_from and tag_to):
            msg = (
                "Linked connection where one/no targets specified:"
                f" `{tag_from}` `{tag_to}`"
            )
            self.error(page, msg, Severity.WARNING)
            return None
        conn = self.connection(
            cable_tag, tag_from, tag_to, page,
            attrs=(loc,) if loc else (), loc=loc,
        )
        link = self.link(
            cable_tag or "virtual_link", page, conn.guid, pin_from, pin_to, attrs
        )
        if not link:
            return None
        self.pin_chain(pin_from, "src", link.guid)
        self.pin_chain(pin_to, "dst", link.guid)
        return conn
