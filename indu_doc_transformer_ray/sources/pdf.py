"""Real-PDF source adapter (OPTIONAL — pymupdf-gated, like the Lance gate
in ``sources/io.py``): turns actual EPLAN-style PDFs into the engine's span
table ``(doc_id, spans: list<struct<kind, text, media_ref, offset>>)``.

The geometry -> span conversion core is BACKEND-AGNOSTIC: it consumes a
"page dict" shaped exactly like pymupdf's ``Page.get_text("rawdict")``
output plus the page rect, so the whole pipeline — paper-size detection
(footers_extractor.py:19-49), footer grid assembly (:52-130), A3-normalized
table clips (table_extractor.py:13-22), rawdict char walks (:37-68) — is
fully tested against hand-built rawdict fixtures in this container, where
the pymupdf wheel is absent.  Only the thin ``_pymupdf_page_dict`` binding
and the ``read_pdf_documents`` reader need the real library.

Geometry contract: the engine's table machinery uses the CANONICAL grid
(row r: y in [r*10, r*10+10); column c: x in [c*100, (c+1)*100) — see
tables.py CELL_WIDTH).  This adapter owns the normalization from real page
coordinates into that grid, so the downstream overlap split/repair pass
(M4/M5) runs unchanged on real PDFs.

Row assumption: one rawdict text line per table row (true for EPLAN list
pages, whose tables are single-line rows); multi-line cells would need the
reference's find_tables row model and are out of scope here.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from typing import Any, Iterator, Optional

import pyarrow as pa

import ray.data
from ray.data import Dataset

from ..fixtures import DOCS_SCHEMA, SPAN_STRUCT
from ..spandoc import US

logger = logging.getLogger(__name__)

# -- reference geometry constants -------------------------------------------

#: A3 reference sheet in pt — ROIs in page settings are expressed in this
#: space and scaled to the actual page (table_extractor.py:13-22).
PAPER_A3 = (1191.05, 842.39)

#: (width, height) in pt per paper size (footers_extractor.py:33-42).
PAPER_DIMS = {
    "A4": (595.78, 842.39),
    "A1_HORIZONTAL": (2384.44, 1684.28),
    "A3_HORIZONTAL": (1191.0, 1683.78),
}

#: Footer layout per paper size (footers_extractor.py:65-89): project /
#: product rects plus the tag-grid origin and cell size.
_FOOTER_CONFIGS = {
    "A4": {
        "project": (226.64, 796.97, 323.20, 808.31),
        "product": None,
        "table_start": lambda w, h: (w - 3 * 102.25, h - 5 * 11.4),
        "cell_size": (102.25, 11.4),
    },
    "A1_HORIZONTAL": {
        "project": (1757.66, 1514.16, 2029.39, 1559.34),
        "product": (1757.06, 1667.31, 1904.72, 1683.53),
        "table_start": lambda w, h: (2029.63, 1616.15),
        "cell_size": (120.0, 34.16),
    },
    "A3_HORIZONTAL": {
        "project": (170.0, 797.0, 397.0, 831.0),
        "product": (702.0, 797.0, 885.0, 831.0),
        "table_start": lambda w, h: (w - 3 * 102.25, h - 4 * 11.4),
        "cell_size": (102.25, 11.4),
    },
}

#: reference extract_spans overlap tolerance (table_extractor.py:37)
CHAR_TOLERANCE = 0.1
CANON_COL_W = 100.0  # canonical column width (tables.py CELL_WIDTH)


def get_paper_size(width: float, height: float, eps: float = 5.0) -> str:
    """Paper size from page dims, either orientation, A3 default
    (footers_extractor.py:19-49)."""
    for name, (w, h) in PAPER_DIMS.items():
        if (abs(width - w) < eps and abs(height - h) < eps) or (
            abs(width - h) < eps and abs(height - w) < eps
        ):
            return name
    return "A3_HORIZONTAL"


def footer_coordinates(width: float, height: float) -> dict[str, Any]:
    """Footer rects for the page's paper size: project / product rects and
    the tag-cell grid rows x cols (footers_extractor.py:52-130)."""
    cfg = _FOOTER_CONFIGS[get_paper_size(width, height)]
    cw, ch = cfg["cell_size"]
    sx, sy = cfg["table_start"](width, height)
    n_rows = round((height - sy) / ch)
    n_cols = round((width - sx) / cw)
    cells = [
        [
            (sx + j * cw, sy + i * ch, sx + (j + 1) * cw, sy + (i + 1) * ch)
            for j in range(n_cols)
        ]
        for i in range(n_rows)
    ]
    return {"project": cfg["project"], "product": cfg["product"], "cells": cells}


def a3_clip(
    roi: tuple[float, float, float, float], width: float, height: float
) -> tuple[float, float, float, float]:
    """Scale an A3-space ROI to the actual page (table_extractor.py:13-22)."""
    fx, fy = width / PAPER_A3[0], height / PAPER_A3[1]
    return (roi[0] * fx, roi[1] * fy, roi[2] * fx, roi[3] * fy)


# -- rawdict walking ----------------------------------------------------------


def _iter_text_spans(
    page_dict: dict,
) -> Iterator[tuple[tuple[float, float, float, float], float, str, list]]:
    """Flatten a rawdict page into (bbox, size, text, chars) — text falls
    back to joining the char list when absent (rawdict carries chars)."""
    for block in page_dict.get("blocks", []):
        for line in block.get("lines", []):
            for span in line.get("spans", []):
                chars = span.get("chars", [])
                text = span.get("text")
                if text is None:
                    text = "".join(c.get("c", "") for c in chars)
                yield tuple(span["bbox"]), float(span.get("size", 0.0)), text, chars


def _center(bbox) -> tuple[float, float]:
    return ((bbox[0] + bbox[2]) / 2.0, (bbox[1] + bbox[3]) / 2.0)


def _in_rect(pt: tuple[float, float], rect) -> bool:
    return rect[0] <= pt[0] < rect[2] and rect[1] <= pt[1] < rect[3]


def _rect_text(spans, rect) -> str:
    """Concatenate the texts of spans whose center falls in ``rect``, in
    reading (y, x) order — the mirror of get_text(clip=...)."""
    hits = [
        (bbox[1], bbox[0], text)
        for bbox, _size, text, _chars in spans
        if _in_rect(_center(bbox), rect)
    ]
    return "".join(t for _y, _x, t in sorted(hits)).strip()


# -- the geometry -> span core ------------------------------------------------


def _column_bounds(setup, clip, fx: float) -> list[float]:
    """Column x-boundaries inside the clip: the setup's VERTICAL separator
    lines when configured (reference find_tables vertical strategy; line
    coords are A3-space like the ROI, scaled by ``fx``), else a uniform
    split by column count."""
    n_cols = max(1, len(setup.columns))
    xs = sorted(
        {
            p0[0] * fx
            for p0, p1 in (setup.lines or [])
            if abs(p0[0] - p1[0]) < 1e-6 and clip[0] < p0[0] * fx < clip[2]
        }
    )
    if len(xs) == n_cols - 1:
        return [clip[0]] + xs + [clip[2]]
    step = (clip[2] - clip[0]) / n_cols
    return [clip[0] + i * step for i in range(n_cols)] + [clip[2]]


def _canon_x(x: float, bounds: list[float], col: int) -> float:
    """Linear map of an x inside column ``col``'s real band onto the
    canonical [col*100, (col+1)*100) band — preserves intra-column order
    and overlaps, so the M4/M5 machinery sees the same collisions the
    reference's extract_spans walk would."""
    b0, b1 = bounds[col], bounds[col + 1]
    frac = 0.0 if b1 <= b0 else (x - b0) / (b1 - b0)
    return (col + frac) * CANON_COL_W


def _table_spans(
    spans: list, setup, key: str, width: float, height: float
) -> list[tuple[str, str]]:
    """One table role -> (kind, text) span payloads: ``cell`` spans from
    per-line char/column assignment, plus a raw ``char_run`` per row whose
    char surface contains an x-overlap (the M4/M5 repair input)."""
    roi = setup.roi or (0, 0, 0, 0)
    if roi[2] <= roi[0] or roi[3] <= roi[1]:
        return []
    clip = a3_clip(roi, width, height)

    if setup.text_only:
        txt = _rect_text(spans, clip)
        return [("text", f"{key}{US}{txt}")] if txt else []

    bounds = _column_bounds(setup, clip, width / PAPER_A3[0])

    # spans in the clip, in rawdict arrival order (sort=True reading order);
    # chars stay in SPAN order — the reference's extract_spans walk
    # (table_extractor.py:44-66) detects overlaps by arrival, not x-sort
    in_clip: list[tuple[float, list[tuple[float, float, str]]]] = []
    for bbox, _size, _text, chars in spans:
        cy = _center(bbox)[1]
        if not (clip[1] <= cy < clip[3]):
            continue
        chs = [
            (c["bbox"][0], c["bbox"][2], c.get("c", ""))
            for c in chars
            if clip[0] <= (c["bbox"][0] + c["bbox"][2]) / 2.0 < clip[2]
        ]
        if chs:
            in_clip.append((cy, chs))

    # cluster span y-centers into rows: real pages jitter a few pt within a
    # line, so a row is a maximal run of centers within ROW_TOL of the
    # previous one (the reference gets rows from the found table's bands)
    ROW_TOL = 5.0
    rows: list[list[tuple[float, float, str]]] = []
    prev_cy = None
    for cy, chs in sorted(in_clip, key=lambda e: e[0]):
        if prev_cy is None or cy - prev_cy > ROW_TOL:
            rows.append([])
        rows[-1].extend(chs)
        prev_cy = cy

    out: list[tuple[str, str]] = []
    n_cols = len(setup.columns)
    for row_idx, chs in enumerate(rows):
        canon: list[tuple[str, float, float]] = []
        cell_texts: dict[int, list[str]] = {}
        overlap = False
        prev = -1.0
        for x0, x1, ch in chs:
            col = min(n_cols - 1, max(0, bisect_right(bounds, (x0 + x1) / 2.0) - 1))
            cx0, cx1 = _canon_x(x0, bounds, col), _canon_x(x1, bounds, col)
            if (cx0 + (cx1 - cx0) * CHAR_TOLERANCE) < prev:
                overlap = True
            prev = cx1
            canon.append((ch, cx0, cx1))
            cell_texts.setdefault(col, []).append(ch)
        for col in range(n_cols):
            val = "".join(cell_texts.get(col, [])).strip()
            out.append(("cell", f"{key}{US}{row_idx}{US}{col}{US}{val}"))
        if overlap:
            spec = ";".join(f"{ord(c)}:{x0:g}:{x1:g}" for c, x0, x1 in canon)
            out.append(("char_run", f"{key}{US}{row_idx}{US}{spec}"))
    return out


def page_to_span_dicts(
    page_dict: dict,
    settings,
    doc_id: str,
    page_no: int,
    offset0: int,
) -> list[dict]:
    """One rawdict-shaped page -> the engine's span dicts, starting with a
    ``page_break``.  ``settings`` is a ``pagesettings.PageSettings`` whose
    search names route the title to a page type and whose TableSetup ROIs
    (A3 space) locate the tables."""
    w = float(page_dict["width"])
    h = float(page_dict["height"])
    spans = list(_iter_text_spans(page_dict))
    out: list[tuple[str, str, str]] = [("page_break", "", "")]

    # title: the 20-30pt span (common_page_utils.py:58-70); first wins
    title: Optional[str] = None
    for _bbox, size, text, _chars in spans:
        if 20.0 < size < 30.0 and text.strip():
            title = text
            break
    if title is not None:
        out.append(("title", title, ""))

    # footer grid (footers_extractor.py:137-212)
    fc = footer_coordinates(w, h)
    project = _rect_text(spans, fc["project"]) if fc["project"] else ""
    if project:
        out.append(("footer_cell", f"project{US}{project}", ""))
    product = _rect_text(spans, fc["product"]) if fc["product"] else ""
    if product:
        out.append(("footer_cell", f"product{US}{product}", ""))
    for i, row in enumerate(fc["cells"]):
        for j, rect in enumerate(row):
            val = _rect_text(spans, rect)
            if val:
                out.append(("footer_cell", f"{i}:{j}{US}{val}", ""))

    # tables of the detected page type (title -> search name, M1 semantics)
    setup = None
    if title is not None:
        want = title.strip().lower()
        for key, search_name in settings.to_enum().items():
            if str(search_name).strip().lower() == want:
                setup = settings[key]
                break
    if setup is not None:
        for role, ts in setup.tables.items():
            for kind, text in _table_spans(spans, ts, role, w, h):
                out.append((kind, text, ""))

    # image blocks -> opaque media refs (plumbing parity with the fixture)
    n_img = 0
    for block in page_dict.get("blocks", []):
        if block.get("type") == 1:
            out.append(
                ("media", "", f"pdf/{doc_id}/p{page_no}/img{n_img}")
            )
            n_img += 1

    return [
        {"kind": k, "text": t, "media_ref": m, "offset": offset0 + i}
        for i, (k, t, m) in enumerate(out)
    ]


# -- vendored mini-PDF reader (round-5 verdict #6) ----------------------------
# A self-contained parser for the NARROW uncompressed PDF subset the test
# fixtures (and simple text-only generators) emit: PDF 1.4, plain-text
# content streams, `BT /F1 <size> Tf <x> <y> Td (<text>) Tj ET` draws, one
# base font.  It exists so the reader seam (PdfToSpans -> page dict ->
# page_to_span_dicts) runs UNCONDITIONALLY — in containers with the
# pymupdf wheel that binding is still preferred (real rawdict geometry).
# Char x-extents use a coarse 3-bin width model (NOT real font metrics):
# the downstream span walk keys on centers and sizes, not exact advances.

_MINI_NARROW = set("iIl1.,:;'|!()[]{} ")
_MINI_WIDE = set("MWmw@%")


def _mini_char_w(ch: str, size: float) -> float:
    if ch in _MINI_NARROW:
        return 0.30 * size
    if ch in _MINI_WIDE:
        return 0.82 * size
    return 0.56 * size


def _mini_unescape(s: str) -> str:
    return (
        s.replace(r"\(", "(").replace(r"\)", ")").replace(r"\\", "\\")
    )


def minipdf_page_dicts(data: bytes) -> list[dict]:
    """Parse uncompressed-subset PDF bytes into the backend-agnostic page
    dicts ``page_to_span_dicts`` consumes (the rawdict shape).  Raises
    ValueError on anything outside the subset (compressed streams, no
    pages) so callers fall back loudly, never silently mis-read."""
    import re as _re

    objs: dict[int, bytes] = {
        int(m.group(1)): m.group(2)
        for m in _re.finditer(
            rb"(\d+) 0 obj\n(.*?)\nendobj", data, _re.DOTALL
        )
    }
    if not objs:
        raise ValueError("minipdf: no objects found")
    if b"/FlateDecode" in data or b"/Filter" in data:
        raise ValueError("minipdf: compressed streams unsupported")

    pages: list[dict] = []
    for num in sorted(objs):
        body = objs[num]
        if b"/Type /Page" not in body or b"/Type /Pages" in body:
            continue
        mb = _re.search(
            rb"/MediaBox \[([\d. ]+)\]", body
        ) or _re.search(rb"/MediaBox\[([\d. ]+)\]", body)
        if not mb:
            raise ValueError("minipdf: page without MediaBox")
        x0, y0, x1, y1 = (float(v) for v in mb.group(1).split())
        w, h = x1 - x0, y1 - y0
        cm = _re.search(rb"/Contents (\d+) 0 R", body)
        blocks: list[dict] = []
        if cm:
            cont = objs.get(int(cm.group(1)), b"")
            sm = _re.search(rb"stream\n(.*?)\nendstream", cont, _re.DOTALL)
            stream = sm.group(1).decode("latin-1") if sm else ""
            # walk BT..ET text objects: Tf size, Td position, Tj draw
            size = 10.0
            tx = ty = 0.0
            for op in _re.finditer(
                r"/\w+ ([\d.]+) Tf|([-\d.]+) ([-\d.]+) Td|\((.*?)(?<!\\)\) Tj",
                stream,
                _re.DOTALL,
            ):
                if op.group(1) is not None:
                    size = float(op.group(1))
                elif op.group(2) is not None:
                    tx, ty = float(op.group(2)), float(op.group(3))
                else:
                    text = _mini_unescape(op.group(4))
                    # PDF y is bottom-left baseline; rawdict bboxes are
                    # top-left space with the glyph box ~size tall
                    y_top = h - ty - size
                    chars, x = [], tx
                    for ch in text:
                        cw = _mini_char_w(ch, size)
                        chars.append(
                            {"c": ch, "bbox": (x, y_top, x + cw, y_top + size)}
                        )
                        x += cw
                    blocks.append(
                        {
                            "type": 0,
                            "lines": [
                                {
                                    "spans": [
                                        {
                                            "bbox": (tx, y_top, x, y_top + size),
                                            "size": size,
                                            "text": text,
                                            "chars": chars,
                                        }
                                    ]
                                }
                            ],
                        }
                    )
        pages.append({"width": w, "height": h, "blocks": blocks})
    if not pages:
        raise ValueError("minipdf: no pages found")
    return pages


# -- pymupdf binding (gated) --------------------------------------------------


def have_pymupdf() -> bool:
    try:
        import pymupdf  # noqa: F401

        return True
    except ImportError:
        try:
            import fitz  # noqa: F401

            return True
        except ImportError:
            return False


def _pymupdf_page_dict(page) -> dict:
    """pymupdf.Page -> the backend-agnostic page dict the core consumes."""
    raw = page.get_text("rawdict", sort=True)
    return {
        "width": page.rect.width,
        "height": page.rect.height,
        "blocks": raw.get("blocks", []),
    }


class PdfToSpans:
    """Actor-pool stage: a batch of PDF paths -> (doc_id, spans) rows.
    Backend import + page-settings parse happen ONCE per actor; pymupdf
    when the wheel exists, the vendored minipdf subset reader otherwise
    (so the seam runs in every container — round-5 verdict #6), logged as
    one warning per actor.  A PDF outside minipdf's subset raises
    ValueError naming the file and pymupdf."""

    def __init__(self, settings_json: Optional[str] = None):
        from ..pagesettings import default_page_settings

        self._pymupdf = None
        if have_pymupdf():
            try:
                import pymupdf
            except ImportError:  # fitz-era wheel
                import fitz as pymupdf
            self._pymupdf = pymupdf
        else:
            logger.warning(
                "pymupdf is not installed: reading PDFs with the vendored "
                "minipdf reader, which handles only uncompressed PDFs and "
                "approximates character widths; install pymupdf for real "
                "geometry"
            )
        if settings_json:
            s = default_page_settings()
            s.from_json(settings_json)
            self._settings = s
        else:
            self._settings = default_page_settings()

    def _page_dicts(self, path: str) -> list[dict]:
        if self._pymupdf is not None:
            doc = self._pymupdf.open(path)
            try:
                return [
                    _pymupdf_page_dict(doc[i]) for i in range(len(doc))
                ]
            finally:
                doc.close()
        with open(path, "rb") as f:
            data = f.read()
        try:
            return minipdf_page_dicts(data)
        except ValueError as e:
            raise ValueError(
                f"{path}: {e} (the vendored minipdf reader handles only "
                f"uncompressed PDFs: install pymupdf to read this file)"
            ) from e

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, span_lists = [], []
        for path in batch.column("path").to_pylist():
            spans: list[dict] = []
            for page_no, pd in enumerate(self._page_dicts(path)):
                spans.extend(
                    page_to_span_dicts(
                        pd, self._settings, path, page_no, len(spans)
                    )
                )
            doc_ids.append(path)
            span_lists.append(spans)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "spans": pa.array(span_lists, pa.list_(SPAN_STRUCT)),
            },
            schema=DOCS_SCHEMA,
        )


def read_pdf_documents(
    paths: list[str],
    settings_json: Optional[str] = None,
    concurrency: int = 4,
) -> Dataset:
    """PDF files -> the documents span table, as an actor-pool map over the
    path list (one parser session per actor; each task opens a few files).
    Prefers the pymupdf wheel (real rawdict geometry); in containers
    without it the vendored ``minipdf_page_dicts`` subset reader drives the
    same page-dict walk, so the seam is exercised everywhere
    (tests/test_pdf_real.py runs un-gated)."""
    return ray.data.from_items([{"path": p} for p in paths]).map_batches(
        PdfToSpans,
        fn_constructor_kwargs={"settings_json": settings_json},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=concurrency,
    )
