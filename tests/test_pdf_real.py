"""REAL-PDF smoke test (round-3 verdict #6, un-gated in round 5): exercises
the ``read_pdf_documents`` reader seam end-to-end over handcrafted PDF
bytes.  With the pymupdf wheel the real rawdict binding runs; without it
the vendored ``minipdf_page_dicts`` subset reader drives the SAME page-dict
walk, so the test runs in every container.
"""

from __future__ import annotations

import pytest  # noqa: F401  (parity with the other suites)

from indu_doc_transformer_ray.sources.pdf import have_pymupdf  # noqa: F401

# A4 dims the adapter's paper detection knows (sources/pdf.py PAPER_DIMS)
_W, _H = 595.78, 842.39


def _pdf_bytes(pages: "list[list[tuple[float, float, float, str]]]") -> bytes:
    """Handcraft a minimal PDF 1.4: one Helvetica font, N pages, each page a
    list of (x, y_top, size_pt, text) draws.  y_top is in top-left page
    space (the pymupdf convention the adapter's rects use); converted to
    PDF's bottom-left space here."""
    objs: list[bytes] = []

    def esc(s: str) -> str:
        return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")

    n_pages = len(pages)
    font_num = 3 + 2 * n_pages
    kids = " ".join(f"{3 + 2 * i} 0 R" for i in range(n_pages))
    objs.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objs.append(
        f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode()
    )
    for i, draws in enumerate(pages):
        page_num = 3 + 2 * i
        content_num = page_num + 1
        objs.append(
            (
                f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {_W} {_H}]"
                f" /Contents {content_num} 0 R"
                f" /Resources << /Font << /F1 {font_num} 0 R >> >> >>"
            ).encode()
        )
        parts = []
        for x, y_top, size, text in draws:
            y_pdf = _H - y_top - size  # baseline roughly `size` below y_top
            parts.append(
                f"BT /F1 {size} Tf {x} {y_pdf:.2f} Td ({esc(text)}) Tj ET"
            )
        stream = "\n".join(parts).encode()
        objs.append(
            b"<< /Length %d >>\nstream\n%s\nendstream" % (len(stream), stream)
        )
    objs.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")

    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for n, body in enumerate(objs, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % n + body + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objs) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += (
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (len(objs) + 1, xref_at)
    )
    return bytes(out)


def test_read_pdf_documents_real_binding(ray_session, tmp_path):
    """read_pdf_documents over a handcrafted 2-page A4 PDF: page_break per
    page, the 24-pt span surfaces as the title, and the footer project rect
    (226.64..323.20 x 796.97..808.31, A4 config) is picked up."""
    from indu_doc_transformer_ray.spandoc import US
    from indu_doc_transformer_ray.sources.pdf import read_pdf_documents

    pdf = _pdf_bytes(
        [
            [
                (100.0, 90.0, 24.0, "Cable overview"),
                (230.0, 797.5, 8.0, "PRJ-42"),
            ],
            [
                (100.0, 90.0, 24.0, "Device list"),
            ],
        ]
    )
    path = tmp_path / "doc.pdf"
    path.write_bytes(pdf)

    rows = read_pdf_documents([str(path)]).take_all()
    assert len(rows) == 1
    spans = rows[0]["spans"]
    kinds = [s["kind"] for s in spans]
    assert kinds.count("page_break") == 2
    assert spans[0]["kind"] == "page_break"
    titles = [s["text"] for s in spans if s["kind"] == "title"]
    assert any("Cable overview" in t for t in titles), titles
    assert any("Device list" in t for t in titles), titles
    footer_vals = [
        s["text"].split(US, 1) for s in spans if s["kind"] == "footer_cell"
    ]
    assert any(k == "project" and "PRJ-42" in v for k, v in footer_vals), (
        footer_vals
    )
    # offsets are the contract's running sequence
    assert [s["offset"] for s in spans] == list(range(len(spans)))


def test_pdf_fixture_bytes_wellformed():
    """Ungated structural check of the handcrafted fixture (runs in every
    container): xref offsets must point at their objects and startxref at
    the xref table, so the gated test never fails on a malformed fixture
    where the wheel exists."""
    data = _pdf_bytes([[(100.0, 90.0, 24.0, "T")], [(10.0, 10.0, 8.0, "x")]])
    assert data.startswith(b"%PDF-1.4")
    sx = data.rindex(b"startxref")
    xref_at = int(data[sx:].split()[1])
    assert data[xref_at : xref_at + 4] == b"xref"
    # parse the xref entries and check each object header
    lines = data[xref_at:].split(b"\n")
    n_objs = int(lines[1].split()[1]) - 1
    for i in range(n_objs):
        off = int(lines[3 + i].split()[0])
        assert data[off:].startswith(b"%d 0 obj" % (i + 1)), i + 1
    assert data.rstrip().endswith(b"%%EOF")


def _first_texts(pages: "list[dict]") -> "list[str]":
    return [p["blocks"][0]["lines"][0]["spans"][0]["text"] for p in pages]


def test_minipdf_pages_follow_kids_order():
    """Pages come in the page tree's ``/Kids`` order, not in object-number
    order: here the second-numbered page object is listed first."""
    from indu_doc_transformer_ray.sources.pdf import minipdf_page_dicts

    data = _pdf_bytes(
        [[(100.0, 90.0, 24.0, "first")], [(100.0, 90.0, 24.0, "second")]]
    )
    assert _first_texts(minipdf_page_dicts(data)) == ["first", "second"]
    # same byte length, so the xref offsets stay valid
    swapped = data.replace(b"/Kids [3 0 R 5 0 R]", b"/Kids [5 0 R 3 0 R]")
    assert swapped != data
    assert _first_texts(minipdf_page_dicts(swapped)) == ["second", "first"]
    # the catalog may break its /Pages reference across lines
    split = swapped.replace(b"/Pages 2 0 R", b"/Pages\n2 0 R")
    assert split != swapped
    assert _first_texts(minipdf_page_dicts(split)) == ["second", "first"]


def test_minipdf_missing_kid_raises():
    import pytest

    from indu_doc_transformer_ray.sources.pdf import minipdf_page_dicts

    data = _pdf_bytes(
        [[(100.0, 90.0, 24.0, "first")], [(100.0, 90.0, 24.0, "second")]]
    )
    broken = data.replace(b"/Kids [3 0 R 5 0 R]", b"/Kids [3 0 R 9 0 R]")
    assert broken != data
    with pytest.raises(ValueError, match="minipdf: .*9"):
        minipdf_page_dicts(broken)
