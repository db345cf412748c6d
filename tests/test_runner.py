"""Checkpoint/resume semantics of the sharded runner."""

import json
import os
import shutil

import pytest

import ray.data

from indu_doc_transformer_ray.fixtures import corpus_table
from indu_doc_transformer_ray.pipelines.runner import (
    object_table,
    run_extraction,
    run_merge,
    spans_output,
)


@pytest.fixture(scope="module")
def corpus_dir(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    ds = ray.data.from_arrow(corpus_table(40, seed=11)).repartition(8)
    ds.write_parquet(d)
    return d


def test_run_and_resume(corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out")
    results = run_extraction(corpus_dir, out_dir, shards=4)
    assert len(results) == 4
    assert all(not r.skipped for r in results)
    assert sum(r.n_docs for r in results) == 40
    merge1 = run_merge(out_dir)
    assert merge1["n_objects"] > 0

    spans1 = {
        r["doc_id"]: r["spans"]
        for r in spans_output(out_dir).take_all()
    }

    # simulate a crash: lose shard 2 (data + manifest) and the merge output
    shutil.rmtree(os.path.join(out_dir, "extracted", "shard=00002"))
    os.remove(os.path.join(out_dir, "manifests", "shard-00002.json"))
    os.remove(os.path.join(out_dir, "manifests", "merge.json"))
    shutil.rmtree(os.path.join(out_dir, "objects"))

    results2 = run_extraction(corpus_dir, out_dir, shards=4)
    skipped = {r.shard: r.skipped for r in results2}
    assert skipped == {0: True, 1: True, 2: False, 3: True}
    merge2 = run_merge(out_dir)
    assert merge2["n_objects"] == merge1["n_objects"]

    spans2 = {
        r["doc_id"]: r["spans"]
        for r in spans_output(out_dir).take_all()
    }
    assert spans1.keys() == spans2.keys()
    for d in spans1:
        assert spans1[d] == spans2[d]


def test_manifest_contents(corpus_dir, tmp_path):
    """A shard manifest's counts, lineage and time: ``extract_s`` (read ->
    extract -> checkpoint write -> stats) and ``bucket_s`` (delta-bucket
    write) within ``wall_s``.  The job leaves the global DataContext as it
    found it."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    reservation = ctx.op_resource_reservation_enabled
    out_dir = str(tmp_path / "out2")
    run_extraction(corpus_dir, out_dir, shards=2)
    assert DataContext.get_current() is ctx
    assert ctx.op_resource_reservation_enabled == reservation
    m = json.load(open(os.path.join(out_dir, "manifests", "shard-00000.json")))
    assert m["complete"] is True
    assert m["n_docs"] > 0 and m["n_pages"] > 0 and m["n_spans_in"] > 0
    assert m["wall_s"] > 0
    assert m["extract_s"] > 0 and m["bucket_s"] > 0
    assert m["extract_s"] + m["bucket_s"] <= m["wall_s"]
    assert all(os.path.exists(f) for f in m["input_files"])  # lineage


def test_object_table_read(corpus_dir, tmp_path):
    out_dir = str(tmp_path / "out3")
    run_extraction(corpus_dir, out_dir, shards=2)
    run_merge(out_dir)
    xt = object_table(out_dir, "xtargets").to_pandas()
    assert set(xt.columns) == {"guid", "tag_str", "target_type"}
    assert len(xt) > 0
    assert xt["guid"].is_unique


def test_run_extraction_progress_events(ray_session, tmp_path):
    """The on_event surface mirrors the reference's plugin event emitter
    (plugins/events.py:32-127): started -> per-shard completion -> completed."""
    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.runner import run_extraction

    src = tmp_path / "corpus"
    ray.data.from_arrow(corpus_table(12, seed=3)).repartition(2).write_parquet(
        str(src)
    )
    events = []
    results = run_extraction(
        str(src), str(tmp_path / "out"), shards=2, on_event=events.append
    )
    kinds = [e["type"] for e in events]
    assert kinds[0] == "processing_started"
    assert kinds[-1] == "processing_completed"
    assert kinds.count("shard_completed") == 2
    assert events[-1]["n_docs"] == sum(r.n_docs for r in results) == 12
    # page-granular progress: the final drained snapshot accounts every doc
    # and page (monotone cumulative counts, pct vs the metadata doc total)
    prog = [e for e in events if e["type"] == "progress"]
    assert prog, "no progress events emitted"
    docs_seq = [p["docs_done"] for p in prog]
    assert docs_seq == sorted(docs_seq)
    assert prog[-1]["docs_done"] == 12
    assert prog[-1]["total_docs"] == 12
    assert prog[-1]["pct"] == 100.0
    assert prog[-1]["pages_done"] == sum(r.n_pages for r in results)


def test_incremental_ingest_invalidates_stale_state(ray_session, tmp_path):
    """Growing the input corpus between runs must recompute affected shards
    AND the merge — a stale manifest may only skip work for the exact file
    list it covered."""
    import ray.data

    from indu_doc_transformer_ray.fixtures import corpus_table
    from indu_doc_transformer_ray.pipelines.runner import (
        run_extraction,
        run_merge,
    )

    src = tmp_path / "corpus"
    ray.data.from_arrow(corpus_table(10, seed=5)).repartition(2).write_parquet(
        str(src)
    )
    out = str(tmp_path / "out")
    r1 = run_extraction(str(src), out, shards=2)
    m1 = run_merge(out)
    assert sum(r.n_docs for r in r1) == 10

    # incremental ingest: 6 new documents arrive as a new file
    extra = corpus_table(16, seed=5).slice(10, 6)
    import pyarrow.parquet as pq

    pq.write_table(extra, str(src / "zz_new.parquet"))

    r2 = run_extraction(str(src), out, shards=2)
    m2 = run_merge(out)
    assert sum(r.n_docs for r in r2) == 16
    assert not all(r.skipped for r in r2)  # changed shards recomputed
    assert m2["n_objects"] > m1["n_objects"]  # merge re-folded, not skipped

    # from-scratch run over the grown corpus gives the identical result
    out2 = str(tmp_path / "out2")
    run_extraction(str(src), out2, shards=2)
    m3 = run_merge(out2)
    assert m3["n_objects"] == m2["n_objects"]


def test_shard_count_invariance(corpus_dir, tmp_path):
    """The WHOLE job is a pure function of the input, not the partitioning:
    different shard counts must yield byte-identical span sequences and the
    identical merged object set (the 256-node-vs-8-node contract)."""
    import pyarrow.dataset as pads

    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_extraction(corpus_dir, out_a, shards=3)
    run_extraction(corpus_dir, out_b, shards=8)
    ma = run_merge(out_a)
    mb = run_merge(out_b)
    assert ma["n_objects"] == mb["n_objects"]

    sa = {r["doc_id"]: r["spans"] for r in spans_output(out_a).take_all()}
    sb = {r["doc_id"]: r["spans"] for r in spans_output(out_b).take_all()}
    assert sa == sb

    def merged_rows(out):
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["table_name", "mkey", "payload"]
        )
        return sorted(zip(*[t.column(c).to_pylist()
                            for c in ("table_name", "mkey", "payload")]))

    assert merged_rows(out_a) == merged_rows(out_b)

    # the per-shard bucket-file merge and the in-memory Dataset merge are
    # two execution shapes of one fold: they must produce the same objects
    from indu_doc_transformer_ray.pipelines.extract import (
        extract_documents,
        merge_deltas,
    )

    in_memory = merge_deltas(
        extract_documents(ray.data.read_parquet(corpus_dir))
    ).take_all()
    assert sorted((m, p) for _t, m, p in merged_rows(out_a)) == sorted(
        (r["mkey"], r["payload"]) for r in in_memory
    )


def _script_line(script: str, prefix: str, timeout: int) -> str:
    """Run ``script`` in a fresh interpreter with the repo on its path and
    return the rest of its first stdout line that starts with ``prefix``.
    The interpreter runs in its own process group, so a hang is killed
    together with its Ray processes after ``timeout`` seconds."""
    import signal
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=root,
        env=dict(os.environ, PYTHONPATH=root), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    line = next((ln for ln in out.splitlines() if ln.startswith(prefix)), "")
    assert line, out + err
    return line.removeprefix(prefix)


def test_run_extraction_runs_on_one_cpu(tmp_path):
    """The extraction stage is a task that holds a CPU only while it runs,
    so a 1-CPU session finishes a two-shard job and its merge, with the
    same merged objects as a 2-CPU session.  Each session runs in its own
    process group, killed after 180 s."""
    import textwrap

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    inp = tmp_path / "in"
    inp.mkdir()
    for i in range(2):
        pq.write_table(corpus_table(6, seed=3 + i), str(inp / f"{i}.parquet"))

    def job(num_cpus: int) -> tuple[str, int]:
        out = str(tmp_path / f"out{num_cpus}")
        script = textwrap.dedent(f"""
            import ray
            from indu_doc_transformer_ray.pipelines.runner import (
                run_extraction, run_merge)
            ray.init(address="local", num_cpus={num_cpus},
                     include_dashboard=False, logging_level="ERROR")
            run_extraction({str(inp)!r}, {out!r}, shards=2)
            print("MERGED", run_merge({out!r})["n_objects"])
            ray.shutdown()
        """)
        return out, int(_script_line(script, "MERGED", 180))

    def objects(out: str) -> list[tuple[str, str]]:
        t = pads.dataset(os.path.join(out, "objects")).to_table(
            columns=["mkey", "payload"]
        )
        return sorted(zip(t["mkey"].to_pylist(), t["payload"].to_pylist()))

    out1, n1 = job(1)
    out2, n2 = job(2)
    assert n1 == n2 > 0
    assert objects(out1) == objects(out2)
    assert len(os.listdir(os.path.join(out1, "manifests"))) == 3


def test_extraction_stage_runs_a_task_per_cpu(tmp_path):
    """A one-file shard's extraction stage runs its tasks side by side in a
    2-CPU session with a 256 MiB object store, not one after the other.
    The stage is the runner's ``shard_stage``, followed by a barrier that
    waits (20 s at most) until a zero-CPU actor has seen a second worker
    process; every batch must get past it.  Runs in its own process group,
    killed after 180 s."""
    import textwrap

    import pyarrow.parquet as pq

    inp = str(tmp_path / "docs.parquet")
    pq.write_table(corpus_table(160, seed=3), inp)
    script = textwrap.dedent(f"""
        import json
        import os
        import time
        import pyarrow as pa
        import ray
        import ray.data
        from indu_doc_transformer_ray.pipelines.runner import shard_stage
        ray.init(address="local", num_cpus=2,
                 object_store_memory=256 * 2**20, include_dashboard=False,
                 logging_level="ERROR")

        @ray.remote(num_cpus=0)
        class Pids:
            def __init__(self):
                self.pids = set()

            def add(self, pid):
                self.pids.add(pid)
                return len(self.pids)

        pids = Pids.options(name="pids").remote()

        def barrier(batch):
            actor = ray.get_actor("pids")
            deadline = time.monotonic() + 20
            seen = ray.get(actor.add.remote(os.getpid()))
            while seen < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                seen = ray.get(actor.add.remote(os.getpid()))
            return pa.table({{"met": [seen >= 2]}})

        stage = shard_stage([{inp!r}])
        met = stage.map_batches(barrier, batch_format="pyarrow").take_all()
        print("MET", json.dumps([r["met"] for r in met]))
        ray.shutdown()
    """)
    met = json.loads(_script_line(script, "MET", 180))
    assert len(met) >= 2 and all(met), met


def test_finished_job_releases_every_cpu(tmp_path):
    """A finished run_extraction holds no CPU: every CPU is free again
    within 3 s, with the driver's automatic garbage collector off, so no
    CPU waits for a collection to be released.  A held CPU would starve the
    next shard and run_merge's fold tasks.  Runs in its own 4-CPU Ray
    session."""
    import textwrap

    import pyarrow.parquet as pq

    inp = str(tmp_path / "docs.parquet")
    pq.write_table(corpus_table(8, seed=3), inp)
    script = textwrap.dedent(f"""
        import gc
        import time
        import ray
        from indu_doc_transformer_ray.pipelines.runner import run_extraction
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
        total = ray.cluster_resources()["CPU"]
        gc.disable()
        run_extraction({inp!r}, {str(tmp_path / "out")!r}, shards=1)
        t0 = time.monotonic()
        while (ray.available_resources().get("CPU", 0) < total
               and time.monotonic() - t0 < 3.0):
            time.sleep(0.05)
        print("FREE", ray.available_resources().get("CPU", 0), total)
        ray.shutdown()
    """)
    free, total = map(float, _script_line(script, "FREE", 240).split())
    assert free == total, f"{total - free} of {total} CPUs still held"


def test_bucket_chars_from_doc_count():
    """16 buckets up to 2,048 documents, 256 up to 32,768: the sf0.1
    headline (20,000 documents) keeps its 256-bucket layout.  The width
    stops at the delta files' key width, ``MAX_BUCKET_CHARS``."""
    from indu_doc_transformer_ray.pipelines.extract import bucket_chars

    assert [bucket_chars(n) for n in (0, 1, 40, 160, 300, 2048)] == [1] * 6
    assert bucket_chars(2049) == 2
    assert bucket_chars(20000) == 2
    assert bucket_chars(32768) == 2
    assert bucket_chars(32769) == 3
    assert bucket_chars(10**9) == 4


def _delta_files(out):
    """delta_buckets/ as {relative path: (size, mtime_ns)}."""
    root = os.path.join(out, "delta_buckets")
    listing = {}
    for d, _dirs, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(d, f))
            listing[os.path.relpath(os.path.join(d, f), root)] = (
                st.st_size, st.st_mtime_ns)
    return listing


@pytest.fixture(scope="module")
def widths(corpus_dir, tmp_path_factory):
    """The 40-document corpus extracted ONCE and merged at its derived
    width (1 char) and, with the driver-side ``DOCS_PER_BUCKET`` lowered,
    at 2 and 3 chars.  merge.json is removed between merges, so each merge
    is a fresh fold of the same delta files.  Per width: the merge
    manifest, the sorted ``(table_name, mkey, payload)`` objects rows, the
    objects files' row counts and the delta_buckets/ listing."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from indu_doc_transformer_ray.pipelines import extract

    out = str(tmp_path_factory.mktemp("widths"))
    run_extraction(corpus_dir, out, shards=2)
    merges = {}
    for chars, per_bucket in ((1, extract.DOCS_PER_BUCKET), (2, 2), (3, 0.1)):
        mpath = os.path.join(out, "manifests", "merge.json")
        if os.path.exists(mpath):
            os.remove(mpath)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extract, "DOCS_PER_BUCKET", per_bucket)
            m = run_merge(out)
        obj_dir = os.path.join(out, "objects")
        t = pads.dataset(obj_dir).to_table(
            columns=["table_name", "mkey", "payload"])
        merges[chars] = {
            "manifest": m,
            "rows": sorted(zip(*[c.to_pylist() for c in t.columns])),
            "file_rows": [pq.read_metadata(os.path.join(obj_dir, f)).num_rows
                          for f in os.listdir(obj_dir)],
            "delta_files": _delta_files(out),
        }
    return out, merges


def test_merge_equal_across_widths(widths):
    """One set of delta files serves every width: the three merges fold
    the same files (none rewritten) into the same objects, and the width
    is nowhere in the layout or the shard manifests."""
    from indu_doc_transformer_ray.pipelines.extract import session_cpus

    out, merges = widths
    m = {c: merges[c]["manifest"] for c in merges}
    assert [m[c]["bucket_chars"] for c in (1, 2, 3)] == [1, 2, 3]
    assert m[1]["n_buckets"] == 16
    assert 16 < m[2]["n_buckets"] <= 256 < m[3]["n_buckets"] <= 4096
    assert m[1]["n_objects"] == m[2]["n_objects"] == m[3]["n_objects"]
    rows = merges[1]["rows"]
    assert rows == merges[2]["rows"] == merges[3]["rows"]
    assert len({mkey for _t, mkey, _p in rows}) == len(rows)  # one per mkey

    delta_files = merges[1]["delta_files"]
    assert delta_files == merges[2]["delta_files"] == merges[3]["delta_files"]
    assert delta_files == _delta_files(out)
    # one delta file per bucket task: a shard's task count, at any width
    per_shard = {}
    for path in delta_files:
        shard_dir, name = path.split(os.sep)
        assert name.startswith("part-") and name.endswith(".parquet")
        per_shard[shard_dir] = per_shard.get(shard_dir, 0) + 1
    assert sorted(per_shard) == ["shard=00000", "shard=00001"]
    assert max(per_shard.values()) <= max(2, session_cpus() // 8)
    for k in (0, 1):
        shard_m = json.load(open(
            os.path.join(out, "manifests", f"shard-{k:05d}.json")))
        assert "bucket_chars" not in shard_m


def test_merge_manifest_per_bucket_rows(widths):
    """merge.json's per-bucket object rows describe the objects/ files:
    they sum to the objects/ row count, and max/median are the files'."""
    import statistics

    out, merges = widths
    local = 0
    for k in (0, 1):
        shard_m = json.load(open(
            os.path.join(out, "manifests", f"shard-{k:05d}.json")))
        local += shard_m["n_errors"] + shard_m["n_page_objects"]
    for merge in merges.values():
        m, per_file = merge["manifest"], merge["file_rows"]
        assert m["n_buckets"] == len(per_file)
        assert m["n_objects"] - local == sum(per_file)
        assert m["bucket_rows_max"] == max(per_file)
        assert m["bucket_rows_median"] == statistics.median(per_file)


def test_merge_manifest_table_rows(widths):
    """merge.json's ``table_rows`` counts every output table as
    ``object_table`` reads it, sums to ``n_objects`` and is the same at
    every width."""
    from indu_doc_transformer_ray.deltas import TABLE_NAMES

    out, merges = widths
    table_rows = merges[3]["manifest"]["table_rows"]
    assert list(table_rows) == list(TABLE_NAMES)
    assert table_rows == {
        name: object_table(out, name).count() for name in TABLE_NAMES
    }
    assert sum(table_rows.values()) == merges[3]["manifest"]["n_objects"]
    assert all(merges[c]["manifest"]["table_rows"] == table_rows
               for c in (1, 2))
