"""End-to-end job entrypoint (the `ray job submit` script shape).

    python tools/run_job.py --input <docs parquet/lance dir> --out <dir> \
        [--shards 8] [--num-cpus N] [--export sqlite,aml,json]

Runs: sharded resumable extraction -> bucketed object merge -> optional
driver-side exports over the merged tables.  Re-running with the same
--out resumes: complete shards and a complete merge are skipped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--shards", type=int, default=8)
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--export", default="")
    ap.add_argument(
        "--page-settings", default=None,
        help="JSON page-settings file overriding the shipped PAGE_SPECS "
             "(pagesettings.PageSettings shape); applied inside every "
             "extraction worker process",
    )
    ap.add_argument(
        "--config", default=None,
        help="aspects-config JSON file ({'aspects': [{'Separator','Aspect'}]},"
             " the reference's -c shape); default = the shipped separators",
    )
    ap.add_argument("--stats", action="store_true",
                    help="print per-table object counts after the merge")
    ap.add_argument("--progress", action="store_true",
                    help="print shard progress events to stderr")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from indu_doc_transformer_ray.deltas import TABLE_NAMES
    from indu_doc_transformer_ray.pipelines.runner import (
        object_table,
        run_extraction,
        run_merge,
    )

    psj = None
    if args.page_settings:
        psj = open(args.page_settings, encoding="utf-8").read()
    from indu_doc_transformer_ray.core import AspectConfig, default_config
    config = (
        AspectConfig.from_json(open(args.config, encoding="utf-8").read())
        if args.config else default_config
    )

    def on_event(ev: dict) -> None:
        if args.progress:
            print(json.dumps(ev), file=sys.stderr, flush=True)

    t0 = time.time()
    shard_results = run_extraction(
        args.input, args.out, shards=args.shards, config=config,
        page_settings_json=psj, on_event=on_event,
    )
    merge_manifest = run_merge(args.out)
    wall = time.time() - t0

    summary = {
        "docs": sum(r.n_docs for r in shard_results),
        "pages": sum(r.n_pages for r in shard_results),
        "shards_skipped": sum(1 for r in shard_results if r.skipped),
        "objects": merge_manifest["n_objects"],
        "wall_s": round(wall, 2),
    }

    if args.stats:
        # per-table merged counts, computed distributed (filtered reads of
        # the merged objects + lazily flattened doc-scoped columns)
        summary["stats"] = {
            name: object_table(args.out, name).count() for name in TABLE_NAMES
        }

    if args.export:
        from indu_doc_transformer_ray import exporters

        tables = {}
        for name in TABLE_NAMES:
            tables[name] = object_table(args.out, name).to_pandas().to_dict(
                "records"
            )
        for kind in args.export.split(","):
            dest = os.path.join(args.out, f"export.{kind.strip()}")
            if kind == "sqlite":
                if os.path.exists(dest):
                    os.remove(dest)
                exporters.save_sqlite(tables, dest, config=config)
            elif kind == "aml":
                open(dest + ".xml", "w").write(exporters.export_aml(tables))
            elif kind == "json":
                open(dest + ".json", "w").write(exporters.export_json(tables))
            summary.setdefault("exports", []).append(kind)

    print(json.dumps(summary))
    ray.shutdown()


if __name__ == "__main__":
    main()
