"""Run ``crowdmetrics report`` once with a span around each layer's calls.

    python traced_report.py SPANS_JSON RUN_ID report ARGS...

The spans come from wrappers installed around the names the CLI and
``crowdmetrics.report`` look up when they call into the other modules, so
the run goes through ``crowdmetrics.cli.main`` unchanged and releases its
objects at the same points an untraced run does. The wrappers keep no
reference to arguments or results. A span records its name, start, end,
parent span, the run id and the process's peak RSS after it; spans stay in
memory and are written to SPANS_JSON when the run ends, with the counts read
from the wrapped calls' results and the names that could not be wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time


def _rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ingest_counts(args, kwargs, result) -> dict:
    return {
        "ingest.records_total": result.total_records,
        "ingest.events_loaded": len(result.events),
        "ingest.dropped_anonymous": result.dropped_anonymous,
        "ingest.skipped_malformed": result.skipped_malformed,
    }


def _snapshot_counts(args, kwargs, snapshot) -> dict:
    return {
        "events.snapshot_events": len(snapshot.events),
        "events.duplicates_removed": snapshot.duplicates_removed,
    }


def _profile_counts(args, kwargs, result) -> dict:
    volunteers, projects = result
    return {"events.volunteers": len(volunteers), "events.projects": len(projects)}


def _bootstrap_counts(args, kwargs, ci) -> dict:
    import numpy as np

    sample = np.asarray(args[0] if args else kwargs["sample"], dtype=float)
    return {
        "stats.bootstrap.n": sample.size,
        "stats.bootstrap.distinct_values": np.unique(sample).size,
        "stats.bootstrap.draws": ci.resamples * sample.size,
    }


#: (module, attribute, span name, counter). Two names may share a span name.
WRAPPED = (
    ("crowdmetrics.cli", "load_events", "ingest.load_events", _ingest_counts),
    ("requests", "Session.send", "ingest.api.http", None),
    ("crowdmetrics.cli", "build_snapshot", "events.build_snapshot", _snapshot_counts),
    ("crowdmetrics.cli", "build_report", "report.build_report", None),
    ("crowdmetrics.report", "derive_profiles", "events.derive_profiles", _profile_counts),
    ("crowdmetrics.report", "compute_volunteer_metrics", "volunteers.compute_volunteer_metrics", None),
    ("crowdmetrics.report", "compute_project_balances", "projects.compute_project_balances", None),
    ("crowdmetrics.report", "recruitment_inequality", "stats.gini", None),
    ("crowdmetrics.report", "contribution_inequality", "stats.gini", None),
    ("crowdmetrics.report", "ecdf", "stats.ecdf", None),
    ("crowdmetrics.report", "class_distribution", "stats.class_distribution", None),
    ("crowdmetrics.report", "bootstrap_mean_ci", "stats.bootstrap_mean_ci", _bootstrap_counts),
    ("crowdmetrics.cli", "write_report", "report.write_report", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._open: list[int] = []

    def install(self, table) -> None:
        for module_name, attribute, span_name, counter in table:
            *path, leaf = attribute.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            setattr(owner, leaf, self._wrap(original, span_name, counter))

    def _wrap(self, function, name: str, counter):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "run": self.run_id,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_peak_mb"] = _rss_peak_mb()
                self._open.pop()
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> None:
        try:
            counts = counter(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.missing.append(f"{name} counts ({type(exc).__name__}: {exc})")
            return
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    tracer.install(WRAPPED)
    from crowdmetrics.cli import main as cli_main

    code = cli_main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"run": run_id, "spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing},
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
