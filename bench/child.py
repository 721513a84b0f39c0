"""Run one `dialectid` command line in a fresh process.

usage: python3 bench/child.py PROBE_JSON TRACE_JSON|- ARG...

ARG... is handed to `dialectid.cli.main` unchanged, so the command takes
the program's own command-line path.  PROBE_JSON receives the
CLOCK_MONOTONIC time at which the first document entered
`normalizer.normalize`; the parent compares it with its own launch time
(time.monotonic() reads the same system-wide clock in both processes).
With TRACE_JSON other than "-", every traced function is wrapped first
and the spans are written there when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dialectid import classifier, cli, corpus, evaluation, features, harness, normalizer  # noqa: E402

import tracer  # noqa: E402


def _probe_first_normalize(stamp: dict) -> None:
    inner = normalizer.normalize

    def first(*args, **kwargs):
        stamp["first_normalize"] = time.monotonic()
        normalizer.normalize = inner
        return inner(*args, **kwargs)

    normalizer.normalize = first


def main(argv: list[str]) -> int:
    probe_path, trace_path, cli_args = argv[0], argv[1], argv[2:]
    trace = None
    if trace_path != "-":
        trace = tracer.Tracer()
        trace.install({
            "cli": cli, "corpus": corpus, "normalizer": normalizer, "features": features,
            "classifier": classifier, "evaluation": evaluation, "harness": harness,
        })
    stamp: dict = {}
    _probe_first_normalize(stamp)
    try:
        code = cli.main(cli_args)
    finally:
        if trace is not None:
            trace.dump(trace_path)
        with open(probe_path, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
