#!/usr/bin/env python
"""Validate observe summary JSON documents against the checked-in schema.

CI runs this over the ``summary.json`` produced by
``repro-experiments observe`` so the artifact contract
(``schemas/observe_summary.schema.json``) cannot drift silently.
Validation uses the dependency-free subset validator in
:mod:`repro.observe.export`.

Usage::

    PYTHONPATH=src python tools/validate_observe_summary.py \
        observe-ci/summary.json
"""

import argparse
import json
import os
import sys

from repro.observe.export import validate_summary

#: The checked-in schema, found from this file so that the tool runs
#: from any working directory.
DEFAULT_SCHEMA = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "schemas", "observe_summary.schema.json",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+",
                        help="summary JSON files to validate")
    parser.add_argument("--schema", default=DEFAULT_SCHEMA,
                        help="schema path (default: the repository's "
                             "schemas/observe_summary.schema.json)")
    args = parser.parse_args(argv)

    with open(args.schema, "r", encoding="utf-8") as handle:
        schema = json.load(handle)

    failures = 0
    for path in args.paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            failures += 1
            continue
        errors = validate_summary(document, schema)
        if errors:
            failures += 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  {error}")
        else:
            print(f"{path}: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
