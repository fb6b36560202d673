"""``repro-store`` — inspect and manage a persistent run store.

Subcommands::

    repro-store list   [--experiment N] [--type T] [--label L] [--long]
    repro-store show   KEYPREFIX
    repro-store diff   KEYPREFIX KEYPREFIX [--tolerance X]
    repro-store export KEYPREFIX [-o PATH]
    repro-store prune  [--older-than AGE] [--experiment N] [--type T] [--all]

The store directory comes from ``--store DIR`` or the
``REPRO_STORE_DIR`` environment variable.  Key prefixes resolve like git
short hashes; ``AGE`` accepts ``90``, ``45s``, ``30m``, ``12h``, ``7d``.
``diff`` compares two figure entries' per-arm tail errors and exits
non-zero when any arm moved by more than ``--tolerance`` — usable
directly as a CI regression gate between two sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.experiments.results import FigureResult
from repro.store.backend import MARKER_NAME, StoreError
from repro.store.store import RunStore, STORE_DIR_ENV

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_age(text: str) -> float:
    """``"90"``/``"45s"``/``"30m"``/``"12h"``/``"7d"`` → seconds."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise StoreError(f"unparseable age {text!r} "
                         "(expected e.g. 90, 45s, 30m, 12h, 7d)") from None
    if value < 0:
        raise StoreError(f"age must be non-negative, got {value}")
    return value * unit


def _age_string(created_at: float, now: Optional[float] = None) -> str:
    seconds = max(0.0, (time.time() if now is None else now) - created_at)
    for suffix, unit in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= unit:
            return f"{seconds / unit:.1f}{suffix}"
    return f"{seconds:.0f}s"


def _headline(manifest: Dict[str, Any]) -> str:
    """The one number worth a column in ``list`` output."""
    summary = manifest.get("summary", {})
    if manifest.get("type") == "error_curve":
        return f"tail={summary.get('tail_error', float('nan')):.3f}"
    if manifest.get("type") == "scalar":
        return f"value={summary.get('value', float('nan')):.3f}"
    tails = summary.get("tail_errors", {})
    return f"{len(tails)} arm(s)"


# --------------------------------------------------------------------- #
# Subcommands                                                           #
# --------------------------------------------------------------------- #


def cmd_list(store: RunStore, args: argparse.Namespace) -> int:
    manifests = store.query(result_type=args.type,
                            experiment=args.experiment, label=args.label)
    if not manifests:
        print("(store is empty or no entries match)")
        return 0
    width = 64 if args.long else 12
    print(f"{'key':<{width}} {'type':<13} {'experiment':<22} "
          f"{'label':<26} {'trial':>5} {'age':>7}  summary")
    for m in manifests:
        trial = m.get("trial")
        print(f"{m['key'][:width]:<{width}} {m.get('type', '?'):<13} "
              f"{str(m.get('experiment', '-')):<22} "
              f"{str(m.get('label', '-')):<26} "
              f"{'-' if trial is None else trial:>5} "
              f"{_age_string(m.get('created_at', 0.0)):>7}  {_headline(m)}")
    print(f"({len(manifests)} entr{'y' if len(manifests) == 1 else 'ies'})")
    return 0


def cmd_show(store: RunStore, args: argparse.Namespace) -> int:
    key = store.resolve(args.key)
    manifest = store.manifest(key)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _figure_entry(store: RunStore, prefix: str) -> FigureResult:
    key = store.resolve(prefix)
    value = store.get(key)
    if not isinstance(value, FigureResult):
        raise StoreError(
            f"{key[:12]} is a {type(value).__name__} entry; expected a "
            "figure_result (run `repro-store list --type figure_result`)"
        )
    return value


def cmd_diff(store: RunStore, args: argparse.Namespace) -> int:
    left = _figure_entry(store, args.left)
    right = _figure_entry(store, args.right)
    left_tails = left.tail_errors()
    right_tails = right.tail_errors()
    arms = sorted(set(left_tails) | set(right_tails))
    print(f"{'arm':<34} {'left':>9} {'right':>9} {'delta':>10}")
    worst = 0.0
    for arm in arms:
        a, b = left_tails.get(arm), right_tails.get(arm)
        if a is None or b is None:
            print(f"{arm:<34} {'-' if a is None else f'{a:9.4f}':>9} "
                  f"{'-' if b is None else f'{b:9.4f}':>9} {'(only one)':>10}")
            worst = float("inf")
            continue
        delta = b - a
        worst = max(worst, abs(delta))
        print(f"{arm:<34} {a:>9.4f} {b:>9.4f} {delta:>+10.4f}")
    for name in sorted(set(left.reference_lines) | set(right.reference_lines)):
        a = left.reference_lines.get(name)
        b = right.reference_lines.get(name)
        if a is not None and b is not None:
            worst = max(worst, abs(b - a))
            print(f"{name:<34} {a:>9.4f} {b:>9.4f} {b - a:>+10.4f}  (const)")
        else:
            worst = float("inf")
            print(f"{name:<34} {'-' if a is None else f'{a:9.4f}':>9} "
                  f"{'-' if b is None else f'{b:9.4f}':>9} {'(only one)':>10}")
    if worst > args.tolerance:
        print(f"DIFFER (max |delta| {worst:.4f} > "
              f"tolerance {args.tolerance:.4f})")
        return 1
    print(f"MATCH (max |delta| {worst:.4f} <= "
          f"tolerance {args.tolerance:.4f})")
    return 0


def cmd_export(store: RunStore, args: argparse.Namespace) -> int:
    result = _figure_entry(store, args.key)
    text = result.to_json() + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} "
              f"({len(result.curves)} curve(s), "
              f"{len(result.reference_lines)} reference line(s))")
    else:
        sys.stdout.write(text)
    return 0


def cmd_prune(store: RunStore, args: argparse.Namespace) -> int:
    removed = store.prune(
        older_than=None if args.older_than is None
        else parse_age(args.older_than),
        result_type=args.type,
        experiment=args.experiment,
        everything=args.all,
    )
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


# --------------------------------------------------------------------- #
# Entry point                                                           #
# --------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--store", metavar="DIR", default=None,
                        help=f"store directory (default: ${STORE_DIR_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list stored entries")
    p.add_argument("--experiment", help="filter by experiment name")
    p.add_argument("--label", help="filter by arm label")
    p.add_argument("--type", choices=("error_curve", "scalar",
                                      "figure_result"),
                   help="filter by stored value type")
    p.add_argument("--long", action="store_true", help="print full keys")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("show", help="print one entry's manifest")
    p.add_argument("key", help="key or unique prefix")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("diff", help="compare two figure runs' tail errors")
    p.add_argument("left", help="key or unique prefix of the baseline run")
    p.add_argument("right", help="key or unique prefix of the other run")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="max |delta| still reported as MATCH (default 0)")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("export", help="write a figure entry's curves as JSON")
    p.add_argument("key", help="key or unique prefix")
    p.add_argument("-o", "--output", metavar="PATH",
                   help="destination file (default: stdout)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("prune", help="delete matching entries")
    p.add_argument("--older-than", metavar="AGE",
                   help="minimum age, e.g. 90, 45s, 30m, 12h, 7d")
    p.add_argument("--experiment", help="filter by experiment name")
    p.add_argument("--type", choices=("error_curve", "scalar",
                                      "figure_result"),
                   help="filter by stored value type")
    p.add_argument("--all", action="store_true",
                   help="allow pruning with no other filter")
    p.set_defaults(func=cmd_prune)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    root = args.store or os.environ.get(STORE_DIR_ENV)
    if not root:
        parser.error(f"no store directory: pass --store or set "
                     f"${STORE_DIR_ENV}")
    # RunStore(root) creates a store wherever it points; every command
    # here reads an existing one, so a mistyped path must not become one.
    if not os.path.isfile(os.path.join(root, MARKER_NAME)):
        print(f"repro-store: no run store at {root}", file=sys.stderr)
        return 2
    try:
        store = RunStore(root)
        return args.func(store, args)
    except StoreError as exc:
        print(f"repro-store: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager (`| head`) closed early; not an error.  Point
        # stdout at devnull so interpreter shutdown doesn't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
