"""Compare benchmark records of two versions of the program.

Usage::

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Each file is a record ``run.py`` wrote to ``perfbench/out/``. Records of
one side should share a workload and trace mode. The report gives each
metric's median per side and the change. It says "behaviour changed"
when the simulated statistics or the result tables differ between
records of the same input, and warns when the hosts differ, since
timings from different hosts are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Sequence

HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "jobs")


def _load(paths: Sequence[str]) -> List[Dict]:
    records = []
    for path in paths:
        with open(path) as handle:
            records.append(json.load(handle))
    return records


def _medians(records: Sequence[Dict]) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for record in records:
        for name, metric in record["summary"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def compare(base: Sequence[Dict], new: Sequence[Dict]) -> List[str]:
    lines = []
    for key in HOST_KEYS:
        seen = {str(r["host"].get(key)) for r in list(base) + list(new)}
        if len(seen) > 1:
            lines.append(f"WARNING hosts differ in {key}: {sorted(seen)}")
    behaviour = {}
    for side, records in (("base", base), ("new", new)):
        for record in records:
            key = json.dumps(record.get("input"))
            facts = json.dumps([record.get("modelled"), record.get("tables_digest")])
            behaviour.setdefault(key, {}).setdefault(facts, set()).add(side)
    changed = [key for key, facts in behaviour.items() if len(facts) > 1]
    lines.append(
        f"behaviour changed for inputs {changed}" if changed
        else "behaviour unchanged (simulated statistics and result tables identical)"
    )
    old, now = _medians(base), _medians(new)
    units = {
        name: metric["unit"]
        for record in base for name, metric in record["summary"]["metrics"].items()
    }
    lines.append(f"{'metric':36s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name in sorted(set(old) & set(now)):
        change = (now[name] - old[name]) / old[name] if old[name] else float("nan")
        lines.append(
            f"{name:36s} {old[name]:14.6g} {now[name]:14.6g} {change:+9.1%} {units[name]}"
        )
    failures = sum(r["summary"]["failed"] for r in new)
    lines.append(f"ops failed: base {sum(r['summary']['failed'] for r in base)}, new {failures}")
    return lines


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = list(argv).index("--")
    base, new = _load(argv[:split]), _load(argv[split + 1:])
    if not base or not new:
        print("need at least one record on each side", file=sys.stderr)
        return 2
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
