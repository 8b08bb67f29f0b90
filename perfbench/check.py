"""Compare a ddmtest report with the generator's ground truth.

The report shows, per language and level, how many n = 3 and n = 4 trees
fell above, below or on the mean, and, in the JSON and markdown formats,
how many blocks were excluded for each reason. The star and linear levels
split the n = 4 trees by shape; the other three n = 4 levels count them
together. Blocks whose fate
the report cannot show (trees of other lengths; exclusions in a CSV report)
fall into one residual bucket, so every block is accounted for. Each view
(n = 3 with star and linear, or n = 3 with one of the other n = 4 levels) is
a fate histogram; its failed blocks are half the L1 distance to the truth's:
the fewest blocks that must have changed fate to explain the difference.
A report's failed blocks are the most any of its views shows.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

from corpus import Collection

NOT_SHOWN = ("not_shown",)
# (n, shape) of the trees each level counts; "all" is star and linear together
_LEVEL_CELLS = {"n3_all": (3, "both"), "n4_all_real": (4, "all"),
                "n4_unlabelled": (4, "all"), "n4_labelled": (4, "all"),
                "n4_star": (4, "star"), "n4_linear": (4, "linear")}
# each view is a set of levels that count every n = 3 and n = 4 tree once
VIEWS = (("n3_all", "n4_star", "n4_linear"), ("n3_all", "n4_all_real"),
         ("n3_all", "n4_unlabelled"), ("n3_all", "n4_labelled"))


def parse_report(payload: bytes, fmt: str) -> tuple[list, dict]:
    """(result rows, exclusion counts) of a JSON or CSV report."""
    if fmt == "json":
        doc = json.loads(payload)
        return doc["results"], doc["exclusions"]
    rows = [r for r in csv.DictReader(io.StringIO(payload.decode("utf-8")))
            if r["language"]]
    return rows, {}


def report_fates(rows: list, exclusions: dict, levels: tuple) -> Counter:
    """Fate histogram the given levels of a report show, without the
    residual bucket."""
    tallies = {}
    for r in rows:
        if r["level"] in levels:
            cell = _LEVEL_CELLS[r["level"]]
            tallies.setdefault((r["language"], cell), {})[r["direction"]] = (
                int(r["m"]), int(r["g"]))
    shown = Counter()
    for (language, (n, shape)), by_dir in tallies.items():
        m = next(iter(by_dir.values()))[0]
        above = by_dir.get("above", (m, 0))[1]
        below = by_dir.get("below", (m, 0))[1]
        shown[("counted", language, n, shape, "above")] += above
        shown[("counted", language, n, shape, "below")] += below
        shown[("counted", language, n, shape, "tie")] += m - above - below
    for reason, count in exclusions.items():
        shown[("excluded", reason)] += count
    return +shown


def _merge_shapes(fates: Counter) -> Counter:
    """Fates as a level that counts star and linear n = 4 trees together
    sees them."""
    out = Counter()
    for fate, count in fates.items():
        if fate[0] == "counted" and fate[2] == 4:
            fate = fate[:3] + ("all",) + fate[4:]
        out[fate] += count
    return out


def _as_shown(fates: Counter, blocks: int, shows_exclusions: bool) -> Counter:
    out = Counter()
    for fate, count in fates.items():
        visible = fate[0] == "counted" or (shows_exclusions and fate[0] == "excluded")
        out[fate if visible else NOT_SHOWN] += count
    out[NOT_SHOWN] += blocks - sum(out.values())
    return out


def _distance(a: Counter, b: Counter) -> int:
    return sum(abs(a[k] - b[k]) for k in set(a) | set(b)) // 2


@dataclass
class Verdict:
    failed_blocks: int      # blocks whose fate disagrees with the truth
    ok: bool                # truth met, or only the documented BOM defect shows


def judge(payload: bytes, fmt: str, coll: Collection, exit_code: int = 0) -> Verdict:
    """Check one output. A non-zero exit or an unreadable report fails every
    block; otherwise the failed blocks are the most any view of the report
    shows."""
    if exit_code != 0:
        return Verdict(coll.blocks, False)
    try:
        rows, exclusions = parse_report(payload, fmt)
        views = [report_fates(rows, exclusions, levels) for levels in VIEWS]
    except (ValueError, KeyError, TypeError):
        return Verdict(coll.blocks, False)
    shows_exclusions = fmt != "csv"
    bom_bent = coll.truth_with_bom_defect()
    failed = bent_failed = 0
    for levels, shown in zip(VIEWS, views):
        observed = _as_shown(shown, coll.blocks, shows_exclusions)
        truth, bent = coll.truth, bom_bent
        if "n4_star" not in levels:
            truth, bent = _merge_shapes(truth), _merge_shapes(bent)
        failed = max(failed, _distance(
            observed, _as_shown(truth, coll.blocks, shows_exclusions)))
        bent_failed = max(bent_failed, _distance(
            observed, _as_shown(bent, coll.blocks, shows_exclusions)))
    return Verdict(failed, failed == 0 or bent_failed == 0)
