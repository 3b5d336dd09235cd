"""Output checks: engineered conflicts, merged pedestrian counts, digests of
every stage output, and agreement with the recorded reference.

Reference tolerance. A report file matches its reference when its bytes are
identical. Otherwise it still matches when its text with every number
replaced by ``#`` is identical, it holds as many numbers, and each of
``len(WEIGHT_SEEDS)`` checksums of those numbers (sums with fixed
pseudo-random signs) moves by at most ``FLIPS`` units of the file's coarsest
printed decimal place (1e-6 in the CSVs, 1e-4 in the text reports). That
admits up to ``FLIPS`` values changing by one unit in their last printed
digit, as a change in floating-point summation order can cause, and catches
any change to an id, a label, a row count, or values beyond it. Files that
carry floats at full precision (more than ``MAX_PRINTED_DECIMALS`` places,
as ``labeled.csv`` does) get no tolerance. The model
files (``forest.json``, ``gpr_models.json``) are an internal format and only
enter the run-to-run digest check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

FLIPS = 10
MAX_PRINTED_DECIMALS = 6
WEIGHT_SEEDS = (1, 2, 3, 4)
MODEL_FILES = ("forest.json", "gpr_models.json")
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def output_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in output_files(root)}


def _short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sign(seed: int, i: int) -> int:
    return 1 if ((i + 1) * 2654435761 + seed * 40503) >> 11 & 1 else -1


def summarize(path: Path) -> dict:
    """Digest plus the tolerance summary used against the reference."""
    text = path.read_text()
    tokens = _NUMBER.findall(text)
    numbers = [float(t) for t in tokens]
    decimals = [len(t.split(".")[1]) for t in tokens if "." in t and "e" not in t.lower()]
    return {
        "sha256": _short_hash(text),
        "skeleton": _short_hash(_NUMBER.sub("#", text)),
        "count": len(numbers),
        "unit": (10.0 ** -min(decimals)
                 if decimals and max(decimals) <= MAX_PRINTED_DECIMALS else 0.0),
        "checksums": [sum(_sign(seed, i) * x for i, x in enumerate(numbers))
                      for seed in WEIGHT_SEEDS],
    }


def report_summaries(root: Path) -> dict[str, dict]:
    return {str(p.relative_to(root)): summarize(p) for p in output_files(root)
            if p.name not in MODEL_FILES}


def compare_to_reference(current: dict, reference: dict) -> list[str]:
    """Differences between two ``report_summaries`` results; empty if they agree."""
    problems = []
    for name in sorted(set(current) | set(reference)):
        cur, ref = current.get(name), reference.get(name)
        if cur is None or ref is None:
            problems.append(f"{name}: {'missing' if cur is None else 'unexpected'} file")
        elif cur["sha256"] == ref["sha256"]:
            continue
        elif cur["skeleton"] != ref["skeleton"] or cur["count"] != ref["count"]:
            problems.append(f"{name}: text or row layout differs")
        elif any(abs(a - b) > FLIPS * ref["unit"] + 1e-9
                 for a, b in zip(cur["checksums"], ref["checksums"])):
            problems.append(f"{name}: numbers differ by more than {FLIPS} last-digit units")
    return problems


def load_reference(path: Path, seed: int) -> dict | None:
    """Recorded summaries of one seed, or ``None`` if it was not recorded."""
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def conflict_pairs(conflict_csv: Path) -> set[tuple[str, str]]:
    with conflict_csv.open(newline="") as fh:
        return {(row["vehicle_id"], row["pedestrian_id"]) for row in csv.DictReader(fh)}


def merged_pedestrians(report_txt: Path) -> int:
    """Pedestrian tracks left after fragment merging, from the preprocess report."""
    text = report_txt.read_text()
    fragments = int(re.search(r"^\s*pedestrian: (\d+)$", text, re.M).group(1))
    merges = int(re.search(r"^pedestrian fragments merged: (\d+)$", text, re.M).group(1))
    return fragments - merges


def detection_auc(report_txt: Path) -> float:
    return float(re.search(r"^auc: ([0-9.]+)$", report_txt.read_text(), re.M).group(1))


def risk_rows(risk_csv: Path) -> tuple[int, int]:
    """(rows, distinct vehicle frames) of ``risk_series.csv``."""
    with risk_csv.open(newline="") as fh:
        rows = [(r["t"], r["vehicle_id"]) for r in csv.DictReader(fh)]
    return len(rows), len(set(rows))
