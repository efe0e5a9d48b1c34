"""Output checks: artifact set, strict JSON, finite CSV, verdict fields.

A command passes when its output directory holds exactly the expected
artifacts, every JSON file parses without ``NaN``/``Infinity``, every
numeric CSV cell is finite, and the verdict-bearing fields match the
stored reference.  Byte identity across repetitions is checked by the
caller from the hashes returned here.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from workloads import expected_artifacts


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def check_csv(text: str, placeholders=frozenset()) -> None:
    """Every cell that parses as a number must be finite.

    Columns named in ``placeholders`` must hold ``nan`` in every row
    instead: scan.csv documents that columns of kinds the config did not
    request are filled with NaN.
    """
    header = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            skip = {i for i, name in enumerate(cells) if name in placeholders}
            continue
        for i, cell in enumerate(cells):
            if i in skip:
                if cell != "nan":
                    raise CheckFailed(f"line {lineno}: column {header[i]} "
                                      f"should be the nan placeholder, "
                                      f"got {cell!r}")
                continue
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise CheckFailed(f"line {lineno}: non-finite cell {cell!r} "
                                  f"in column {header[i]}")


# scan.csv column filled with NaN when its kind is not requested.
_KIND_COLUMNS = {"mean": "mean_tail_max", "weyl": "weyl_value",
                 "bohr": "bohr_value"}


def _placeholders(command: str, cfg: dict) -> frozenset:
    if command != "scan":
        return frozenset()
    kinds = cfg.get("kinds", list(_KIND_COLUMNS))
    return frozenset(col for kind, col in _KIND_COLUMNS.items()
                     if kind not in kinds)


def _verdict_kinds(doc) -> dict:
    """How often each estimator verdict kind occurs anywhere in a document."""
    kinds = Counter()
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            verdict = node.get("verdict")
            if isinstance(verdict, dict) and "kind" in verdict:
                kinds[verdict["kind"]] += 1
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return dict(sorted(kinds.items()))


def verdict_fields(command: str, docs: dict) -> dict:
    """The fields a speed-up may not change, from a command's JSON files."""
    fields = {"verdict_kinds": {name: _verdict_kinds(doc)
                                for name, doc in sorted(docs.items())}}
    if command == "classify":
        report = docs["classify.json"]["report"]
        fields["verdicts"] = report["verdicts"]
        fields["raw_verdicts"] = report["raw_verdicts"]
    elif command == "scan":
        fields["periods"] = {kind: scan["periods"] for kind, scan
                             in docs["scan.json"]["scans"].items()}
    elif command == "spectrum":
        report = docs["spectrum.json"]["report"]
        fields["purity"] = report["purity"]
        fields["detected"] = len(report["frequencies"])
        fields["thetas"] = sorted(f["theta"] for f in report["frequencies"])
    elif command == "eigen":
        fields["flags"] = docs["eigen.json"]["eigen"]["flags"]
    elif command == "diffract":
        atoms = docs["atoms.json"]
        fields["negative_density"] = atoms["negative_density"]
        fields["atoms"] = [[a["theta"], a["trajectory"]["verdict"]["kind"]]
                           for a in atoms["atoms"]]
    elif command == "generate":
        fields["length"] = docs["generate.json"]["length"]
    return fields


def _circular(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def compare(fields: dict, reference: dict, theta_tol: float) -> list[str]:
    """Differences between verdict fields and the reference's fields."""
    problems = []
    for key in sorted(reference):
        got, want = fields.get(key), reference.get(key)
        if key == "thetas" and got is not None and want is not None:
            unmatched = list(got)
            for theta in want:
                near = [g for g in unmatched if _circular(g, theta) <= theta_tol]
                if not near:
                    problems.append(f"thetas: no detected frequency within "
                                    f"{theta_tol} of {theta}")
                    continue
                unmatched.remove(min(near, key=lambda g: _circular(g, theta)))
            if unmatched:
                problems.append(f"thetas: unexpected {unmatched}")
        elif got != want:
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def check_outputs(command: str, cfg: dict, out: Path) -> tuple[dict, dict]:
    """Run the content checks; return ({file: sha256}, verdict fields)."""
    want = expected_artifacts(command, cfg)
    have = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if have != want:
        raise CheckFailed(f"artifacts {sorted(have)}, expected {sorted(want)}")
    hashes, docs = {}, {}
    for name in sorted(want):
        data = (out / name).read_bytes()
        hashes[name] = hashlib.sha256(data).hexdigest()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckFailed(f"{name}: {exc}") from None
        try:
            if name.endswith(".json"):
                docs[name] = strict_json(text)
            else:
                check_csv(text, _placeholders(command, cfg))
        except CheckFailed as exc:
            raise CheckFailed(f"{name}: {exc}") from None
    try:
        fields = verdict_fields(command, docs)
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"verdict field missing: {exc!r}") from None
    return hashes, fields


def hash_outputs(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} if out.is_dir() else {}
