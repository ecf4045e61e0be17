"""File formats: CSV data and design matrices, JSON manifests, reports,
and the experiment configuration schema.

Matrices travel as dense CSV, everything structured as JSON.  Floats are
serialized with shortest round-trip precision (17 significant digits
suffice for binary64), so a written report re-parses to bitwise-identical
numbers.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .design import DesignSpec
from .errors import ConfigError
from .estimators import GroupedSample
from .scenarios import EFFECTS, SCENARIO_NAMES
from .simulate import COVARIANCE_KINDS, DISTRIBUTION_KINDS
from .trace_test import TestReport

MATRIX_KEYS = ("A", "B", "L", "R")


def load_dataset(path, header: bool = False) -> GroupedSample:
    """Read a grouped CSV dataset: first column is the group label, the
    remaining p columns are numeric responses.

    Rows need not arrive sorted; they are reordered group-contiguously in
    first-appearance label order, and the sample records the file row of
    each.  Regular files are parsed in one pass (_parse_regular); any other
    file is parsed cell by cell (_parse_by_cells), whose errors name the
    file, row, and column (1-based data rows, counted after the optional
    header).  The one-pass reader exists because csv.reader alone takes
    about as long as the float() calls: csv.reader rows with one bulk
    conversion are no faster than the per-cell loop.
    """
    path = Path(path)
    parsed = _parse_regular(path, header)
    labels, X = parsed if parsed is not None else _parse_by_cells(path, header)

    order: list[str] = []
    by_label: dict[str, list[int]] = {}
    for index, label in enumerate(labels):
        if label not in by_label:
            order.append(label)
            by_label[label] = []
        by_label[label].append(index)
    source = [i for label in order for i in by_label[label]]
    sizes = tuple(len(by_label[label]) for label in order)
    return GroupedSample(X=X[source], group_sizes=sizes, labels=tuple(order),
                         source_rows=np.array(source))


def _parse_regular(path: Path, header: bool):
    """(labels, X) in file order, or None unless the file is regular: UTF-8
    with no quote, NUL (csv rejects it before Python 3.11) or lone carriage
    return, and every field shorter than csv's field size limit.  csv.reader
    then splits records at newlines and cells at commas, so the rows and
    labels here are those _parse_by_cells reads.  The cells after each label
    go through one np.loadtxt call, which gives float()'s value for every
    cell it accepts and rejects the rest (underscores, non-ASCII digits,
    empty cells, a row whose width differs from the first); a data row
    with no response cell also sends the file to _parse_by_cells."""
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    lines = text.split("\n")
    del text
    limit = csv.field_size_limit()
    if any(len(cell) >= limit for line in lines if len(line) >= limit
           for cell in line.split(",")):
        return None
    labels, rows = [], []
    for line in lines[1:] if header else lines:
        if line.strip():
            label, _, values = line.partition(",")
            if not values:  # loadtxt would skip the row
                return None
            labels.append(label.strip())
            rows.append(values)
    if not rows:
        return None
    try:
        return labels, np.loadtxt(rows, delimiter=",", comments=None,
                                  quotechar=None, ndmin=2)
    except ValueError:
        return None


def _parse_by_cells(path: Path, header: bool):
    """(labels, X) in file order, parsed cell by cell with float(); raises
    ConfigError naming the file, row, and column of the first fault."""
    rows: list[tuple[str, list[float]]] = []
    width = None
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            data_row = 0
            for raw_index, cells in enumerate(reader, start=1):
                if header and raw_index == 1:
                    continue
                if not cells or all(not c.strip() for c in cells):
                    continue
                data_row += 1
                if width is None:
                    width = len(cells)
                    if width < 2:
                        raise ConfigError(
                            f"{path}: row {data_row}: need a label column plus at "
                            f"least one response column, got {width} cells")
                elif len(cells) != width:
                    raise ConfigError(
                        f"{path}: row {data_row}: has {len(cells)} cells, "
                        f"expected {width}")
                label = cells[0].strip()
                values = []
                for col, cell in enumerate(cells[1:], start=2):
                    text = cell.strip()
                    if not text:
                        raise ConfigError(
                            f"{path}: row {data_row}, column {col}: empty cell")
                    try:
                        values.append(float(text))
                    except ValueError as exc:
                        raise ConfigError(
                            f"{path}: row {data_row}, column {col}: "
                            f"non-numeric value {cell!r}") from exc
                rows.append((label, values))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return [label for label, _ in rows], np.array([values for _, values in rows])


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _load_matrix(path: Path, name: str) -> np.ndarray:
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix {name} from {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"matrix {name} in {path} is malformed: {exc}") from exc
    return M


def load_design(path) -> DesignSpec:
    """Read a design from a JSON manifest referencing dense CSV matrices.

    The manifest maps "A", "B", "L", "R" to CSV paths (relative to the
    manifest) and carries "group_sizes".
    """
    path = Path(path)
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    missing = [k for k in (*MATRIX_KEYS, "group_sizes") if k not in manifest]
    if missing:
        raise ConfigError(f"{path}: manifest is missing keys {missing}")
    unknown = [k for k in manifest if k not in (*MATRIX_KEYS, "group_sizes")]
    if unknown:
        raise ConfigError(f"{path}: manifest has unknown keys {unknown}")
    sizes = manifest["group_sizes"]
    if (not isinstance(sizes, list) or not sizes
            or not all(isinstance(n, int) and n > 0 for n in sizes)):
        raise ConfigError(f"{path}: group_sizes must be a list of positive integers")
    mats = {k: _load_matrix(path.parent / manifest[k], k) for k in MATRIX_KEYS}
    return DesignSpec(A=mats["A"], B=mats["B"], L=mats["L"], R=mats["R"],
                      group_sizes=tuple(sizes))


def write_design(design: DesignSpec, directory) -> Path:
    """Materialize a design as CSV matrices plus a manifest; returns the
    manifest path.  Round-trips entrywise exactly."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key in MATRIX_KEYS:
        np.savetxt(directory / f"{key}.csv", getattr(design, key),
                   delimiter=",", fmt="%.17g")
    manifest = {key: f"{key}.csv" for key in MATRIX_KEYS}
    manifest["group_sizes"] = list(design.group_sizes)
    out = directory / "manifest.json"
    out.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return out


def report_to_dict(report: TestReport) -> dict:
    return asdict(report)


def config_hash(config: dict) -> str:
    """Stable digest of a configuration mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_stamped(payload: dict, path, config: dict | None) -> None:
    payload["tool_version"] = __version__
    payload["config_hash"] = config_hash(config) if config is not None else None
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_report(report: TestReport, path, config: dict | None = None) -> None:
    """Write a test report as JSON with tool version and config digest."""
    _write_stamped(report_to_dict(report), path, config)


def write_summary(summary, path, config: dict | None = None) -> None:
    """Write a simulation summary as JSON with tool version and config digest."""
    _write_stamped(asdict(summary), path, config)


_DISTRIBUTION_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(DISTRIBUTION_KINDS)},
        "df": {"type": "number"},
        "shape": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_COVARIANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(COVARIANCE_KINDS)},
        "rho": {"type": "number"},
        "lo": {"type": "number"},
        "hi": {"type": "number"},
        "scale": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_MATRIX_VALUES = {"type": "array", "items": {"type": "array", "items": {"type": "number"}}}

_THETA_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["zero", "matrix", "signal_ray"]},
        "values": _MATRIX_VALUES,
        "path": {"type": "string"},
        "snr": {"type": "number"},
        "direction": {"anyOf": [{"const": "canonical"}, _MATRIX_VALUES]},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"enum": list(SCENARIO_NAMES)},
        "group_sizes": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "p": {"type": "integer"},
        "levels": {"type": "array", "items": {"type": "integer"},
                   "minItems": 2, "maxItems": 2},
        "cell_sizes": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
        "effect": {"enum": list(EFFECTS)},
        "degree": {"type": "integer"},
    },
    "required": ["name"],
    "additionalProperties": False,
}

EXPERIMENT_SCHEMA = {
    "type": "object",
    "properties": {
        "scenario": _SCENARIO_SCHEMA,
        "design": {"type": "string"},
        "distributions": {"anyOf": [_DISTRIBUTION_SCHEMA,
                                    {"type": "array", "items": _DISTRIBUTION_SCHEMA,
                                     "minItems": 1}]},
        "covariances": {"anyOf": [_COVARIANCE_SCHEMA,
                                  {"type": "array", "items": _COVARIANCE_SCHEMA,
                                   "minItems": 1}]},
        "theta": _THETA_SCHEMA,
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "reps": {"type": "integer", "minimum": 100},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
    },
    "required": ["reps", "seed"],
    "additionalProperties": False,
}


def load_config(path) -> dict:
    """Read and schema-validate an experiment configuration; unknown keys
    are rejected before any computation."""
    import jsonschema  # here, so that `gmanova test` does not import it

    path = Path(path)
    config = _read_json(path)
    try:
        jsonschema.validate(config, EXPERIMENT_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(part) for part in exc.absolute_path) or "top level"
        raise ConfigError(f"{path}: invalid config at {where}: {exc.message}") from exc
    if ("scenario" in config) == ("design" in config):
        raise ConfigError(f"{path}: provide exactly one of 'scenario' or 'design'")
    return config
