"""Output checker: every recipe output is parsed and checked by value.

A check never compares bytes.  It checks the exit code, the column names,
the row count, the type of every cell and the paper invariants the
acceptance suite pins, and it returns a digest of the parsed values so
repetitions with the same seed can be compared.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field

#: column name -> cell kind: "s" text, "b" boolean, "i" integer, "f" number
COLUMNS = {
    "classify": dict(family="s", n="i", mu="f", efp_limit_estimate="f", efp_agreement="f",
                     iso_to_hinf="b", ratio_sup="f", ratio_bounded="b",
                     strictly_cyclic_sup="f", cnp="b", compact_regime="b", moduli_mass="f"),
    "compare": dict(family="s", family2="s", comparable="b", ratio_min="f", ratio_max="f",
                    tail_drift="f", verdict="s"),
    "pick-check": dict(size="i", min_eigenvalue="f", matrix_scale="f", verdict="s",
                       solvable="b"),
    "interp-extract": dict(k="i", index="i", point_norm="f", min_eigenvalue="f", rule="s"),
    "crossing": dict(r="f", C="f", x="f", scalar_s="f", det="f", lhs="f", rhs="f",
                     kernel_ratio="f"),
    "distortion": dict(d_source="f", d_image="f"),
    "carleson": dict(p="i", carleson_ratio="f"),
    "separation": {"n": "i", "delta_n": "f", "gap_n": "f", "budget_n": "f"},
    "tangential-embed": dict(t="f", u1="f", u1_tilde="f", abs_f1="f", abs_f2="f",
                             sphere_defect="f"),
    "tangency-report": dict(x="f", ratio1="f", ratio2="f"),
}

#: recipe defaults of the parameters that fix the row count
DEFAULTS = {"kmax": "10", "pairs": "100", "xs": "", "p_max": "10", "n": "40",
            "m": "4096", "jmin": "4", "jmax": "14"}

#: relative eigenvalue band of the Pick verdicts (pick.PSD_TOL)
PSD_TOL = 1e-10

#: acceptance bound on |f1|^2 + |f2|^2 - 1 away from the singular grid point
SPHERE_TOL = 1e-8

# numpy scalars written with repr() under numpy 2 (ROADMAP 4a)
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)\Z")


@dataclass
class Outcome:
    """Result of checking one invocation."""

    problems: list = field(default_factory=list)
    digest: str = ""
    nonnumeric_cells: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def expected_rows(recipe: str, params: dict) -> int:
    p = {**DEFAULTS, **params}
    if recipe == "interp-extract":
        return int(p["kmax"])
    if recipe == "distortion":
        xs = [x for x in p["xs"].split(";") if x]
        return len(xs) if xs else int(p["pairs"])
    if recipe == "carleson":
        return int(p["p_max"])
    if recipe == "separation":
        return int(p["n"])
    if recipe == "tangential-embed":
        return int(p["m"])
    if recipe == "tangency-report":
        return int(p["jmax"]) - int(p["jmin"]) + 1
    return 1


def _typed(value, kind: str, outcome: Outcome):
    """The cell as its column kind, or None when it does not fit."""
    if kind == "s":
        return value if isinstance(value, str) else None
    if kind == "b":
        return value if isinstance(value, bool) else None
    if isinstance(value, bool):
        return None
    if kind == "i":
        return value if isinstance(value, int) else None
    if isinstance(value, str):
        match = _NUMPY_REPR.match(value)
        if match is None:
            return None
        try:
            value = float(match.group(1))
        except ValueError:
            return None
        outcome.nonnumeric_cells += 1
    return float(value)


def _invariants(recipe: str, params: dict, table: list[dict]) -> list[str]:
    bad = []
    if recipe == "tangential-embed":
        # row 0 is the singular point F(1) = (1, 0) of the construction grid
        worst = max((abs(r["sphere_defect"]) for r in table[1:]), default=0.0)
        if not worst <= SPHERE_TOL:
            bad.append(f"sphere_defect {worst:.3g} exceeds {SPHERE_TOL:g}")
    elif recipe == "interp-extract":
        if any(not r["min_eigenvalue"] >= 0.0 for r in table):
            bad.append("negative min_eigenvalue in the extraction audit")
        indices = [r["index"] for r in table]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            bad.append("audit index not strictly increasing")
        if [r["k"] for r in table] != list(range(1, len(table) + 1)):
            bad.append("audit stages are not 1..kmax")
    elif recipe == "separation":
        if any(not 0.0 <= r["delta_n"] <= 1.0 for r in table):
            bad.append("delta_n outside [0, 1]")
    elif recipe == "pick-check":
        nodes = [z for z in params.get("nodes", "").split(";") if z]
        for r in table:
            band = PSD_TOL * r["matrix_scale"]
            lam = r["min_eigenvalue"]
            want = ("positive-definite" if lam > band
                    else "indefinite" if lam < -band else "positive-semidefinite")
            if r["verdict"] != want:
                bad.append(f"verdict {r['verdict']} disagrees with min_eigenvalue {lam!r}")
            if r["solvable"] != (lam >= -band):
                bad.append(f"solvable={r['solvable']} disagrees with min_eigenvalue {lam!r}")
            if r["size"] != len(nodes):
                bad.append(f"size {r['size']} for {len(nodes)} nodes")
    return bad


def check_output(recipe: str, params: dict, text: str, read_rows) -> Outcome:
    """Parse ``text`` with the program's own reader and check every value."""
    out = Outcome()
    try:
        doc = read_rows(io.StringIO(text))
    except ValueError as exc:
        out.problems.append(f"unreadable CSV: {exc}")
        return out
    kinds = COLUMNS[recipe]
    if doc.columns != list(kinds):
        out.problems.append(f"columns {doc.columns} != {list(kinds)}")
        return out
    want_rows = expected_rows(recipe, params)
    if len(doc.rows) != want_rows:
        out.problems.append(f"{len(doc.rows)} rows, expected {want_rows}")
    table = []
    for number, row in enumerate(doc.rows):
        if len(row) != len(kinds):
            out.problems.append(f"row {number} has {len(row)} cells")
            return out
        typed = {}
        for (name, kind), cell in zip(kinds.items(), row):
            value = _typed(cell, kind, out)
            if value is None:
                out.problems.append(f"row {number} column {name}: {cell!r} is not {kind}")
                return out
            typed[name] = value
        table.append(typed)
    out.problems.extend(_invariants(recipe, params, table))
    # repr() of a float is exact, so equal digests mean equal parsed values
    canon = repr([list(r.values()) for r in table])
    out.digest = hashlib.sha256(canon.encode()).hexdigest()
    return out


def check_clean_error(returncode: int, stderr: str, exit_code: int | None) -> list[str]:
    """A documented failure: known non-zero code, one ``error:`` line, no traceback."""
    bad = []
    if exit_code is not None and returncode != exit_code:
        bad.append(f"exit {returncode}, expected {exit_code}")
    elif exit_code is None and returncode in (0, 1):
        bad.append(f"exit {returncode}, expected a documented error code")
    lines = stderr.strip().splitlines()
    if "Traceback" in stderr:
        bad.append("traceback on stderr")
    elif len(lines) != 1 or not lines[0].startswith("error:"):
        bad.append(f"stderr is not one 'error:' line ({len(lines)} lines)")
    return bad


def check_repeat(digests: dict, key, outcome: Outcome) -> None:
    """Flag ``outcome`` when its parsed values differ from the first run under ``key``."""
    if outcome.ok and outcome.digest != digests.setdefault(key, outcome.digest):
        outcome.problems.append("parsed values differ between repetitions")


def check_invocation(inv, returncode: int, stdout: str, stderr: str, read_rows) -> Outcome:
    """Check one finished invocation against its expectation."""
    if inv.expect == "clean-error":
        return Outcome(problems=check_clean_error(returncode, stderr, inv.exit_code))
    if returncode != inv.exit_code:
        last = stderr.strip().splitlines()[-1:] or [""]
        return Outcome(problems=[f"exit {returncode}, expected {inv.exit_code}: {last[0]}"])
    return check_output(inv.recipe, inv.params, stdout, read_rows)
