"""Per-iteration run traces and their CSV form.

The CSV schema is stable: the header is exactly ``CSV_HEADER`` and
missing metrics are empty fields, never sentinel numbers. Floats are
written with ``repr`` so identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from operator import attrgetter

from .errors import ContractViolation

__all__ = ["CSV_HEADER", "Recorder", "TraceRow", "RunTrace"]


@dataclass(frozen=True)
class Recorder:
    """What a solver records: a row after every ``every``-th completed
    iteration and after the run's last one (:meth:`due`).

    Rows always carry the cheap metrics (natural residual, distance to
    the reference, bimatrix saddle gap). Each optional one costs an
    auxiliary deterministic solve per row: ``gap=True`` the solve of
    the strongly monotone gap's maximiser, a ``yosida_lam`` the
    resolvent solve of the squared Yosida residual at that weight.
    Solvers take ``recorder=None`` to record nothing.
    """

    every: int = 1
    gap: bool = False
    yosida_lam: float = None

    def __post_init__(self):
        if not (isinstance(self.every, int) and self.every >= 1):
            raise ContractViolation(f"every must be >= 1; got {self.every!r}")

    def due(self, k, last):
        """Whether completed iteration ``k`` of a run of ``last``
        iterations gets a row: it falls on the cadence or ends the run."""
        return k % self.every == 0 or k == last


@dataclass
class TraceRow:
    """One instrumentation record.

    ``outer_k`` is the scheme's main iteration counter; ``inner_k`` is
    the inner-iteration count for nested schemes and 0 for flat ones.
    ``calls`` is the cumulative oracle consumption when the row was
    recorded.
    """

    outer_k: int
    inner_k: int
    calls: int
    natural_residual: float = None
    gap: float = None
    yosida_sq: float = None
    saddle_gap: float = None
    dist_ref_sq: float = None


# a trace CSV's columns: the run's scheme and seed, a row's fields in
# order (its counts, then its metrics) and the run's flag
_FIELDS = tuple(f.name for f in fields(TraceRow))
CSV_HEADER = ",".join(("scheme", "seed", *_FIELDS, "truncated"))
_values = attrgetter(*_FIELDS)
# a row's counts are its required fields, which a dataclass lists first
_COUNTS = sum(f.default is MISSING for f in fields(TraceRow))


class RunTrace:
    """Ordered trace rows of a single (scheme, seed) run, and whether it
    stops short of its configured length, known before its first draw."""

    def __init__(self, scheme, seed, truncated=False):
        self.scheme = str(scheme)
        self.seed = int(seed)
        self.rows = []
        self.truncated = truncated

    def add(self, row):
        if self.rows and row.calls <= self.rows[-1].calls:
            raise ContractViolation(
                f"cumulative calls must strictly increase, got {row.calls} "
                f"after {self.rows[-1].calls}"
            )
        self.rows.append(row)

    @property
    def final(self):
        return self.rows[-1] if self.rows else None

    def write_csv(self, path):
        flag = "true" if self.truncated else "false"
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.rows:
                values = ",".join(["" if v is None else repr(v)
                                   for v in _values(r)])
                fh.write(f"{self.scheme},{self.seed},{values},{flag}\n")

    @staticmethod
    def read_csv(path):
        """Parse a trace CSV back; raises :class:`ContractViolation` on any
        deviation from what :meth:`write_csv` writes, including a
        non-numeric field, a flag other than ``true`` or ``false``, and
        rows that disagree on scheme, seed or flag."""
        try:
            with open(path, encoding="ascii") as fh:
                header = fh.readline().rstrip("\n")
                lines = [line.rstrip("\n") for line in fh]
        except UnicodeDecodeError as exc:
            raise ContractViolation(f"{path}: not ASCII: {exc}") from None
        if header != CSV_HEADER:
            raise ContractViolation(f"{path}: unexpected header {header!r}")
        if not lines:
            raise ContractViolation(f"{path}: no data rows")
        rows = [line.split(",") for line in lines]
        run = rows[0][:2] + rows[0][-1:]
        for line, parts in zip(lines, rows):
            if len(parts) != len(_FIELDS) + 3 or parts[-1] not in ("true", "false"):
                raise ContractViolation(f"{path}: malformed row {line!r}")
            if parts[:2] + parts[-1:] != run:
                raise ContractViolation(f"{path}: row {line!r} disagrees with"
                                        " the first on scheme, seed or flag")
        try:
            trace = RunTrace(run[0], int(run[1]), run[2] == "true")
            for parts in rows:
                trace.add(TraceRow(
                    *map(int, parts[2:2 + _COUNTS]),
                    *[None if p == "" else float(p)
                      for p in parts[2 + _COUNTS:-1]]))
        except ValueError as exc:
            raise ContractViolation(f"{path}: non-numeric field: {exc}") from None
        return trace
