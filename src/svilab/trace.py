"""Per-iteration run traces and their CSV form.

The CSV schema is stable: the header is exactly ``CSV_HEADER`` and
missing metrics are empty fields, never sentinel numbers. Floats are
written with ``repr`` so identical runs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation

__all__ = ["CSV_HEADER", "Recorder", "TraceRow", "RunTrace"]

CSV_HEADER = (
    "scheme,seed,outer_k,inner_k,calls,natural_residual,gap,"
    "yosida_sq,saddle_gap,dist_ref_sq,truncated"
)


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


def _fmt(v):
    return "" if v is None else repr(v)


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
                fh.write(
                    f"{self.scheme},{self.seed},{r.outer_k},{r.inner_k},{r.calls},"
                    f"{_fmt(r.natural_residual)},{_fmt(r.gap)},{_fmt(r.yosida_sq)},"
                    f"{_fmt(r.saddle_gap)},{_fmt(r.dist_ref_sq)},{flag}\n"
                )

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
        run = rows[0][:2] + rows[0][10:]
        for line, parts in zip(lines, rows):
            if len(parts) != 11 or parts[10] not in ("true", "false"):
                raise ContractViolation(f"{path}: malformed row {line!r}")
            if parts[:2] + parts[10:] != run:
                raise ContractViolation(f"{path}: row {line!r} disagrees with"
                                        " the first on scheme, seed or flag")
        try:
            trace = RunTrace(run[0], int(run[1]), run[2] == "true")
            for parts in rows:
                trace.add(TraceRow(
                    int(parts[2]), int(parts[3]), int(parts[4]),
                    *(None if p == "" else float(p) for p in parts[5:10]),
                ))
        except ValueError as exc:
            raise ContractViolation(f"{path}: non-numeric field: {exc}") from None
        return trace
