"""``repro.api`` — compose scenarios out of workloads, systems and grids.

The paper's evaluation is a fixed grid of {workload} x {system} x {input
size}; this module makes that grid — and any other — *data* instead of
code.  A :class:`Scenario` names a workload from
:mod:`repro.workloads.registry`, a list of system presets from
:mod:`repro.systems`, a parameter grid, and optional dotted-path
configuration overrides, and expands to ordinary
:class:`~repro.harness.spec.SweepPoint` s, so any execution backend
(serial / process pool / distributed) and the point cache work unchanged::

    from repro.api import Scenario

    results = Scenario(workload="matmul",
                       systems=("cpu", "ccsvm"),
                       grid={"size": (8, 16, 32)},
                       overrides={"mttop.count": 4}).run(jobs=4)
    print(results.render())
    print(results.filter(system="ccsvm").columns("size", "time_ms").to_csv())

Scenario points carry only registry names and plain data — the workload
name, the system preset name, the parameter dict — never function objects
or configuration dataclasses, so they cross the distributed wire protocol
as names and their cache keys are function-identity-free.

Two execution shapes:

* **per-system** (the default): one point per (system, grid cell); each
  point contributes one row ``{workload, system, *params, time_ms, ...}``.
* **comparison** (``derive=...``): one point per grid cell; the point runs
  *every* system and a ``derive`` function (named by ``module:qualname``
  reference, so it too stays picklable-by-name) folds the per-system
  :class:`~repro.workloads.base.WorkloadResult` s into one wide row.  The
  paper's figures are comparison scenarios: one row per size with
  ``cpu_ms`` / ``apu_opencl_ms`` / ``ccsvm_xthreads_ms`` columns.

Results come back as a typed :class:`ResultSet` — ordered row groups plus
merged stats — with ``filter`` / ``columns`` / ``to_csv`` / ``to_json`` /
``render`` instead of the loose list-of-dicts / dict-of-lists shapes the
experiments used to thread around.
"""

from __future__ import annotations

import enum
import itertools
import json
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.experiments.report import render_table, rows_to_csv
from repro.harness.spec import (
    PointResult,
    SweepPoint,
    SweepSpec,
    point_func_ref,
    resolve_point_func,
)
from repro.config import apply_overrides, override_applies
from repro.systems import get_system, overrides_applicable, system_config
from repro.workloads.base import require_verified
from repro.workloads.registry import get_variant


class ScenarioError(ReproError):
    """A scenario was declared or executed inconsistently."""


# --------------------------------------------------------------------------- #
# Point functions — module level, addressed by reference string
# --------------------------------------------------------------------------- #
def _run_one(workload: str, system: str, params: Mapping[str, object],
             overrides: Mapping[str, object], seed: Optional[int],
             config: object):
    """Run one (workload, system) cell and return its WorkloadResult."""
    preset = get_system(system)
    if config is None:
        config = system_config(system, overrides or None)
    variant = get_variant(workload, preset.variant)
    kwargs = dict(params)
    if seed is not None:
        kwargs["seed"] = seed
    return require_verified(variant.func(config, **kwargs))


def run_scenario_point(workload: str, system: str,
                       params: Dict[str, object],
                       overrides: Dict[str, object],
                       seed: Optional[int] = None,
                       config: object = None) -> PointResult:
    """Per-system scenario point: one row for one (system, grid cell)."""
    result = _run_one(workload, system, params, overrides, seed, config)
    row: Dict[str, object] = {"workload": workload, "system": system}
    row.update(params)
    row.update(time_ms=result.time_ms, dram_accesses=result.dram_accesses,
               verified=result.verified)
    return PointResult(rows=[row], stats=dict(result.counters))


def run_comparison_point(workload: str, systems: Tuple[str, ...],
                         params: Dict[str, object],
                         overrides: Dict[str, object],
                         seed: Optional[int] = None,
                         derive: Optional[str] = None,
                         configs: Optional[Dict[str, object]] = None
                         ) -> PointResult:
    """Comparison scenario point: run every system, fold into one wide row.

    ``derive`` names (``module:qualname``) a function
    ``derive(results, params) -> row`` receiving the per-system
    :class:`~repro.workloads.base.WorkloadResult` s keyed by preset name;
    without it a generic ``{params, <system>_ms, <system>_dram}`` row is
    built.  Stats merge the counters of every system's run.
    """
    results = {}
    stats: Dict[str, int] = {}
    for system in systems:
        config = (configs or {}).get(system)
        result = _run_one(workload, system, params, overrides, seed, config)
        results[system] = result
        for name, value in result.counters.items():
            stats[name] = stats.get(name, 0) + value
    if derive is not None:
        produced = resolve_point_func(derive)(results, dict(params))
        rows = [produced] if isinstance(produced, dict) else list(produced)
    else:
        row: Dict[str, object] = {"workload": workload}
        row.update(params)
        for system, result in results.items():
            row[f"{system}_ms"] = result.time_ms
            row[f"{system}_dram"] = result.dram_accesses
        rows = [row]
    return PointResult(rows=rows, stats=stats)


#: Reference strings for the two point functions (what scenario points carry).
SCENARIO_POINT = f"{run_scenario_point.__module__}:{run_scenario_point.__qualname__}"
COMPARISON_POINT = (f"{run_comparison_point.__module__}:"
                    f"{run_comparison_point.__qualname__}")

_UNSET = object()

GridLike = Mapping[str, Union[Sequence[object], object]]


def _normalise_grid(grid: Optional[GridLike]
                    ) -> "Tuple[Tuple[str, Tuple[object, ...]], ...]":
    """Normalise a grid mapping to ordered (name, values-tuple) pairs.

    Scalars become one-element axes, so ``{"size": 32}`` and
    ``{"size": (32,)}`` mean the same thing.
    """
    if not grid:
        return ()
    axes = []
    for name, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(
                values, SequenceABC):
            values = (values,)
        values = tuple(values)
        if not values:
            raise ScenarioError(f"grid axis {name!r} has no values")
        axes.append((str(name), values))
    return tuple(axes)


class Scenario:
    """A declarative (workload x systems x grid x overrides) study.

    Parameters
    ----------
    workload:
        Registry name of the workload (``repro.workloads.registry``).
    systems:
        System preset names (``repro.systems``) the workload runs on.
    grid:
        Ordered mapping ``param -> values`` swept as a cartesian product
        (in declaration order; the rightmost axis varies fastest).  Scalar
        values are one-element axes.
    params:
        Fixed workload parameters applied to every point (not part of the
        point id).
    overrides:
        Dotted-path configuration overrides (``{"mttop.count": 20}``).
        Each override is applied to every selected system whose
        configuration the full path resolves on; an override applicable to
        *no* selected system is an error, raised when points are built.
    seed:
        Workload input seed; ``None`` uses each variant's default.
    derive:
        ``module:qualname`` reference of a row-derivation function.  Its
        presence switches the scenario to *comparison* shape: one point
        per grid cell running every system (see
        :func:`run_comparison_point`).
    name:
        Sweep name used for cache subdirectories and error messages
        (default ``sweep-<workload>``).
    group:
        Output panel name for the points (multi-panel sweeps register
        several scenarios with distinct groups).
    full_grid:
        Replacement axis values used when points are built with
        ``full=True`` (the CLI's ``--full``); axes absent here keep their
        ``grid`` values.
    """

    def __init__(self, workload: str, systems: Sequence[str],
                 grid: Optional[GridLike] = None,
                 params: Optional[Mapping[str, object]] = None,
                 overrides: Optional[Mapping[str, object]] = None,
                 seed: Optional[int] = None,
                 derive: Optional[str] = None,
                 name: Optional[str] = None,
                 group: str = "rows",
                 full_grid: Optional[GridLike] = None) -> None:
        if not systems:
            raise ScenarioError("a scenario needs at least one system")
        self.workload = workload
        self.systems = tuple(systems)
        self.grid = _normalise_grid(grid)
        self.params = dict(params or {})
        self.overrides = dict(overrides or {})
        self.seed = seed
        self.derive = derive
        self.name = name if name is not None else f"sweep-{workload}"
        self.group = group
        self.full_grid = _normalise_grid(full_grid)

    # ------------------------------------------------------------------ #
    # Validation and expansion
    # ------------------------------------------------------------------ #
    def _check(self, overrides: Mapping[str, object],
               configs: Mapping[str, object]) -> None:
        factories = {}
        for system in self.systems:
            preset = get_system(system)           # raises on unknown preset
            get_variant(self.workload, preset.variant)  # and unknown variant
            factories[system] = preset.factory()
        for path, value in overrides.items():
            applied = False
            for config in factories.values():
                if override_applies(config, path):
                    # Applying once also validates the *value* (type
                    # coercion, size suffixes) so a bad --set fails here,
                    # before any backend work, not per point mid-run.
                    apply_overrides(config, {path: value})
                    applied = True
                    break
            if applied:
                continue
            # The full path resolves on no selected system.  If some
            # system at least has the path's root section, applying the
            # override there surfaces the precise field error (naming the
            # valid alternatives) upfront, instead of per-point mid-run.
            root = path.split(".", 1)[0]
            for config in factories.values():
                if override_applies(config, root):
                    apply_overrides(config, {path: value})
            raise ScenarioError(
                f"override {path!r} applies to none of the selected "
                f"systems ({', '.join(self.systems)})")
        unknown = set(configs) - set(self.systems)
        if unknown:
            raise ScenarioError(
                f"explicit configs given for unselected systems: "
                f"{', '.join(sorted(unknown))}")

    def _axes(self, full: bool, grid: Optional[GridLike]
              ) -> "Tuple[Tuple[str, Tuple[object, ...]], ...]":
        axes = self.grid
        if full and self.full_grid:
            full_axes = dict(self.full_grid)
            axes = tuple((name, full_axes.get(name, values))
                         for name, values in axes)
            axes += tuple((name, values) for name, values in self.full_grid
                          if name not in dict(self.grid))
        if grid is not None:
            replacement = _normalise_grid(grid)
            replaced = dict(replacement)
            axes = tuple((name, replaced.pop(name, values))
                         for name, values in axes)
            axes += tuple((name, values) for name, values in replacement
                          if name in replaced)
        return axes

    def points(self, full: bool = False, grid: Optional[GridLike] = None,
               params: Optional[Mapping[str, object]] = None,
               seed: object = _UNSET,
               overrides: Optional[Mapping[str, object]] = None,
               configs: Optional[Mapping[str, object]] = None
               ) -> List[SweepPoint]:
        """Expand the scenario into sweep points.

        ``grid`` / ``params`` / ``seed`` / ``overrides`` replace the
        scenario's own values per call (axes given in ``grid`` keep the
        scenario's declared axis order).  ``configs`` maps preset names to
        explicit configuration dataclasses — mainly for tests that run a
        figure on a scaled-down chip; an explicit config is used as-is
        (overrides are not applied on top) and, unlike the default
        name-only points, is carried by value in the point's kwargs.
        """
        effective_overrides = dict(self.overrides if overrides is None
                                   else overrides)
        effective_params = dict(self.params if params is None else params)
        effective_seed = self.seed if seed is _UNSET else seed
        effective_configs = {key: value
                             for key, value in (configs or {}).items()
                             if value is not None}
        self._check(effective_overrides, effective_configs)
        # Per-system points only carry the overrides that resolve on that
        # system's config: an override inapplicable to a system must not
        # perturb that system's cache keys (its results cannot depend on
        # it).  Comparison points run every system, so they keep the full
        # set.
        per_system_overrides = {
            system: {path: effective_overrides[path]
                     for path in overrides_applicable(system,
                                                      effective_overrides)}
            for system in self.systems}
        axes = self._axes(full, grid)
        names = [name for name, _ in axes]
        cells = itertools.product(*(values for _, values in axes)) \
            if axes else iter(((),))

        points = []
        for cell in cells:
            cell_params = dict(zip(names, cell))
            point_id = ",".join(f"{name}={value}"
                                for name, value in cell_params.items())
            all_params = dict(effective_params)
            all_params.update(cell_params)
            if self.derive is not None:
                kwargs: Dict[str, object] = {
                    "workload": self.workload, "systems": self.systems,
                    "params": all_params, "overrides": effective_overrides,
                    "seed": effective_seed, "derive": self.derive,
                }
                if effective_configs:
                    kwargs["configs"] = dict(effective_configs)
                points.append(SweepPoint(
                    spec=self.name, point_id=point_id or "all",
                    func=COMPARISON_POINT, kwargs=kwargs, group=self.group))
            else:
                for system in self.systems:
                    kwargs = {
                        "workload": self.workload, "system": system,
                        "params": all_params,
                        "overrides": per_system_overrides[system],
                        "seed": effective_seed,
                    }
                    if system in effective_configs:
                        kwargs["config"] = effective_configs[system]
                    sys_id = f"system={system}"
                    points.append(SweepPoint(
                        spec=self.name,
                        point_id=f"{sys_id},{point_id}" if point_id else sys_id,
                        func=SCENARIO_POINT, kwargs=kwargs, group=self.group))
        return points

    # ------------------------------------------------------------------ #
    # Execution and registration
    # ------------------------------------------------------------------ #
    def run(self, runner: Optional["SweepRunner"] = None, full: bool = False,
            jobs: int = 1, cache_dir: Optional[str] = None,
            backend: Optional[object] = None,
            **point_kwargs: object) -> "ResultSet":
        """Execute the scenario and return its :class:`ResultSet`.

        ``runner`` wins when given; otherwise a
        :class:`~repro.harness.runner.SweepRunner` is built from ``jobs``
        / ``cache_dir`` / ``backend``.  ``point_kwargs`` forward to
        :meth:`points` (``grid=``, ``seed=``, ...).
        """
        from repro.harness.runner import SweepRunner

        if runner is None:
            runner = SweepRunner(jobs=jobs, cache_dir=cache_dir,
                                 backend=backend)
        outcome = runner.run_points(self.points(full=full, **point_kwargs),
                                    spec_name=self.name)
        return ResultSet.from_outcome(outcome)

    def spec(self, title: str,
             render: Optional[Callable[[object], str]] = None) -> SweepSpec:
        """Wrap the scenario as a registrable :class:`SweepSpec`."""
        def build_points(full: bool = False, **kwargs: object):
            return self.points(full=full, **kwargs)  # type: ignore[arg-type]

        return SweepSpec(name=self.name, title=title,
                         build_points=build_points,
                         render=render if render is not None
                         else lambda result: ResultSet.from_result(result).render())


# --------------------------------------------------------------------------- #
# ResultSet
# --------------------------------------------------------------------------- #
def parse_scalar(text: str) -> object:
    """Parse one untyped cell/CLI value: int, then float, then bool, else str.

    The single scalar parser shared by :meth:`ResultSet.from_csv` and the
    ``repro sweep`` ``--grid``/``--param`` flags, so a value typed on the
    command line and the same value round-tripped through CSV parse under
    one set of rules.  Booleans accept ``true``/``false`` in any case
    (which makes the literal *strings* ``"true"``/``"True"`` unparseable
    back to strings — untyped CSV cannot distinguish them).
    """
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() == "true":
        return True
    if text.lower() == "false":
        return False
    return text


@dataclass
class ResultSet:
    """Typed sweep results: ordered row groups plus merged stats.

    ``groups`` maps panel names to row lists; single-panel sweeps use the
    one group ``"rows"``.  All transforms (:meth:`filter`,
    :meth:`columns`) preserve the grouping, so multi-panel sweeps (Figure
    8) keep their panel labels through serialisation round trips.
    """

    groups: Dict[str, List[Dict[str, object]]]
    stats: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_outcome(cls, outcome: "SweepOutcome") -> "ResultSet":
        """Build from a :class:`~repro.harness.runner.SweepOutcome`."""
        result = cls.from_result(outcome.result)
        result.stats = outcome.stats.to_dict()
        return result

    @classmethod
    def from_result(cls, result: object) -> "ResultSet":
        """Build from the legacy combined shape (row list or panel dict)."""
        if isinstance(result, list):
            return cls(groups={"rows": list(result)})
        if isinstance(result, dict):
            return cls(groups={str(group): list(rows)
                               for group, rows in result.items()})
        raise TypeError(f"cannot build a ResultSet from "
                        f"{type(result).__name__}")

    # ------------------------------------------------------------------ #
    # Access and transforms
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> List[Dict[str, object]]:
        """All rows, concatenated across groups in group order."""
        return [row for rows in self.groups.values() for row in rows]

    def __len__(self) -> int:
        return sum(len(rows) for rows in self.groups.values())

    def filter(self, predicate: Optional[Callable[[Dict[str, object]], bool]]
               = None, **equals: object) -> "ResultSet":
        """Rows matching ``predicate`` and/or column equality tests."""
        def keep(row: Dict[str, object]) -> bool:
            if predicate is not None and not predicate(row):
                return False
            return all(row.get(column) == value
                       for column, value in equals.items())

        return ResultSet(groups={group: [row for row in rows if keep(row)]
                                 for group, rows in self.groups.items()},
                         stats=dict(self.stats))

    def columns(self, *names: str) -> "ResultSet":
        """Project every row onto ``names`` (missing columns are dropped)."""
        return ResultSet(groups={group: [{name: row[name] for name in names
                                          if name in row} for row in rows]
                                 for group, rows in self.groups.items()},
                         stats=dict(self.stats))

    def column(self, name: str) -> List[object]:
        """The values of one column across all rows."""
        return [row[name] for row in self.rows if name in row]

    def sorted(self, *names: str) -> "ResultSet":
        """Rows sorted by the given columns, per group (stable).

        Missing columns sort before present ones, so heterogeneous rows
        keep a deterministic order (the DSE frontier sorts its rows by
        cost then objective this way).
        """
        def key(row: Dict[str, object]):
            return tuple((name in row, row.get(name)) for name in names)

        return ResultSet(groups={group: sorted(rows, key=key)
                                 for group, rows in self.groups.items()},
                         stats=dict(self.stats))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_csv(self, columns: Optional[Sequence[str]] = None,
               formatted: bool = False) -> str:
        """CSV text; multi-panel sets emit ``# group`` section headers.

        ``formatted=True`` applies the report renderer's human formatting
        (3-decimal floats, yes/no booleans) — what ``repro run --csv``
        emits; the default writes full-precision ``str()`` values so
        :meth:`from_csv` round-trips losslessly.
        """
        def one(rows: List[Dict[str, object]]) -> str:
            if formatted:
                return rows_to_csv(rows, columns)
            if not rows:
                return ""
            import csv
            import io
            names = list(columns) if columns is not None \
                else list(rows[0].keys())
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(names)
            for row in rows:
                writer.writerow([row.get(name, "") for name in names])
            return out.getvalue().rstrip("\n")

        if set(self.groups) == {"rows"}:
            return one(self.groups["rows"])
        parts = []
        for group, rows in self.groups.items():
            parts.append(f"# {group}")
            parts.append(one(rows))
        return "\n".join(parts)

    @classmethod
    def from_csv(cls, text: str) -> "ResultSet":
        """Parse :meth:`to_csv` output (the unformatted form) back to rows."""
        import csv as csv_module
        import io

        groups: Dict[str, List[Dict[str, object]]] = {}
        current = "rows"
        explicit = False  # current came from a "# group" header
        section: List[str] = []

        def flush() -> None:
            if not section:
                # An empty section under an explicit header is an empty
                # panel (e.g. a filter() drained it): keep its label so the
                # round trip stays lossless.  The implicit leading "rows"
                # section being empty just means the text starts with a
                # header.
                if explicit:
                    groups[current] = []
                return
            # Parse the whole section as one stream (not line by line), so
            # RFC 4180 quoted cells containing newlines survive intact.
            reader = csv_module.reader(io.StringIO("\n".join(section)))
            parsed = list(reader)
            header, body = parsed[0], parsed[1:]
            groups[current] = [
                {name: parse_scalar(cell) for name, cell in zip(header, line)}
                for line in body]

        # "# group" only delimits sections *between* records: a physical
        # line starting with "# " inside a quoted multi-line cell is data.
        # Track quote parity (doubled quotes cancel out) to know which.
        in_quotes = False
        for line in text.split("\n"):
            if not in_quotes and line.startswith("# "):
                flush()
                current = line[2:]
                explicit = True
                section = []
                continue
            if line or in_quotes:
                section.append(line)
            if line.count('"') % 2:
                in_quotes = not in_quotes
        flush()
        return cls(groups=groups)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON text: ``{"groups": {...}, "stats": {...}}``."""
        return json.dumps({"groups": self.groups, "stats": self.stats},
                          indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or "groups" not in payload:
            raise ValueError("expected a JSON object with a 'groups' key")
        return cls(groups={str(group): list(rows)
                           for group, rows in payload["groups"].items()},
                   stats=dict(payload.get("stats", {})))

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def render(self, title: Optional[str] = None,
               columns: Optional[Sequence[str]] = None) -> str:
        """Aligned text table(s); multi-panel sets render one per group."""
        if set(self.groups) == {"rows"}:
            return render_table(self.groups["rows"], columns, title=title)
        parts = []
        for group, rows in self.groups.items():
            group_title = f"{title} — {group}" if title else group
            parts.append(render_table(rows, columns, title=group_title))
        return "\n\n".join(parts)


# --------------------------------------------------------------------------- #
# Sweep-service job types
# --------------------------------------------------------------------------- #
# The typed submission/status vocabulary shared by the ``repro serve``
# server, the ``repro submit``/``status``/``result`` client CLI and the
# ``service`` execution backend — one JSON shape instead of three ad-hoc
# dict conventions.  Everything here is JSON-round-trippable: a job's
# points travel as the same base64 payloads the distributed wire protocol
# uses, with their functions forced to ``module:qualname`` *references*
# (never pickled callables).


class JobState(enum.Enum):
    """Lifecycle of a sweep-service job."""

    QUEUED = "queued"        #: accepted, no point dispatched yet
    RUNNING = "running"      #: at least one point dispatched
    DONE = "done"            #: every point completed successfully
    FAILED = "failed"        #: every point settled, at least one failed
    CANCELLED = "cancelled"  #: cancelled; undispatched points never ran

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

    @classmethod
    def from_json(cls, value: object) -> "JobState":
        try:
            return cls(str(value))
        except ValueError:
            known = ", ".join(state.value for state in cls)
            raise ValueError(
                f"unknown job state {value!r}; known states: {known}") from None


@dataclass
class JobSpec:
    """A client's submission to the sweep service: named, prioritised points.

    ``points`` entries are plain dicts ``{"spec", "point_id", "group",
    "point"}`` where ``point`` is the wire encoding of a
    :class:`~repro.harness.spec.SweepPoint` whose ``func`` is a
    ``module:qualname`` reference (build them with :meth:`from_points`).
    ``meta`` is opaque client data echoed back with results — the CLI
    stashes rendering hints (title, registered-sweep name) there.
    """

    name: str
    submitter: str
    priority: int = 0
    points: List[Dict[str, object]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def point_entry(point: SweepPoint) -> Dict[str, object]:
        """Encode one point as a job entry.

        Its function is converted to its reference string first
        (:func:`~repro.harness.spec.point_func_ref`), so no callable is
        ever pickled into a job — the server and its workers resolve the
        name by import.  Raises when the point's kwargs cannot be encoded.
        """
        from repro.harness.wire import encode_point

        by_ref = replace(point, func=point_func_ref(point))
        return {"spec": point.spec, "point_id": point.point_id,
                "group": point.group, "point": encode_point(by_ref)}

    @classmethod
    def from_points(cls, points: Sequence[SweepPoint], *, name: str,
                    submitter: str, priority: int = 0,
                    meta: Optional[Mapping[str, object]] = None) -> "JobSpec":
        """Encode ``points`` for submission (see :meth:`point_entry`).

        A point whose kwargs cannot be encoded raises here, at submission
        time.
        """
        return cls(name=name, submitter=submitter, priority=priority,
                   points=[cls.point_entry(point) for point in points],
                   meta=dict(meta or {}))

    def to_json(self) -> Dict[str, object]:
        return {"name": self.name, "submitter": self.submitter,
                "priority": self.priority, "points": list(self.points),
                "meta": dict(self.meta)}

    @classmethod
    def from_json(cls, payload: object) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError("job spec must be a JSON object")
        points = payload.get("points")
        if not isinstance(points, list):
            raise ValueError("job spec needs a 'points' list")
        for entry in points:
            if not isinstance(entry, dict) or \
                    not all(isinstance(entry.get(key), str)
                            for key in ("spec", "point_id", "point")):
                raise ValueError(
                    "each job point needs string 'spec', 'point_id' and "
                    "'point' fields")
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError("job priority must be an integer")
        meta = payload.get("meta", {})
        return cls(name=str(payload.get("name", "job")),
                   submitter=str(payload.get("submitter", "unknown")),
                   priority=priority, points=list(points),
                   meta=dict(meta) if isinstance(meta, dict) else {})


@dataclass
class JobStatus:
    """One job's externally visible progress snapshot."""

    job_id: str
    name: str
    submitter: str
    priority: int
    state: JobState
    total: int
    completed: int        #: points settled successfully
    failed: int           #: points settled as failures
    error: Optional[str] = None

    @property
    def settled(self) -> int:
        """Points that have a final outcome (success or failure)."""
        return self.completed + self.failed

    def to_json(self) -> Dict[str, object]:
        return {"job_id": self.job_id, "name": self.name,
                "submitter": self.submitter, "priority": self.priority,
                "state": self.state.value, "total": self.total,
                "completed": self.completed, "failed": self.failed,
                "error": self.error}

    @classmethod
    def from_json(cls, payload: object) -> "JobStatus":
        if not isinstance(payload, dict):
            raise ValueError("job status must be a JSON object")
        return cls(job_id=str(payload.get("job_id", "")),
                   name=str(payload.get("name", "")),
                   submitter=str(payload.get("submitter", "")),
                   priority=int(payload.get("priority", 0)),  # type: ignore[arg-type]
                   state=JobState.from_json(payload.get("state")),
                   total=int(payload.get("total", 0)),  # type: ignore[arg-type]
                   completed=int(payload.get("completed", 0)),  # type: ignore[arg-type]
                   failed=int(payload.get("failed", 0)),  # type: ignore[arg-type]
                   error=(None if payload.get("error") is None
                          else str(payload.get("error"))))


if TYPE_CHECKING:  # pragma: no cover - import-cycle-free type names
    from repro.harness.runner import SweepOutcome, SweepRunner  # noqa: F401
