"""Composition paths.

"Composition paths are used to select the elementary services that are
incorporated within the families of services … according to a predefined
path (extraction, coding and transferring infrastructure for video
service)" [Hong01].  A :class:`PathFamily` declares the stages of a
service and the alternative elementary services available per stage; the
:class:`PathPlanner` selects the best feasible path for the current
execution context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import PathError


@dataclass(frozen=True)
class ServiceOption:
    """One elementary service usable at one stage.

    Attributes:
        name: unique option name.
        stage: the stage this option implements.
        fn: the service body, ``fn(value) -> value``.
        input_format / output_format: adjacent options must agree on the
            data format flowing between them ("*" matches anything).
        latency: processing cost (adds to the path cost).
        quality: user-perceived quality (higher is better).
        bandwidth_required: minimum link bandwidth this option needs.
    """

    name: str
    stage: str
    fn: Callable[[Any], Any]
    input_format: str = "*"
    output_format: str = "*"
    latency: float = 1.0
    quality: float = 1.0
    bandwidth_required: float = 0.0

    def feasible(self, context: Mapping[str, float]) -> bool:
        available = context.get("bandwidth", float("inf"))
        return self.bandwidth_required <= available

    def compatible_after(self, previous: "ServiceOption") -> bool:
        return (
            previous.output_format == "*"
            or self.input_format == "*"
            or previous.output_format == self.input_format
        )


@dataclass
class CompositionPath:
    """A selected chain of service options — one per stage."""

    options: list[ServiceOption]

    @property
    def names(self) -> list[str]:
        return [option.name for option in self.options]

    @property
    def total_latency(self) -> float:
        return sum(option.latency for option in self.options)

    @property
    def total_quality(self) -> float:
        if not self.options:
            return 0.0
        return min(option.quality for option in self.options)

    def execute(self, value: Any) -> Any:
        """Run the value through every stage in order."""
        for option in self.options:
            value = option.fn(value)
        return value


class PathFamily:
    """The service family: ordered stages and their alternatives."""

    def __init__(self, name: str, stages: list[str]) -> None:
        if not stages:
            raise PathError(f"path family {name!r} needs at least one stage")
        if len(set(stages)) != len(stages):
            raise PathError(f"path family {name!r} has duplicate stages")
        self.name = name
        self.stages = list(stages)
        self._options: dict[str, list[ServiceOption]] = {s: [] for s in stages}

    def add_option(self, option: ServiceOption) -> "PathFamily":
        if option.stage not in self._options:
            raise PathError(
                f"option {option.name!r} targets unknown stage "
                f"{option.stage!r} of family {self.name!r}"
            )
        if any(o.name == option.name for opts in self._options.values()
               for o in opts):
            raise PathError(f"duplicate option name {option.name!r}")
        self._options[option.stage].append(option)
        return self

    def options_for(self, stage: str) -> list[ServiceOption]:
        try:
            return list(self._options[stage])
        except KeyError:
            raise PathError(
                f"family {self.name!r} has no stage {stage!r}"
            ) from None

    def all_paths(self, context: Mapping[str, float] | None = None
                  ) -> list[CompositionPath]:
        """Enumerate every feasible, format-compatible path (exponential;
        for tests and small families)."""
        context = context or {}
        partials: list[list[ServiceOption]] = [[]]
        for stage in self.stages:
            extended: list[list[ServiceOption]] = []
            for partial in partials:
                for option in self._options[stage]:
                    if not option.feasible(context):
                        continue
                    if partial and not option.compatible_after(partial[-1]):
                        continue
                    extended.append(partial + [option])
            partials = extended
        return [CompositionPath(p) for p in partials]


class PathPlanner:
    """Selects the best feasible path by dynamic programming over stages.

    Cost per option: ``latency - quality_weight * quality``; the planner
    walks the stage-layered DAG (edges only between format-compatible
    options) keeping the cheapest path into each option — polynomial,
    unlike naive enumeration.  Equal costs go to the path whose options
    come first in declaration order, the one :meth:`PathFamily.all_paths`
    lists first.
    """

    def __init__(self, family: PathFamily, quality_weight: float = 0.0) -> None:
        self.family = family
        self.quality_weight = quality_weight
        self.plan_count = 0

    def _option_cost(self, option: ServiceOption) -> float:
        return option.latency - self.quality_weight * option.quality

    def plan(self, context: Mapping[str, float] | None = None) -> CompositionPath:
        """Return the minimum-cost feasible path for ``context``.

        Raises :class:`PathError` when no stage-complete path exists.
        """
        context = context or {}
        self.plan_count += 1
        # The cheapest path into each option of the latest stage, as
        # (cost, option positions, options).
        best: list[tuple[float, tuple[int, ...], list[ServiceOption]]] = [
            (0.0, (), [])
        ]
        for stage in self.family.stages:
            layer = [
                (position, option)
                for position, option in enumerate(self.family.options_for(stage))
                if option.feasible(context)
            ]
            if not layer:
                raise PathError(
                    f"no feasible option for stage {stage!r} of family "
                    f"{self.family.name!r} under context {dict(context)}"
                )
            reached = []
            for position, option in layer:
                cost = self._option_cost(option)
                candidates = [
                    (total + cost, rank + (position,), chosen + [option])
                    for total, rank, chosen in best
                    if not chosen or option.compatible_after(chosen[-1])
                ]
                if candidates:
                    reached.append(min(candidates, key=lambda c: c[:2]))
            best = reached
        if not best:
            raise PathError(
                f"stage options of family {self.family.name!r} are "
                f"format-incompatible under context {dict(context)}"
            )
        return CompositionPath(min(best, key=lambda c: c[:2])[2])
