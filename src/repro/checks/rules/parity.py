"""Engine-parity rule: the planner's vector-eligibility set cannot drift.

The runner's shape-bucketing planner pre-screens grid points with
``_VECTOR_FAMILIES`` (:mod:`repro.analysis.runner`) before handing them to
the vector kernel, while the kernel's own coverage is defined by the
``type(policy) is <Class>`` dispatch in ``_resolve_plan``
(:mod:`repro.disksim.vector`).  If the two sets drift — a family added to
the kernel but not the planner — the engine silently stops batching that
family (a pure performance regression no equivalence test catches); drift
the other way sends ineligible points into per-pair fallback churn.  This
rule extracts both sets from the ASTs and fails when they disagree, so the
invariant holds before anything runs.

Kernel classes are named by family through the ``_def(name, summary,
Factory, ...)`` registrations of ``algorithms/registry.py``; a class the
registry does not register (an eviction backend such as ``BeladyMIN``) is a
plan detail, not a family.  Without the registry in the scan, lower-cased
class names stand in for family names.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from ..astutil import dotted_name
from ..base import ModuleUnderCheck, ProjectChecker, register_checker
from ..findings import Finding

__all__ = ["EngineParityChecker"]

_RUNNER = "analysis/runner.py"
_VECTOR = "disksim/vector.py"
_REGISTRY = "algorithms/registry.py"


def _planner_families(module: ModuleUnderCheck) -> Optional[Tuple[int, Set[str]]]:
    """``(line, families)`` of the runner's ``_VECTOR_FAMILIES`` literal."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "_VECTOR_FAMILIES" not in targets:
                continue
            value = node.value
            if isinstance(value, ast.Call) and dotted_name(value.func) in (
                "frozenset",
                "set",
            ):
                value = value.args[0] if value.args else value
            if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                families = {
                    elt.value
                    for elt in value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                }
                return node.lineno, families
    return None


def _registered_families(module: ModuleUnderCheck) -> Dict[str, str]:
    """Factory class name -> family name of each ``_def(name, summary, Factory)``."""
    families: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and dotted_name(node.func) == "_def"):
            continue
        if len(node.args) < 3 or not isinstance(node.args[0], ast.Constant):
            continue
        factory = dotted_name(node.args[2])
        if factory is not None and isinstance(node.args[0].value, str):
            families[factory.split(".")[-1]] = node.args[0].value
    return families


def _kernel_classes(module: ModuleUnderCheck) -> Optional[Tuple[int, Set[str]]]:
    """``(line, class names)`` the kernel's ``_resolve_plan`` dispatches on.

    The classes appearing in ``type(...) is <Class>`` comparisons — the
    exact-type dispatch the kernel documents (subclasses fall back to the
    loop engine).
    """
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "_resolve_plan"):
            continue
        classes: Set[str] = set()
        for compare in ast.walk(node):
            if not isinstance(compare, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Is, ast.Eq)) for op in compare.ops):
                continue
            operands = [compare.left, *compare.comparators]
            involves_type_call = any(
                isinstance(o, ast.Call) and dotted_name(o.func) == "type"
                for o in operands
            )
            if not involves_type_call:
                continue
            for operand in operands:
                name = dotted_name(operand)
                if name is not None:
                    classes.add(name.split(".")[-1])
        return node.lineno, classes
    return None


@register_checker
class EngineParityChecker(ProjectChecker):
    """Planner vector-eligibility and kernel coverage must agree exactly."""

    rule_id = "engine-parity"
    description = (
        "the algorithm families runner._VECTOR_FAMILIES declares must equal "
        "the families disksim.vector._resolve_plan dispatches on"
    )
    scope = (_RUNNER, _VECTOR, _REGISTRY)

    def check_project(
        self, modules: Sequence[ModuleUnderCheck]
    ) -> Iterator[Finding]:
        """Compare the two statically-extracted family sets."""
        by_path = {m.pkgpath: m for m in modules}
        runner = by_path.get(_RUNNER)
        vector = by_path.get(_VECTOR)
        if runner is None or vector is None:
            return  # partial scan: the invariant spans both files
        planner = _planner_families(runner)
        if planner is None:
            yield Finding(
                path=_RUNNER,
                line=1,
                rule=self.rule_id,
                message="cannot find the _VECTOR_FAMILIES frozenset literal the "
                "engine-parity invariant is anchored on",
            )
            return
        kernel = _kernel_classes(vector)
        if kernel is None:
            yield Finding(
                path=_VECTOR,
                line=1,
                rule=self.rule_id,
                message="cannot find the _resolve_plan type-dispatch the "
                "engine-parity invariant is anchored on",
            )
            return
        planner_line, planner_set = planner
        _kernel_line, kernel_classes = kernel
        registry = by_path.get(_REGISTRY)
        if registry is None:
            kernel_set = {name.lower() for name in kernel_classes}
        else:
            registered = _registered_families(registry)
            kernel_set = {registered[c] for c in kernel_classes if c in registered}
        if planner_set != kernel_set:
            missing = sorted(kernel_set - planner_set)
            extra = sorted(planner_set - kernel_set)
            detail = []
            if missing:
                detail.append(
                    f"kernel covers {', '.join(missing)} but the planner never "
                    "batches them"
                )
            if extra:
                detail.append(
                    f"planner marks {', '.join(extra)} eligible but the kernel "
                    "cannot run them"
                )
            yield Finding(
                path=_RUNNER,
                line=planner_line,
                rule=self.rule_id,
                message="_VECTOR_FAMILIES disagrees with disksim/vector.py "
                f"_resolve_plan: {'; '.join(detail)}",
            )
