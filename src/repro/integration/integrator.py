"""Automated integration of generated faults into target codebases.

The integrator takes a generated fault — either a module-level patch produced
by the grammar / injection operators, or a bare faulty function snippet — and
produces the module source that will actually run in the sandbox.  Splicing a
bare snippet into the pristine module is what the paper calls "seamlessly
incorporat[ing] the generated fault into the designated area of the
application's codebase".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IntegrationError
from ..injection import ast_utils
from ..injection.operators import AppliedFault
from ..targets import TargetSystem
from ..types import GeneratedFault, Patch
from .workspace import Workspace, WorkspaceManager


@dataclass
class IntegratedFault:
    """A fault that has been installed into a concrete module source."""

    fault_id: str
    target_name: str
    module_source: str
    original_source: str
    patch: Patch
    workspace: Workspace | None = None

    @property
    def diff(self) -> str:
        return self.patch.diff


class FaultIntegrator:
    """Installs generated or operator-applied faults into target modules."""

    def __init__(self, workspaces: WorkspaceManager | None = None) -> None:
        self._workspaces = workspaces

    def integrate_generated(self, target: TargetSystem, fault: GeneratedFault) -> IntegratedFault:
        """Integrate an LLM-generated fault into ``target``'s module source."""
        original = target.build_source()
        if fault.patch is not None and fault.patch.original.strip() == original.strip():
            mutated, parses = fault.patch.mutated, False
        else:
            edit = self._splice_snippet(original, fault)
            mutated, parses = edit.module, edit.spliced
        patch = Patch(
            original=original,
            mutated=mutated,
            target_path=f"{target.name}.py",
            function=fault.spec.target.function,
            operator=fault.metadata.get("operator") if fault.metadata else None,
        )
        return self._finalise(fault.fault_id, target, original, mutated, patch, parses)

    def integrate_applied(self, target: TargetSystem, applied: AppliedFault) -> IntegratedFault:
        """Integrate a fault produced directly by the injection substrate."""
        original = target.build_source()
        if applied.patch.original.strip() != original.strip():
            raise IntegrationError(
                f"applied fault was generated against different source than target {target.name!r}"
            )
        patch = Patch(
            original=original,
            mutated=applied.patch.mutated,
            target_path=f"{target.name}.py",
            function=applied.point.qualified_function,
            lineno=applied.point.lineno,
            operator=applied.operator,
        )
        fault_id = f"{applied.operator}@{applied.point.qualified_function}:{applied.point.lineno}"
        return self._finalise(fault_id, target, original, applied.patch.mutated, patch, applied.edit.spliced)

    # -- helpers -----------------------------------------------------------------

    def _splice_snippet(self, original: str, fault: GeneratedFault) -> ast_utils.FunctionEdit:
        """Replace the targeted function in the pristine module with the snippet."""
        function_name = fault.spec.target.function
        if not function_name:
            raise IntegrationError(
                "generated fault has no target function and no module-level patch to integrate"
            )
        try:
            return ast_utils.replace_function_source(original, function_name, fault.code)
        except Exception as exc:
            raise IntegrationError(
                f"could not splice generated code into function {function_name!r}: {exc}"
            ) from exc

    def _finalise(
        self,
        fault_id: str,
        target: TargetSystem,
        original: str,
        mutated: str,
        patch: Patch,
        parses: bool,
    ) -> IntegratedFault:
        """Package ``mutated``, first checking it parses unless its splice already showed that."""
        if not parses:
            ast_utils.parse_module(mutated, path=f"{target.name}.py", mutable=False)
        workspace = None
        if self._workspaces is not None:
            workspace = self._workspaces.create(label=f"{target.name}-{fault_id[:12]}", source=mutated)
            workspace.metadata["fault_id"] = fault_id
        return IntegratedFault(
            fault_id=fault_id,
            target_name=target.name,
            module_source=mutated,
            original_source=original,
            patch=patch,
            workspace=workspace,
        )
