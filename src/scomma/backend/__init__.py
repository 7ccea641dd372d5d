"""Data-driven code generation: descriptors, rewrite rules, emission."""

from .descriptor import BackendDescriptor, parse_descriptor
from .engine import (
    apply_rewrites,
    compile_to_target,
    constructs_present,
    emit,
    find_target,
    list_targets,
)
from .rules import REGISTRY, rule_named

__all__ = [
    "BackendDescriptor",
    "parse_descriptor",
    "apply_rewrites",
    "compile_to_target",
    "constructs_present",
    "emit",
    "find_target",
    "list_targets",
    "REGISTRY",
    "rule_named",
]
