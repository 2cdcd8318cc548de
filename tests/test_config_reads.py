"""Every `SolverConfig` field is a live knob: some code in the package reads
it as `cfg.<field>`, `<x>.cfg.<field>` or `<x>.config.<field>` outside
`validate_config`, which checks every field whether anything else reads it
or not. A field that nobody reads fails here instead of lingering as a CLI
flag."""

import ast
import dataclasses
from pathlib import Path

import qnpe
from qnpe.core import SolverConfig

PACKAGE = Path(qnpe.__file__).parent

#: functions whose reads do not count
EXEMPT = {"validate_config"}


def _is_config(node: ast.expr) -> bool:
    """`cfg`, or an attribute named `cfg` or `config` of anything."""
    if isinstance(node, ast.Name):
        return node.id == "cfg"
    return isinstance(node, ast.Attribute) and node.attr in ("cfg", "config")


def config_reads(source: str) -> set:
    """Attribute names read off a config in `source`, outside `EXEMPT`."""
    reads = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in EXEMPT:
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_config(node.value)
        ):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return reads


def test_every_config_field_is_read():
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        reads |= config_reads(path.read_text())
    unread = [f.name for f in dataclasses.fields(SolverConfig) if f.name not in reads]
    assert not unread, f"SolverConfig fields that no code reads: {unread}"


def test_scan_skips_the_validator_and_the_kv_functions():
    source = (
        "def validate_config(cfg, obj):\n"
        "    return cfg.rho\n"
        "def step(cfg, run):\n"
        "    cfg.alpha1 = 0.0\n"
        "    return cfg.seed + run.config.p + self.cfg.b0 + other.beta\n"
    )
    assert config_reads(source) == {"seed", "p", "b0"}
