"""Builtin fixture projects: small preprojective algebras with named modules.

Tags:
  semi     one vertex, no arrows; the semisimple degenerate case
  pa2      preprojective algebra of A2 over F_5, generator P1 + P2 + S1
  pa2-deg  same algebra, generator P1 + P2 (everything becomes trivial)
  pa3      preprojective algebra of A3 over F_2, generator P1 + P2 + P3
  aus2     Auslander algebra of kA2 (linear A3, 1 -> 2 -> 3 with ab = 0) over
           F_5, generator P1 + P2 + P3 + S1, exact mode: not self-injective
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

from .errors import InputError
from .exact_linalg import prime_field
from .algebra_repr import Algebra, Module, preprojective

FIXTURE_TAGS = ("semi", "pa2", "pa2-deg", "pa3", "aus2")


def build_fixture(tag: str) -> Tuple[Algebra, Dict[str, Module], dict]:
    """The fixture's algebra, named modules, and project configuration."""
    if tag == "semi":
        alg = Algebra(prime_field(5), ["1"], [], [])
        modules = {"S1": alg.simple("1")}
        project = {"M_gen": ["S1"], "mode": "frobenius"}
    elif tag in ("pa2", "pa2-deg"):
        alg = preprojective(2, prime_field(5))
        modules = {
            "S1": alg.simple("1"),
            "S2": alg.simple("2"),
            "P1": alg.projective("1"),
            "P2": alg.projective("2"),
        }
        gens = ["P1", "P2", "S1"] if tag == "pa2" else ["P1", "P2"]
        project = {"M_gen": gens, "mode": "frobenius"}
    elif tag == "pa3":
        alg = preprojective(3, prime_field(2))
        modules = {}
        for v in alg.vertices:
            modules[f"S{v}"] = alg.simple(v)
            modules[f"P{v}"] = alg.projective(v)
        project = {"M_gen": ["P1", "P2", "P3"], "mode": "frobenius"}
    elif tag == "aus2":
        alg = Algebra(prime_field(5), ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")],
                      [[("1", ("a", "b"))]])
        modules = {f"S{v}": alg.simple(v) for v in alg.vertices}
        modules.update({f"P{v}": alg.projective(v) for v in alg.vertices})
        project = {"M_gen": ["P1", "P2", "P3", "S1"], "mode": "exact"}
    else:
        raise InputError(f"unknown fixture tag {tag!r}; known: {', '.join(FIXTURE_TAGS)}")
    project["options"] = {"seed": 42, "samples": 200}
    return alg, modules, project


def emit_fixture(tag: str, dest: str) -> Path:
    """Write algebra, module, and project files for the tag into dest."""
    alg, modules, project = build_fixture(tag)
    root = Path(dest)
    try:
        root.mkdir(parents=True, exist_ok=True)
        (root / "algebra.json").write_text(json.dumps(alg.to_dict(), indent=2, sort_keys=True))
        module_files = {}
        for name, mod in modules.items():
            fname = f"{name}.json"
            (root / fname).write_text(json.dumps(mod.to_dict(), indent=2, sort_keys=True))
            module_files[name] = fname
        config = {
            "algebra": "algebra.json",
            "modules": module_files,
            "M_gen": project["M_gen"],
            "mode": project["mode"],
            "options": project["options"],
        }
        (root / "project.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    except OSError as e:
        raise InputError(f"destination not writable: {e}") from e
    return root
