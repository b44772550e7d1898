"""The byte-identity gates: the toy grid's outputs and the analyzer's token
streams hash to their recorded digests (see the two scripts under scripts/).

A change that alters either on purpose records the new digest here and says
why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

TOY_GRID_DIGEST = "b9906ff8ac4c22b705a4923190440e3ce0ccba9e25438004f407f17c6b1f2edb"
ANALYZER_DIGEST = "851c0b4e3bdcc6f4cc8c838b5182198c81a32d5d62f7874dfbfafa8563aefcd6"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_toy_grid_digest(tmp_path):
    assert _script("toy_grid_digest").grid_digest(tmp_path) == TOY_GRID_DIGEST


def test_analyzer_digest():
    assert _script("analyzer_digest").analyzer_digest() == ANALYZER_DIGEST
