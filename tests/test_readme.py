"""Every python block of README.md runs as written, so the documented calls
cannot drift from the code."""

import re
from pathlib import Path

import pytest

from conmet import systems

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_the_library_and_registration_examples():
    assert len(BLOCKS) >= 2
    assert any("conmet.solve(" in block for block in BLOCKS)
    assert any("conmet.register_system(" in block for block in BLOCKS)


@pytest.mark.parametrize("index", range(len(BLOCKS)), ids=lambda i: f"block-{i + 1}")
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    # in a temporary directory, with the registry restored afterwards
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(systems, "_REGISTRY", dict(systems._REGISTRY))
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
