import doctest
from pathlib import Path


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert attempted > 0
    assert failed == 0
