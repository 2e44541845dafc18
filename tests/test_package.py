"""The package's names: every one `__all__` lists resolves, and the
metadata's are served from `omexarchive.metadata`, imported on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import omexarchive
import omexarchive.metadata


def test_every_listed_name_resolves():
    for name in omexarchive.__all__:
        assert getattr(omexarchive, name) is not None, name
    assert omexarchive.parse_metadata is omexarchive.metadata.parse_metadata
    assert omexarchive.MetadataSet is omexarchive.metadata.MetadataSet


def test_a_star_import_binds_every_listed_name():
    namespace = {}
    exec("from omexarchive import *", namespace)
    assert set(omexarchive.__all__) <= namespace.keys()
    assert namespace["Timestamp"] is omexarchive.metadata.Timestamp


def test_dir_lists_every_listed_name():
    assert set(omexarchive.__all__) <= set(dir(omexarchive))
    assert {"archive", "manifest", "__version__"} <= set(dir(omexarchive))


def test_the_metadata_module_imports_from_the_package():
    from omexarchive import metadata

    assert metadata is omexarchive.metadata


@pytest.mark.parametrize("name", ["no_such_name", "_private", "dataclass"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(omexarchive, name)
    assert not hasattr(omexarchive, name)


def test_a_metadata_name_imports_the_metadata_module_when_first_used():
    code = """if True:
        import sys
        import omexarchive
        before = "omexarchive.metadata" in sys.modules
        from omexarchive import Creator, check_minimum_information
        after = "omexarchive.metadata" in sys.modules
        print(before, after, Creator.__module__, check_minimum_information.__module__)
    """
    src = Path(omexarchive.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert result.stdout.split() == ["False", "True", "omexarchive.metadata",
                                     "omexarchive.metadata"]
