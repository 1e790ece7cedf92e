"""The result-cache salt is a digest of the ``repro`` source.

:data:`repro.exec.job.CODE_SALT` folds every ``.py`` file's path and
sha256, so a cache entry written by different source code is a miss.
"""

import shutil
from pathlib import Path

import repro
from repro.exec.job import CODE_SALT, source_salt


def _copy_package(tmp_path: Path) -> Path:
    root = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return root


def test_salt_is_the_digest_of_the_package_source(tmp_path):
    assert source_salt(_copy_package(tmp_path)) == CODE_SALT


def test_one_comment_line_changes_the_salt(tmp_path):
    root = _copy_package(tmp_path)
    with open(root / "accesscore" / "adaptive.py", "a") as f:
        f.write("# one more line\n")
    assert source_salt(root) != CODE_SALT


def test_a_new_source_file_changes_the_salt(tmp_path):
    root = _copy_package(tmp_path)
    (root / "extra.py").write_text("")
    assert source_salt(root) != CODE_SALT
