import os
import subprocess
import sys

import pytest

import dyckmotz
from dyckmotz import (
    CacheMissError,
    MalformedBFileError,
    NetworkUnavailableError,
    bfile_url,
    oeis_fetch,
    parse_bfile,
)

SAMPLE = """# comment line
0 1
1 1

2 2
3 4
"""


def test_bfile_url():
    assert bfile_url("A001006") == "https://oeis.org/A001006/b001006.txt"
    with pytest.raises(ValueError):
        bfile_url("A1006")
    with pytest.raises(ValueError):
        bfile_url("001006")


def test_an_id_with_a_trailing_newline_is_refused(tmp_path):
    # "$" also matches before a final newline: the id must match in full
    with pytest.raises(ValueError):
        bfile_url("A000001\n")
    calls = []
    with pytest.raises(ValueError):
        oeis_fetch("A000001\n", cache_dir=str(tmp_path),
                   opener=lambda url: calls.append(url) or SAMPLE)
    assert calls == [] and list(tmp_path.iterdir()) == []  # nothing fetched or cached


def test_parse_bfile():
    assert parse_bfile(SAMPLE) == (0, [1, 1, 2, 4])
    assert parse_bfile("5 10\n6 20\n") == (5, [10, 20])
    assert parse_bfile("-1 7\n0 8\n") == (-1, [7, 8])


def test_parse_bfile_malformed():
    with pytest.raises(MalformedBFileError) as exc:
        parse_bfile("0 1\n1 2 3\n")
    assert exc.value.line_number == 2
    with pytest.raises(MalformedBFileError):
        parse_bfile("0 one\n")
    with pytest.raises(MalformedBFileError):
        parse_bfile("0 1\n2 4\n")  # index gap
    with pytest.raises(MalformedBFileError) as exc:
        parse_bfile("# only comments\n")
    assert exc.value.line_number == 0


def test_fetch_downloads_and_caches(tmp_path):
    calls = []

    def opener(url):
        calls.append(url)
        return SAMPLE

    cache = str(tmp_path / "oeis")
    got = oeis_fetch("A001006", cache_dir=cache, opener=opener)
    assert got == (0, [1, 1, 2, 4])
    assert calls == [bfile_url("A001006")]
    assert os.path.exists(os.path.join(cache, "A001006.txt"))

    # second call is served from the cache
    got2 = oeis_fetch("A001006", cache_dir=cache, opener=opener)
    assert got2 == got
    assert len(calls) == 1

    # refresh forces a new download
    oeis_fetch("A001006", cache_dir=cache, opener=opener, refresh=True)
    assert len(calls) == 2


def test_fetch_does_not_cache_malformed_bodies(tmp_path):
    cache = str(tmp_path / "oeis")
    with pytest.raises(MalformedBFileError):
        oeis_fetch("A001006", cache_dir=cache, opener=lambda url: "garbage here")
    assert not os.path.exists(os.path.join(cache, "A001006.txt"))


def test_fetch_leaves_no_cache_after_a_torn_write(tmp_path, monkeypatch):
    real_open = open

    class TornFile:
        """A write handle that writes part of its text, then fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[:len(text) // 2])
            raise OSError("no space left on device")

    def torn_open(path, mode="r", **kwargs):
        f = real_open(path, mode, **kwargs)
        return TornFile(f) if "w" in mode else f

    cache = str(tmp_path / "oeis")
    monkeypatch.setattr(dyckmotz.oeis, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        oeis_fetch("A001006", cache_dir=cache, opener=lambda url: "1 1\n2 2\n3 12345\n")
    monkeypatch.undo()
    with pytest.raises(CacheMissError):
        oeis_fetch("A001006", cache_dir=cache, offline=True)
    assert os.listdir(cache) == []


def test_fetch_offline(tmp_path):
    cache = str(tmp_path / "oeis")
    with pytest.raises(CacheMissError):
        oeis_fetch("A001006", cache_dir=cache, offline=True)
    embedded = {"A001006": (0, [1, 1, 2, 4, 9])}
    assert oeis_fetch("A001006", cache_dir=cache, offline=True,
                      embedded=embedded) == (0, [1, 1, 2, 4, 9])
    # a cached file wins over embedded data
    os.makedirs(cache)
    with open(os.path.join(cache, "A001006.txt"), "w") as f:
        f.write("3 30\n4 40\n")
    assert oeis_fetch("A001006", cache_dir=cache, offline=True,
                      embedded=embedded) == (3, [30, 40])


def test_fetch_rejects_bad_ids():
    with pytest.raises(ValueError):
        oeis_fetch("b001006", offline=True, embedded={})


def test_network_error_wrapping():
    def opener(url):
        raise NetworkUnavailableError("no route")

    with pytest.raises(NetworkUnavailableError):
        oeis_fetch("A001006", opener=opener)


def test_import_leaves_urllib_request_unloaded():
    # only a download needs it, and it is about a third of the import time
    src = os.path.dirname(os.path.dirname(dyckmotz.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dyckmotz; print('urllib.request' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"
