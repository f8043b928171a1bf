"""Golden report bodies: for each command line, the exit code, the SHA-256
of stdout with the runtime value blanked, and stderr.

A refactor must leave every report byte, exit code and message as it was;
any difference fails here.  Each command runs in a fresh working directory
holding the b-files below, so paths in the report header are relative.
"""

import hashlib
import re

import pytest

from psirh.cli import main

BFILES = {
    # a(61) lies beyond the 37 terms of S below 10^5
    "late.txt": "61 5615610\n",
    # the last two terms of S below 10^41, then one index past them
    "edge.txt": "1239 71954470586775684518119564916076775188630\n"
                "1240 95939294115700912690826086554769033584840\n"
                "1241 0\n",
    "sa.txt": "1 1\n2 2\n3 4\n4 6\n5 12\n",
}

# name -> (argv, exit code, sha256 of the normalized stdout, stderr)
GOLDEN = {
    "scan f": (["scan", "--criterion", "f", "--hi", "100000"],
        0, "761cc8bc38f119d7e0200f0821d317f86fe13a54b1771321294e5df214248d57",
        ""),
    "scan g": (["scan", "--criterion", "g", "--hi", "100000"],
        0, "f804fff15f3b569515766e3a672ff9cba9cfcff8849a3c88685c577d16cd7dc1",
        ""),
    "scan g json": (["--format", "json", "scan", "--criterion", "g", "--hi", "100000"],
        0, "5806efc79edbbd07d99680014f5c5ec45bd1b3e523f0082368539471172a4946",
        ""),
    "champions": (["champions", "--limit", "10000"],
        0, "e7a416cf61840edfd65417d42368942b35a4cc54b1abffa3d8168be125b96c84",
        ""),
    "champions md": (["--format", "md", "champions", "--limit", "10000"],
        0, "982e8589342029974eb93ef13bd2eda8ab3f34ae325cc85a2734b81601c56dfd",
        ""),
    "superabundant": (["superabundant", "--limit", "100000"],
        0, "0efe44e17f02e70ee7f4653c26b47a31f247e202234b69a8eeff32825113ece8",
        ""),
    "props": (["props"],
        0, "01f3d4b03b5a2d3163d6f9639c19e14ecb5d57680d5d59326c70a90b2dcf1cba",
        ""),
    "table2": (["table2"],
        0, "7cc43557fa8a1a27b946f7e7dfa65d54c2f25c823fc314ae791e93769794eef2",
        ""),
    "mertens": (["mertens"],
        0, "334ed7fe7ddfa82838b280c1c5f248b6593d8e205f326cc152cb16f69cb8000e",
        ""),
    "mertens domain": (["mertens", "--indices", "1,10"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: domain error: mertens ratio defined for n >= 2\n"),
    "bounds": (["bounds", "--hi", "3000", "--sigma-hi", "10000"],
        0, "86493965eaedc49ca1ef9817ef13ca1fd28361e27771aaae796ad087c16bdc22",
        ""),
    "bounds below 20000": (["bounds", "--lo", "100"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: domain error: bound is only claimed for p_n >= 20000; "
        "p_100 = 541\n"),
    "bounds lo 0": (["bounds", "--lo", "0"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: domain error: prime index must be >= 1\n"),
    "bounds lo -5": (["bounds", "--lo", "-5"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: domain error: prime index must be >= 1\n"),
    "bounds default lo above hi": (["bounds", "--hi", "100"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: domain error: empty index range [2263, 100]\n"),
    "bounds empty": (["bounds", "--lo", "3000", "--hi", "2999"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: domain error: empty index range [3000, 2999]\n"),
    "bounds ceiling": (["bounds", "--hi", "10500001"],
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "psirh: resource limit: last=10500001 exceeds index ceiling\n"),
    "oeis S late": (["oeis-check", "--bfile", "late.txt", "--sequence", "A060735", "--count", "1"],
        0, "da25159fdd9efb9a43916bde6824b961e755a914153db19792e3570e137ee02f",
        ""),
    "oeis S past end": (["oeis-check", "--bfile", "edge.txt", "--sequence", "A060735", "--count", "3"],
        0, "3d535d86e645530839b9aeb73f0bea2bcadbbaf3c7d44284f12dea67ffd6cff4",
        ""),
    "oeis SA": (["oeis-check", "--bfile", "sa.txt", "--sequence", "A004394", "--count", "5"],
        0, "47f2b75929dfbe3677a7fe5950157e8c5a9965d3b0ff377dc5fe3e07c4780c86",
        ""),
}


def normalize(out):
    """stdout with the value of every runtime_s field blanked (CSV, JSON
    and Markdown)."""
    return re.sub(r"(runtime_s\W+)[0-9.e+-]+", r"\1", out)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, digest(normalize(captured.out).encode()), captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in BFILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_body(name, workdir, capsys):
    argv, code, sha, err = GOLDEN[name]
    assert run(capsys, argv) == (code, sha, err)


# cold run, warm run, and the cache file after each
TABLE1_GOLDEN = (
    (0, "db1f015367abeb32c7b1a19a56e3f336f57f5d2caf72824e48dbbce89f3f785f", ""),
    "e4b84d75acce60b258035e12481e8818f34047245393968d076563f24632a67e",
    (0, "db1f015367abeb32c7b1a19a56e3f336f57f5d2caf72824e48dbbce89f3f785f", ""),
    "e4b84d75acce60b258035e12481e8818f34047245393968d076563f24632a67e",
)


def test_table1_cold_and_warm(workdir, capsys):
    argv = ["table1", "--indices", "10,1000", "--cache", "theta.cache"]
    got = []
    for _ in range(2):
        got.append(run(capsys, argv))
        got.append(digest((workdir / "theta.cache").read_bytes()))
    assert tuple(got) == TABLE1_GOLDEN
