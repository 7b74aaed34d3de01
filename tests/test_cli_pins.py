"""Byte pins of the command line's output.

Each case runs ``main`` in process and holds its exit code with one pin:
the sha256 of stdout when a report is written (stderr stays empty), or,
when stdout is empty, the prefix of the stderr message up to its first
colon (the messages themselves may name temporary paths).  The inputs
are the bundled fixtures and a few small files written here.
"""

import hashlib
import json

import pytest

from tropical_transient.cli import main

from conftest import fixture_path

REPORTS = [
    ("validate", "FAM"),
    ("derive", "FAM"),
    ("bound", "FAM"),
    ("bound", "FAM", "SEQ"),
    ("check", "FAM", "SEQ"),
    ("check", "FAM", "SEQ", "--lemmas"),
    ("check", "FAM", "ONE"),
    ("transient", "FAM", "--horizon", "12", "--samples", "20", "--seed", "3"),
    ("transient", "FAM", "--horizon", "6", "--mode", "exhaustive"),
    ("derive", "FAM", "--expected", "EXP"),
    ("derive", "FAM", "--expected", "SHAPES"),
    ("derive", "ACYCLIC", "--expected", "WITNESS"),
    ("bound", "FAM", "SEQ", "--expected", "EXP"),
    ("check", "FAM", "SEQ", "--expected", "EXP"),
    ("validate", "BAD"),
    ("derive", "BAD"),
    ("derive", "BAD", "--force"),
    ("derive", "BAD", "--force", "--expected", "EXP"),
    ("bound", "BAD"),
    ("bound", "BAD", "SEQ"),
    ("check", "BAD", "SEQ"),
    ("transient", "BAD", "--horizon", "5", "--samples", "10"),
]

ERRORS = [
    (),
    ("frobnicate", "FAM"),
    ("validate", "FAM", "--walrus"),
    ("transient", "FAM", "--horizon", "0"),
    ("transient", "FAM", "--horizon", "4", "--samples", "0"),
    ("transient", "FAM", "--horizon", "4", "--budget", "0"),
    ("transient", "FAM", "--horizon", "4", "--seed", "-1"),
    ("validate", "MISSING"),
    ("validate", "BROKEN"),
    ("validate", "BADTOKEN"),
    ("check", "FAM", "MISSING"),
    ("check", "FAM", "SEVEN"),
    ("bound", "FAM", "SEVEN"),
    ("derive", "FAM", "--expected", "BROKEN"),
    ("transient", "FAM", "--horizon", "20", "--mode", "exhaustive"),
    ("check", "HUGE", "THREE"),
]

# Case -> (exit code, pin).  A change that moves any of these bytes says so.
PINS = {
    "validate FAM --format json":
        (0, "a9b0e9362cafd92eafab1f8485d6277e601472d47bb6eef25013738521318f19"),
    "validate FAM --format pretty":
        (0, "d77c31bd04d423596ea3584467dd2a4b85cf8054be5c9f84e731b5afe63b7bf6"),
    "derive FAM --format json":
        (0, "66a3f4099c2b35dd30265cdaee9c17f368ef2d971fdf4776947add4169b3367e"),
    "derive FAM --format pretty":
        (0, "b4b06fdfa655112a59698d60436995d2ebbe862e3a58ab2603a40a811dfe87ab"),
    "bound FAM --format json":
        (0, "078adc2015369c4132f3fd5b34f5967b6f0e5005308306046238ee822d4c758f"),
    "bound FAM --format pretty":
        (0, "2596cd1ec277b383a20835fa6e4fd93fdbaf3403805e07332b11b482d67083e7"),
    "bound FAM SEQ --format json":
        (0, "f6f3b84c1a1a182d842540c2f1f53c5aec5f44c6bb9b0d08a67e2c65eba22eb8"),
    "bound FAM SEQ --format pretty":
        (0, "ce99da8b7ae306726cc569af257077cf81a85835cce04ff75e4cb3bb90799cd7"),
    "check FAM SEQ --format json":
        (0, "6a3b233bb9be8243e64a5f7c0f9ec4204d300335ef092978bc183a90fd4c301c"),
    "check FAM SEQ --format pretty":
        (0, "31f4788a6bb2e3e9205b489b2455979f1bcdc474639a8fe0f956114ee4f7b86d"),
    "check FAM SEQ --lemmas --format json":
        (0, "21c7d9021b90ca79ec6e68c545b3bf57d4a8121c07e3d7ae0d1c3baf261caf08"),
    "check FAM SEQ --lemmas --format pretty":
        (0, "0ba596bd00c49154d2da5e9e11e818e149db05e1d2a8752789f5fa5185093697"),
    "check FAM ONE --format json":
        (3, "a7b43c29f34c4b6e929e4ed4305850d0ec104fe167676f68c16d98cf0413b521"),
    "check FAM ONE --format pretty":
        (3, "7b6b440c61a155810dfe8a97349ea42806cf7e3b6e79a70a7d37b075dbec39eb"),
    "transient FAM --horizon 12 --samples 20 --seed 3 --format json":
        (0, "e3f3ae274d983c8935f391000029e894e7b97e10996e561e48d002514422d25b"),
    "transient FAM --horizon 12 --samples 20 --seed 3 --format pretty":
        (0, "4eed07377a5393a17b13f3a47e7557b50ceed0a5d8a074e10130215aca183394"),
    "transient FAM --horizon 6 --mode exhaustive --format json":
        (0, "f077b5823b3fe4bb84878cf7061936ad9f1dba9860043853990a60f27d027677"),
    "transient FAM --horizon 6 --mode exhaustive --format pretty":
        (0, "b32c34fbe57a4b2d102b0910d76040b9c181ba86af86c299652b1bc8b410e169"),
    "derive FAM --expected EXP --format json":
        (0, "06b1f18a456be85b0afd8b823ec19641236ed005a133231965e2291875fc673a"),
    "derive FAM --expected EXP --format pretty":
        (0, "aeb27ef2b340a459b26bcb5f3c2a2368b42c14bae353cfe811265c055905a4b8"),
    "derive FAM --expected SHAPES --format json":
        (0, "acde384754b8a3208d46b3bb4b1d38c887aea691ea0fefaae198cde8f18766f3"),
    "derive FAM --expected SHAPES --format pretty":
        (0, "dd63f3ce0f4047aecf1b31e2431e29cdc1b21fcc2f732e640c9a9381c1ee84a2"),
    "derive ACYCLIC --expected WITNESS --format json":
        (0, "cadeb8a168c1d3d1cc7266425cc3552a4868b70783e4140f3720b064e7b2f96b"),
    "derive ACYCLIC --expected WITNESS --format pretty":
        (0, "2365b6b30fd56984bc4722ea223be194ad6117b87aec0256631b8d278ecab1f0"),
    "bound FAM SEQ --expected EXP --format json":
        (0, "ba381623e5a36da135e01528d6101b3346fd49e8a84d930ed687a34dfcd01549"),
    "bound FAM SEQ --expected EXP --format pretty":
        (0, "7be8c350e3e6cdf923eacf669f24a6869418ee14e4e3ffd3b4c2be87a51139cf"),
    "check FAM SEQ --expected EXP --format json":
        (0, "a375a65ef41834ffded74447117976b1e3540d9d64dd19928d49a0ce588aa23f"),
    "check FAM SEQ --expected EXP --format pretty":
        (0, "eb60e6a29f783adc9166bdada916a5644d736796962aa1ac632e1b9400967e3d"),
    "validate BAD --format json":
        (2, "470c23579df1c50076187b10d13b38af65f8c571c807020e0ad3a635c126fd7e"),
    "validate BAD --format pretty":
        (2, "02e7e1dd3edaac3e0fd39fbd72db3f178fda6dd6760c2a492e6191305b95b168"),
    "derive BAD --format json":
        (2, "a7bdabd7da596ea3e1ea610b20ea7cabaf2d3314fd3f5de9d9f9c0090365100f"),
    "derive BAD --format pretty":
        (2, "8d7c4caaa3cfcacf74f9fd116a6e2913bf2161240c22802f8bab532aba300c07"),
    "derive BAD --force --format json":
        (0, "6f2d2162f70442c8a1ad9f1c47727cc983a26831e9fabeb677e64dd101582d47"),
    "derive BAD --force --format pretty":
        (0, "ebeab1ad578a918f29cb5c8a7fc49ec0939736daf2bbf582ff95da05a7647485"),
    "derive BAD --force --expected EXP --format json":
        (0, "bd2322996847cce07dbaf0541e77043ee2057b9d805be91e4ba0c72c0d736d1c"),
    "derive BAD --force --expected EXP --format pretty":
        (0, "8702fbcff97840fabc05bfe2c91e3f30819bf33c47bb2eb8f216d6329c8def00"),
    "bound BAD --format json":
        (2, "9ae723285eee9f52a5948b122e65147e64ad65c7c8fb07aa1f7bb59a6407012a"),
    "bound BAD --format pretty":
        (2, "77f42aed76851da2fd93ba7ae26c925450b91d13591c0e2b92edd45201010f61"),
    "bound BAD SEQ --format json":
        (2, "9ae723285eee9f52a5948b122e65147e64ad65c7c8fb07aa1f7bb59a6407012a"),
    "bound BAD SEQ --format pretty":
        (2, "77f42aed76851da2fd93ba7ae26c925450b91d13591c0e2b92edd45201010f61"),
    "check BAD SEQ --format json":
        (2, "66a3019d8044c4ebc2800cd8bdefbea33a36bb61f33947c9baa456d340d17691"),
    "check BAD SEQ --format pretty":
        (2, "cdd4420c616f60a998d8113763558e7d2a9101d62ca4e2091b47bc9d8e373624"),
    "transient BAD --horizon 5 --samples 10 --format json":
        (0, "d5423eee1735234dccc440cef5818d24ccc2dc789d2b564c9244208a6c574b07"),
    "transient BAD --horizon 5 --samples 10 --format pretty":
        (0, "a0d9955054830559ff8d82fe505c8ab585530fe226c5cdc5bdad69e62dd82a37"),
    "(no arguments)": (1, "usage error:"),
    "frobnicate FAM": (1, "usage error:"),
    "validate FAM --walrus": (1, "usage error:"),
    "transient FAM --horizon 0": (1, "usage error:"),
    "transient FAM --horizon 4 --samples 0": (1, "usage error:"),
    "transient FAM --horizon 4 --budget 0": (1, "usage error:"),
    "transient FAM --horizon 4 --seed -1": (1, "usage error:"),
    "validate MISSING": (1, "input error:"),
    "validate BROKEN": (1, "input error:"),
    "validate BADTOKEN": (1, "input error:"),
    "check FAM MISSING": (1, "input error:"),
    "check FAM SEVEN": (1, "input error:"),
    "bound FAM SEVEN": (1, "input error:"),
    "derive FAM --expected BROKEN": (1, "input error:"),
    "transient FAM --horizon 20 --mode exhaustive": (4, "budget exceeded:"),
    "check HUGE THREE": (1, "overflow:"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pins")

    def write(name, payload):
        path = tmp / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                        encoding="utf-8")
        return str(path)

    return {
        "FAM": fixture_path("five_node_family.json"),
        "SEQ": fixture_path("product_len44.json"),
        "EXP": fixture_path("expected_five_node.json"),
        "BAD": write("bad.json", {"members": [{"rows": [[0, -1], [-1, 0]]}]}),
        "ONE": write("one.json", [1]),
        "SEVEN": write("seven.json", [1, 7]),
        "THREE": write("three.json", [1, 1, 1]),
        # A vector of the wrong length, a matrix given as a vector, a
        # matrix row that is not a list, and one wrong matrix cell.
        "SHAPES": write("shapes.json", {
            "alpha": [0, -3, -6, -4],
            "gamma": [0, 0, 0, 0, 0],
            "a_sup": [[0, 2, -2, "-inf", "-inf"], -3, ["-inf", "-inf", "-inf", -2, "-inf"],
                      ["-inf", -1, "-inf", "-inf", "-inf"], [-1, "-inf", "-inf", 2, "-inf"]],
            "a_inf": [[0, -3, -4, "-inf", "-inf"], [-5, "-inf", "-inf", "-inf", -6],
                      ["-inf", "-inf", "-inf", -4, "-inf"], ["-inf", -5, "-inf", "-inf", "-inf"],
                      [-6, "-inf", "-inf", -5, "-inf"]],
        }),
        # No cycle avoids node 1: lambda* is -inf and its witness null.
        "ACYCLIC": write("acyclic.json", {"members": [{"rows": [[0, -1], [-1, "-inf"]]},
                                                      {"rows": [[0, -2], [-1, "-inf"]]}]}),
        "WITNESS": write("witness.json", {"lambda_star_witness": [2]}),
        "HUGE": write("huge.json", {"members": [{"rows": [[0, -(2**61)], [-1, -2]]}]}),
        "BROKEN": write("broken.json", "{"),
        "BADTOKEN": write("token.json", {"members": [{"rows": [[0, "x"], [-1, -2]]}]}),
        "MISSING": str(tmp / "missing.json"),
    }


def case_ids():
    for argv in REPORTS:
        for fmt in ("json", "pretty"):
            yield " ".join(argv + ("--format", fmt))
    for argv in ERRORS:
        yield " ".join(argv) or "(no arguments)"


def outcome(capsys, files, case):
    argv = [] if case == "(no arguments)" else case.split(" ")
    code = main([files.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    if out:
        assert err == ""
        return code, hashlib.sha256(out.encode("utf-8")).hexdigest()
    return code, err.partition(":")[0] + ":"


@pytest.mark.parametrize("case", list(case_ids()))
def test_output_is_pinned(capsys, files, case):
    assert outcome(capsys, files, case) == PINS[case]
