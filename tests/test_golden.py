"""Golden bytes: the sha256 of every file each command writes, and of
what it prints, for small runs of every command.

A refactor that must keep outputs bit-identical keeps these digests.
The ``cpu_seconds`` column of the tables and every printed line that
reports seconds are cut first, since they time the run; the output
directory is written as ``OUT``. The digests were recorded with numpy
2.4.6; a numpy whose Philox normals or printed floats differ changes them.
"""

import hashlib
import re

import pytest

from milsde.cli import main

_TABLE = ["--h-max", "2^-6..2^-4", "--rho", "8", "--reference-exponent", "8",
          "--fine-exponent", "12", "--schemes", "adaptive,milstein,tamed,euler"]

RUNS = {
    "convergence_m1": ["convergence", "--problem", "scalar_mult", "--paths", "6"] + _TABLE,
    "convergence_m2": ["convergence", "--problem", "twod_noncommutative", "--paths", "6"]
    + _TABLE,
    "convergence_m2_workers": ["convergence", "--problem", "twod_noncommutative",
                               "--paths", "7", "--workers", "2"] + _TABLE,
    "efficiency_m2": ["efficiency", "--problem", "twod_commutative", "--paths", "4"] + _TABLE,
    "backstop": ["backstop-prob", "--paths", "24", "--fine-exponent", "14"],
    "single_adaptive": ["single-path", "--problem", "twod_noncommutative",
                        "--fine-exponent", "12", "--h-max", "2^-6", "--rho", "8"],
    "single_milstein": ["single-path", "--problem", "twod_noncommutative",
                        "--fine-exponent", "12", "--scheme", "milstein", "--h-max", "2^-6"],
    # k = 192 fine steps: 4096 / 192 is not whole, so the last window is shorter.
    "single_milstein_short_last": ["single-path", "--problem", "twod_noncommutative",
                                   "--fine-exponent", "12", "--scheme", "milstein",
                                   "--h-max", "0.046875"],
    "moments": ["moments-check", "--samples", "500", "--fine-exponent", "8",
                "--order", "1,2,3,4,8"],
}

#: Exit code and digests of each run. The moments run exits 1: at 500
#: samples its order 4 misses the 4-standard-error band (see README).
GOLDEN = {
    "backstop": {
        "exit": 0,
        "stdout": "f7be628b4f9781f9ea94e8cbbc8955080423b28d018f3d78819c3ad171e8df98",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "backstop_h_profile.csv": "58909b81072ab8bcdd91581f0dbc2303dbe8c59e9fed3e7c1c9bf85038e12ff0",
        "backstop_prob.csv": "eee9d95b6239389f2c495df8cfb7029d8fff8bb44c0cfb333ba95a36d28a034b",
        "backstop_prob_config.txt": "6e39c84aff9709faf85d91d293a3e3cf55d9e65cae4f38081ee2691d28eb2c1b",
    },
    "convergence_m1": {
        "exit": 0,
        "stdout": "a2fb6ac824e3df0c67dc1fb9c7d151caa84fc51d259c1a782c75b6c0ae431482",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "convergence.csv": "019c934a807726f0d60d308c20afd818ef32b080da4bd8fc33aa88180481b7a8",
        "convergence_config.txt": "e35ffbc8925fcc2e8e789f11e0f7a246b88ef7dba084b20a8f0b99bc139c8bd4",
    },
    "convergence_m2": {
        "exit": 0,
        "stdout": "54438b992ddcf029582db00b7ddff3a0172b02d9263e89467eccd511a82b3777",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "convergence.csv": "b5bc9c1de1c39d44e3f02fac9918d409a343455634b34aa28e2bb51a759cf3fa",
        "convergence_config.txt": "323100a72bc543c79ad653f230844022dc7fcb49f193e1ed763633a3e72aefbd",
    },
    "convergence_m2_workers": {
        "exit": 0,
        "stdout": "7237ee7d5f67b59f522e74fdc917951acd7c24e40e4e42b662c071ff3938261c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "convergence.csv": "7a5ffdbcb2bf1a5a39e36eb8fb78c8b3952265eaf189ccd529ab8aa1f42c219c",
        "convergence_config.txt": "a01ce2f5268bf6ae2fe102ff9e420276b9af9a5f6e2ee6666a4fe07f5f607c31",
    },
    "efficiency_m2": {
        "exit": 0,
        "stdout": "40293dd712c56fbae04f15593e2bb79eccef607cba55fd48118c49d5d0bf481a",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "efficiency.csv": "e9daec301400c9467558c8b71b8237c5e8389a47a7655bdfde305c83f81be0bd",
        "efficiency_config.txt": "ed178c0233b60ac0981da250e6f185f99bce2746fb48a4c1d8083e28e649aeb6",
    },
    "moments": {
        "exit": 1,
        "stdout": "ef4b90194f929ed58291336c34b5770ead8c2890ecdef46ee7f5c02f7a20499b",
        "stderr": "0730d515a134916ef74a9f0449d07470fa04debf9d38caed5dfcd0bfa7d992ba",
        "moments_check.csv": "ae3d09b66662122ee401170a8505340d78ca7191746a691a84c9329d7fb3c200",
        "moments_check_config.txt": "2f2d7db397a567c5e754cd8275133348b7c5544f0b20052e109934bd2548e02e",
    },
    "single_adaptive": {
        "exit": 0,
        "stdout": "02ef5f40bbf619444a97cdc2fbbfd00c89123409951890fdda65e683b517441e",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "single_path.csv": "01e20b995f89b2e6f1a2870881324936b72cc2634deaff41f9368e071321d8ba",
        "single_path_config.txt": "b21e337c7e13ba26f2e28c8434d49fa49038665a68dc556751ac3c2f53d4a379",
    },
    "single_milstein": {
        "exit": 0,
        "stdout": "939968d95bdc4ad0b0dcf558c8704a1d371f8e8a1669b2c04fcfe6d090a6783d",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "single_path.csv": "9e933d1df30b0c63e45a2e8b4c4c6d15259ffb1981088325a2271c24b4ab00d3",
        "single_path_config.txt": "0299fa71ba9d333f5b738e3d6df43096ebc3ffbef81eade4cebff34d238bc5ea",
    },
    "single_milstein_short_last": {
        "exit": 0,
        "stdout": "08ca7da3e0454c1c24f7c0120c94c8f00d419346c967bbd8f0bbc392ad194940",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "single_path.csv": "6e8e54e729c7b64a4b2472f4cde97984d6271309d2040344aef53169944447b7",
        "single_path_config.txt": "d77352a568dd94f6e0fe571d60367eeb46f684ae0afe071838b48371bba78e5e",
    },
}

# A printed line that reports seconds, e.g. "path generation: 0.12 s".
_SECONDS = re.compile(r"\d s\b")


def _without_cpu_seconds(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    column = rows[0].index("cpu_seconds")
    return "\n".join(",".join(r[:column] + r[column + 1 :]) for r in rows) + "\n"


def _digests(argv, out_dir, capsys) -> dict:
    code = main(argv[:1] + ["--out-dir", str(out_dir)] + argv[1:])
    printed = capsys.readouterr()
    outputs = {}
    for name in ("out", "err"):
        lines = getattr(printed, name).replace(str(out_dir), "OUT").splitlines()
        outputs["std" + name] = "\n".join(x for x in lines if not _SECONDS.search(x))
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name in ("convergence.csv", "efficiency.csv"):
            text = _without_cpu_seconds(text)
        outputs[path.name] = text
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}
    return {"exit": code, **digests}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_command_outputs_are_golden(name, tmp_path, capsys):
    assert _digests(RUNS[name], tmp_path, capsys) == GOLDEN[name]
