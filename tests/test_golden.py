"""Same seed, same bits: pinned digests of four tiny training runs.

Each variant trains in-process through `cli.main` at
``--seed 3 --epochs 2 --batch 4 --train-per-class 4 --test-per-class 2``,
and ``respden eval`` then scores its checkpoint. The test pins the sha256 of
- every parameter's name and bytes, in name order;
- the epoch records of ``metrics.jsonl``. The header is left out, because
  it carries ``out_dir``;
- the stdout of ``respden eval``.

At this config ``eval`` prints the same text for ``full``, ``--no-aff`` and
``--beta 0``, so for those variants the parameter and record digests carry
the check.

A change that is meant to keep training bits leaves these digests alone. A
change that moves them on purpose updates them in the same change and lists
each old -> new digest in CHANGES.md.
"""

import hashlib

import pytest

from respden.checkpoint import load_checkpoint
from respden.cli import main

RUN = ["--seed", "3", "--epochs", "2", "--batch", "4",
       "--train-per-class", "4", "--test-per-class", "2"]

#: variant -> its flags and its (parameters, epoch records, eval stdout) sha256
GOLDEN = {
    "full": ([], (
        "9b2c396cddf0c9c94a82c29f1970eec48a8f6405f671d8bf7f961a2f079dad04",
        "74212fe9ce6883c4eba888955c58c4d1806f5e54084f1acf08523dc05a60f5f5",
        "51b1d6e988ec61b4a930f2579352acd76677843ab8040193ec2cc66ef9ba0626")),
    "no_aff": (["--no-aff"], (
        "51626ec56e5b4c716e116fbae800acc0c1a801dab29af4bd73bf4fc7f0351c5c",
        "6e4c3b0578e01e37bed3bd08421d0a78a18c72bbaed233d233d777107071bd08",
        "51b1d6e988ec61b4a930f2579352acd76677843ab8040193ec2cc66ef9ba0626")),
    "no_ddl": (["--no-ddl"], (
        "40931bd96c477b0334c0369d332858d9c18fef975964d96462628f930a93a58f",
        "f2e7015a675b5daecf28522270a8e24e04b0243e05f6d9f58fe3d132015ee78a",
        "7afbb3f955acf7058a34c6041c7b468f011f74f8964fc26eb15f1bf66f200bf6")),
    "beta0": (["--beta", "0"], (
        "1023e77066354125b4426cf8a3d28b742f35eb76461cacd55c8093a10bfdcba8",
        "2800d4d9114a7093891502b8de432256c81ff37526e5bc98433898499a5b6dce",
        "51b1d6e988ec61b4a930f2579352acd76677843ab8040193ec2cc66ef9ba0626")),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(flags: list[str], out_dir, capsys) -> tuple[str, str, str]:
    assert main(["train", *RUN, *flags, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    ckpt_path = str(out_dir / "checkpoint.bin")
    params = hashlib.sha256()
    for name, arr in sorted(load_checkpoint(ckpt_path).params.items()):
        params.update(name.encode("utf-8"))
        params.update(arr.tobytes())
    lines = (out_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    records = "".join(line for line in lines if '"type": "epoch"' in line)
    assert main(["eval", "--checkpoint", ckpt_path]) == 0
    return params.hexdigest(), _sha(records.encode("utf-8")), _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_training_bits_are_pinned(variant, tmp_path, capsys):
    flags, want = GOLDEN[variant]
    assert run_digests(flags, tmp_path, capsys) == want
