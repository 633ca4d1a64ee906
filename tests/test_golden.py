"""Golden output bytes: the SHA-256 of the files small CLI runs write.

A change to sampling, the trial engine or the comparisons that is meant to
keep every output byte must leave these digests as they are. A change that
alters output on purpose updates them and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from exspec.cli import main
from exspec.core import SquareMatrix, matrix_to_csv, matrix_to_json

TAIL = {
    "norm-perm-sum-delta": ["norm", "--ensemble", "perm_sum_regular", "--n", "64", "--d", "4",
                            "--zero-diagonal", "--delta", "2.0", "--trials", "300",
                            "--seed", "3"],
    "norm-digraph": ["norm", "--ensemble", "regular_digraph", "--n", "17", "--d", "3",
                     "--trials", "200", "--seed", "7"],
    "s2-per-sample": ["s2", "--ensemble", "perm_sum_regular", "--n", "16", "--d", "3",
                      "--delta", "1.0", "--trials", "120", "--seed", "10",
                      "--grid", "0.5,1,1.5,2,2.5"],
    "blocks": ["blocks", "--ensemble", "perm_sum_regular", "--n", "15", "--d", "3",
               "--trials", "100", "--seed", "13"],
    "degree-event": ["degree-event", "--ensemble", "regular_digraph", "--n", "21", "--d", "3",
                     "--delta", "1.0", "--trials", "100", "--seed", "17"],
    "corner-capture": ["corner-capture", "--matrix", "m8.csv", "--trials", "200",
                       "--seed", "19"],
    "norm-permuted-base": ["norm", "--ensemble", "permuted_base", "--n", "10",
                           "--base", "b10.csv", "--c", "0.5", "--grid", "54,56,58",
                           "--trials", "150", "--seed", "23"],
    # Both cut the corner tail: p_right runs from 0.7 to 0.05 and from 1.0
    # to 0.007. At c tau = 2.0 two member corners of the s2 case have s2
    # exactly 2, so the case also pins how a threshold tie is counted.
    "s2-permuted-base": ["s2", "--ensemble", "permuted_base", "--n", "32", "--base", "r32.csv",
                         "--d", "3", "--delta", "1.0", "--c", "0.5",
                         "--grid", "2,3.6,3.8,4,4.2", "--trials", "120", "--seed", "31"],
    "norm-perm-sum-grid": ["norm", "--ensemble", "perm_sum_regular", "--n", "64", "--d", "4",
                           "--zero-diagonal", "--c", "0.6", "--grid", "4,4.5,5,5.5",
                           "--trials", "150", "--seed", "37"],
}


def _zero_diagonal(n):
    """A fixed n x n matrix of small integers with zero diagonal."""
    E = (np.arange(n * n).reshape(n, n) * 7 % 11).astype(np.float64)
    np.fill_diagonal(E, 0.0)
    return SquareMatrix(E, zero_diagonal=True)


def _regular32():
    """A fixed 3-regular 0/1 matrix on 32 nodes with zero diagonal: the sum of
    the permutation matrices of i + 2, 7i + 3 (mod 32) and i XOR 1."""
    i = np.arange(32)
    E = np.zeros((32, 32))
    for p in ((i + 2) % 32, (7 * i + 3) % 32, i ^ 1):
        E[i, p] += 1.0
    return SquareMatrix(E, zero_diagonal=True)


def _signed10():
    """_zero_diagonal(10) with rows 1, 4, 7 and 10 negated: its l1 margins are
    not its plain row and column sums."""
    E = _zero_diagonal(10).entries.copy()
    E[::3] *= -1.0
    return SquareMatrix(E)


# Matrix files the runs read, written to the working directory so that the
# paths echoed in the manifest are the same on every run. The JSON base
# carries the zero-diagonal tag, which its relabeled samples keep.
FILES = {"m8.csv": _zero_diagonal(8), "b10.csv": _zero_diagonal(10), "b10.json": _zero_diagonal(10),
         "r32.csv": _regular32(), "s10.csv": _signed10()}


def _write_files(directory):
    for file, M in FILES.items():
        text = matrix_to_json(M) if file.endswith(".json") else matrix_to_csv(M)
        (directory / file).write_text(text)

GEN = {
    "gen-perm-sum": ["--ensemble", "perm_sum_regular", "--n", "13", "--d", "3",
                     "--zero-diagonal", "--count", "3", "--seed", "3"],
    "gen-perm-sum-diagonal": ["--ensemble", "perm_sum_regular", "--n", "10", "--d", "4",
                              "--count", "2", "--seed", "4"],
    "gen-digraph": ["--ensemble", "regular_digraph", "--n", "12", "--d", "3",
                    "--count", "3", "--seed", "5", "--format", "json"],
    # The provenance sidecars embed the base through EnsembleSpec.to_dict.
    "gen-permuted-base": ["--ensemble", "permuted_base", "--n", "10", "--base", "b10.json",
                          "--count", "2", "--seed", "41", "--format", "json"],
    "gen-separately-exchangeable": ["--ensemble", "separately_exchangeable", "--n", "10",
                                    "--base", "b10.csv", "--count", "2", "--seed", "43",
                                    "--format", "json"],
}

# The analyze report: margins, Deg membership, s2 by centering and the
# scaling reduction (or the errors in their place).
ANALYZE = {
    "analyze-regular32": ["r32.csv", "--d", "3", "--delta", "1.0"],
    "analyze-signed10": ["s10.csv", "--d", "3", "--delta", "1.0"],
}

# The verify records, whose one number (the worst relative error of the
# closed-form second moment) pins the enumeration's last bits.
VERIFY = {f"verify-all-{seed}": ["all", "--seed", str(seed)] for seed in range(4)}

GOLDEN = {
    "analyze-regular32": {
        "report.json": "779b75a11da766bcd0c7f027c2aaa69a6f0f635ca47c880ed274671a45f51a1e",
    },
    "analyze-signed10": {
        "report.json": "f8041e4ab5826c66e145586d2a587d49a98cb3d0b04fc80cef45ab307ca20332",
    },
    "blocks": {
        "curve.csv": "bd24282726a5ae4ad2309b1a2d40c1f56f75ffa646fbae6ef780cb7047d0c5c7",
        "curve.json": "e2c9f426b619bfcfca39cd3f9e903cc7c40cfbaafca73d549a7c2603480e86dc",
    },
    "corner-capture": {
        "curve.csv": "f538e0aa45c37a5c1b3d2e1c6305845390cccda3b7da956c5842227f5b742759",
        "curve.json": "f92e690e96130f8c49a18e1da8ad41c242e9da7c75e82b981de6e8833c984352",
    },
    "degree-event": {
        "curve.json": "5a522d2ebf23781a9e33eee7861d3239673c082d2d72e8509d6e926e0cd4f6ec",
    },
    "gen-digraph": {
        "manifest.json": "0bc4cb357a69442461902e2b71e2ad37eb95240731e3648652b93e5354ec5cb4",
        "sample_0000.json": "affdf61a872c0b6429c919d592a6f3fe791c118616576cc12626becc5fa975dd",
        "sample_0000.provenance.json": "3a9eef8f76fa5f5314f0ce4f9128e2c3b2d278af116fbfd160ec10f6c7c14761",
        "sample_0001.json": "a71457282345ce974c7510e706dab9b9a3569b8d171b42ef5befa5590f6ec73a",
        "sample_0001.provenance.json": "3b780c01dd06493435ca4709d58cf479eaf20abf7cba07388bacec141d46312e",
        "sample_0002.json": "a4e99b866757c9500651bafa1bb8860d00850a8c82bbf643f01383b18280da3d",
        "sample_0002.provenance.json": "8721adcc1f70f43a92e005b5b62acaba3f7553f835d9bbea7f8823febd659317",
    },
    "gen-perm-sum": {
        "manifest.json": "337d90a6d4551ba4dcb3092e70bbc4f467f81a9aec6e062486d8ff14dedd023f",
        "sample_0000.csv": "a34baac59522c1321c90ce442335f63eda150983cb42ef6a9df0f5c26bd3c561",
        "sample_0000.provenance.json": "c5c63f87e4b89f2717aa135e948a40ebfcebf7511248abb72272eaed31558a87",
        "sample_0001.csv": "5ab5ab9d747e9fbd1fbc64481d7f24ebc33232df5f61b4d54983b6b0c98b83fb",
        "sample_0001.provenance.json": "4fcdf0b082ccd5005280a270e09d65506b7d2f216118111e11bb1d7de202ec90",
        "sample_0002.csv": "157680403b39f223d150502f67be4c57b2e79440eba511c51ef3fd39d7fde0cd",
        "sample_0002.provenance.json": "3c800d6fb8daa23ff03964b2b1f68407f6473f05c803ee0af7557c4a5742eaad",
    },
    "gen-permuted-base": {
        "manifest.json": "c117a2df8e221a1bf108094b784da7858a745aa08a8e2c16e9f8ced9aaf3bff3",
        "sample_0000.json": "5205b21d98de8700240b3a1d3265858df9c573be06c49d226e0fef427a176c09",
        "sample_0000.provenance.json": "e011608ee33a34a27d8ff7f37a10919673e8715a2ec5a7aace1e7dac50a2bda2",
        "sample_0001.json": "d0dcbe5d3563be7bd319d12602ce9044b14d935082aa5b4c847299b25fe2420f",
        "sample_0001.provenance.json": "206bb5f82a3dfb80c407498c8fe75ea9068798b2c936291b53c5235300ac5c8e",
    },
    "gen-perm-sum-diagonal": {
        "manifest.json": "5166c8e85f722c57446ef3314fd4da012b0348ee1e48f3df94c45301d0a477d3",
        "sample_0000.csv": "3bcb0ce24bac8b7235594fdc5ca4cbf49f8c8c7a77d834e0df8cbbd3fb10d39c",
        "sample_0000.provenance.json": "41a585966b4fc90ab349aac1801b891a0908e3c1c24b7ec8ae0a43c6756eb61a",
        "sample_0001.csv": "160b500cc2a212c1fcb292de7aa72691bbd518830d7fc99cc3964e9e05e9c82d",
        "sample_0001.provenance.json": "b3f8455e6425a4c66c800c23f661f249edd2c3d1876ef9ff2cae2e0734244658",
    },
    "gen-separately-exchangeable": {
        "manifest.json": "9dfdd5e8f01cda2aa9805616981e1b9a5d4d5d3ae52e306ad72d0bbb7c30e3fd",
        "sample_0000.json": "968b759ac5db31126e99fa13eccc299dadae0e805ce42a7cee953aad18fbd519",
        "sample_0000.provenance.json": "e8a69a39a1ad81e83648f663ad39e5dcf764a6e2288b97ef641d3ce1c329386a",
        "sample_0001.json": "569097298984668b36e80c589634bd11213b67e53b3e14765fc84341f986db76",
        "sample_0001.provenance.json": "57a58242ce1d9e2d5fe1cedc05c83b876639a9333678ae4a84845d16ade04834",
    },
    "norm-digraph": {
        "curve.csv": "307fa0300f3ac360faacbf2ecf607ded6907cb3abb08ca4045ea8ddf34e7ded5",
        "curve.json": "64c9cbee9dd755bb069eb56a5da9a6191aecf9c7fe307449987028dbc94ab7e0",
    },
    "norm-perm-sum-delta": {
        "curve.csv": "4227c90fe3a762348e18ce3a0edd6c9c888a77c8dacb00dfd380664a2fe22bbe",
        "curve.json": "bb15860459d8ecbe394ddef28ac041ae7e0ed2b892d9b94e7adebe077adfc3c2",
    },
    "norm-perm-sum-grid": {
        "curve.csv": "f3e81e366933d5fcc04ddd36df94556067e00682ec812fa0e584e5395892da00",
        "curve.json": "8a7c57d8f395c8fb95c7d87ca21695199b5a3d636af42d6042ce4b9c46ffaaee",
    },
    "norm-permuted-base": {
        "curve.csv": "8526be64f1f2d41d98758712820434b334d4f9e18800f7eea103d28122a3c689",
        "curve.json": "9b13d251440d065c3fee7418431775290d3fe5e2ec93839a366ee65863c0e573",
    },
    "verify-all-0": {
        "report.json": "a5126f906e3c4edff82f683dd7dfd97223f4e37cc0fbd7f5b8e2702f5b8054a2",
    },
    "verify-all-1": {
        "report.json": "2190fdac33fc013d81f5a44bba76b96ded033655d97f24e200917f41ccf85516",
    },
    "verify-all-2": {
        "report.json": "66be8a87d33167a5d5f907410bb63ece2aaeb98af59cd00cebd79f3d20d21d72",
    },
    "verify-all-3": {
        "report.json": "bdbc1df2b131c9c8911fc57a79da86e4930fee66bae9df1f0f51b6ab915585ba",
    },
    "s2-per-sample": {
        "curve.csv": "276ac1607b1d6eec1adb7e6a05121420fea2c4268b834d50a521c04cec3c1da0",
        "curve.json": "664b8a156e5b0bb5f6c26f27b405fecbbc69b84f46e9f392a18da23db9874764",
    },
    "s2-permuted-base": {
        "curve.csv": "d346bc690a5b5ad28d4a2f24e400f3784b4754ddb4484de7d1653d914947e396",
        "curve.json": "c1bc5387c9a4a458aa67fbcc15b9af92db278a3f2fa49e1b898a889ee857d5a1",
    },
}


def _digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(TAIL))
def test_tail_output_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    out = tmp_path / name
    assert main(["tail", *TAIL[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GEN))
def test_gen_output_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    out = tmp_path / name
    assert main(["gen", *GEN[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert _digests(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_output_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path)
    out = tmp_path / name
    out.mkdir()
    assert main(["analyze", *ANALYZE[name], "--out", str(out / "report.json")]) == 0
    assert _digests(out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_output_bytes(name, tmp_path):
    out = tmp_path / name
    out.mkdir()
    assert main(["verify", *VERIFY[name], "--out", str(out / "report.json")]) == 0
    assert _digests(out) == GOLDEN[name]
