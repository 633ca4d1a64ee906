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
    # Both cut the corner tail: p_right runs from 0.7 to 0.1 and from 0.99
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
        "curve.csv": "4854ab764ea278b70c38cd7673fde568b41990ac3bbac9092da67bf3425fba19",
        "curve.json": "ec2f69fdace57cc5ce827417f01e7075bd0a4c734433ba6e286038f112cf3074",
    },
    "degree-event": {
        "curve.json": "0957f76eb321462a249440ea04203982326e9ba75c7154676303e50cd07ffc3b",
    },
    "gen-digraph": {
        "manifest.json": "0bc4cb357a69442461902e2b71e2ad37eb95240731e3648652b93e5354ec5cb4",
        "sample_0000.json": "6dd1383cc5b89be13512d7a2cbe0b49287c5a599b6b7b41d638465cd4823baca",
        "sample_0000.provenance.json": "3a9eef8f76fa5f5314f0ce4f9128e2c3b2d278af116fbfd160ec10f6c7c14761",
        "sample_0001.json": "fcd75b5c354cdc1840bb68597cb1641836f0a2b984e6c472e74b5b7784a9cc4d",
        "sample_0001.provenance.json": "3b780c01dd06493435ca4709d58cf479eaf20abf7cba07388bacec141d46312e",
        "sample_0002.json": "86cb4d56b4caea6ca2dd7711ac411963e3d70a3ffe7a06678353f4f7fe1c0428",
        "sample_0002.provenance.json": "8721adcc1f70f43a92e005b5b62acaba3f7553f835d9bbea7f8823febd659317",
    },
    "gen-perm-sum": {
        "manifest.json": "337d90a6d4551ba4dcb3092e70bbc4f467f81a9aec6e062486d8ff14dedd023f",
        "sample_0000.csv": "600a2bb49632fe2e290fb0c5b97554d470255662747b9e8a901f162741514292",
        "sample_0000.provenance.json": "c5c63f87e4b89f2717aa135e948a40ebfcebf7511248abb72272eaed31558a87",
        "sample_0001.csv": "55bb0c8054f7d781e3caf4b4013c02388f62f6f1f786ca14801f6ed6b35945cb",
        "sample_0001.provenance.json": "4fcdf0b082ccd5005280a270e09d65506b7d2f216118111e11bb1d7de202ec90",
        "sample_0002.csv": "2f7642f668e0be71bd6d2f3c852f05313f4f50a847a8acec8ca4de79b4afcdcf",
        "sample_0002.provenance.json": "3c800d6fb8daa23ff03964b2b1f68407f6473f05c803ee0af7557c4a5742eaad",
    },
    "gen-permuted-base": {
        "manifest.json": "c117a2df8e221a1bf108094b784da7858a745aa08a8e2c16e9f8ced9aaf3bff3",
        "sample_0000.json": "89074f88699d625cfcf99cbede8a94a99be6ed546c13e7bd719523cf1e347d4a",
        "sample_0000.provenance.json": "e011608ee33a34a27d8ff7f37a10919673e8715a2ec5a7aace1e7dac50a2bda2",
        "sample_0001.json": "e083b6c2e3807072bce3fb8d1f6b6961fece6d95be0b2bef180c3453a5b86193",
        "sample_0001.provenance.json": "206bb5f82a3dfb80c407498c8fe75ea9068798b2c936291b53c5235300ac5c8e",
    },
    "gen-perm-sum-diagonal": {
        "manifest.json": "5166c8e85f722c57446ef3314fd4da012b0348ee1e48f3df94c45301d0a477d3",
        "sample_0000.csv": "c25db06860cd3f104820077727b631cb49d7a890e0af34a6db1ac4ee504bc522",
        "sample_0000.provenance.json": "41a585966b4fc90ab349aac1801b891a0908e3c1c24b7ec8ae0a43c6756eb61a",
        "sample_0001.csv": "3e9243697aff789031572bf5e37671d615227e99bbfc66ac7eca8194187cff81",
        "sample_0001.provenance.json": "b3f8455e6425a4c66c800c23f661f249edd2c3d1876ef9ff2cae2e0734244658",
    },
    "gen-separately-exchangeable": {
        "manifest.json": "9dfdd5e8f01cda2aa9805616981e1b9a5d4d5d3ae52e306ad72d0bbb7c30e3fd",
        "sample_0000.json": "b8d0b25504ca7f97985051701c350a74b434e27643013274ffacd93f6cf1698f",
        "sample_0000.provenance.json": "e8a69a39a1ad81e83648f663ad39e5dcf764a6e2288b97ef641d3ce1c329386a",
        "sample_0001.json": "66aeb8c8db3bcf806f0c929ee379df71751fa7096d7b7da6c6ad047eb5805700",
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
        "curve.csv": "62a9f5ac3f458204dce46adde70c44110c6bfa1b605f418de366d60f9d21adfc",
        "curve.json": "b2bbbe8d0f2c2acf56f0ca7c82ba90c6a95ea1e921699498869fd1956d8fc304",
    },
    "norm-permuted-base": {
        "curve.csv": "33257b13b1651f5853097d3adf688b20859d8e1f63ae1431b2096e946f3a7e0d",
        "curve.json": "57f6d1b8f0572c42df6ebce3362bff036ce1cf5a13a5041b3ea5abc21395d759",
    },
    "verify-all-0": {
        "report.json": "457cb8a799c2fe7c54a569e2a7a2d5b25f7a3cf6efd96f4fa569694b7fc22623",
    },
    "verify-all-1": {
        "report.json": "36a72ba46aaa685b16b527ac941bd60fca53ed8d444845b469f5851f1ae8fda9",
    },
    "verify-all-2": {
        "report.json": "1058f764be25b79a0e6bef390584efa08ee77d1c5bd0bd55e24396aadcaeccf0",
    },
    "verify-all-3": {
        "report.json": "5d7a71a0173655e24a1b0b6a9521b7e6cfc988285bff397effb61d2a04aaf943",
    },
    "s2-per-sample": {
        "curve.csv": "6eafadd29036912b19e4bbb126b6a37e4c66a5c54b48049e1b0b7bdfa11a80e5",
        "curve.json": "6a3ad0202acc5d712f0390458c3c3ffc96cfd1cd8f6debbd1854a9ca9e2d15ab",
    },
    "s2-permuted-base": {
        "curve.csv": "e931d15db1f5199a980f4256cc1935c7800edd1c7f1eaa7c9a51f76257fdf7ae",
        "curve.json": "6477a42e6328c59452c407d39f5decebec48125460a7cecb3a097de43e80a0df",
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
