"""The in-package PCG64 stream, bit for bit against NumPy's generator.

NumPy is the oracle here only: ``numpy.random`` is imported by these
tests, never by the package.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdiffuse.models import Pcg64, _stream

from conftest import numpy_stream, run_python

# Masked into uint64, a seed is one or two 32-bit entropy words and a
# run index up to 2**128 - 1 one to four, so streams see 2-6 words:
# more than the SeedSequence pool of 4 takes before its extra mixing.
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**63), -(2**70)]),
    st.integers(-(2**80), 2**80),
)
RUN_INDEXES = st.one_of(st.sampled_from([0, 1, 2**32, 2**64]), st.integers(0, 2**128 - 1))
SIZES = (0, 1, 7, 1000)


@settings(max_examples=200, deadline=None)
@given(SEEDS, RUN_INDEXES, st.permutations(SIZES))
def test_matches_numpy_generator(rng_seed, run_index, sizes):
    ours, theirs = _stream(rng_seed, run_index), numpy_stream(rng_seed, run_index)
    for size in sizes:
        got, want = ours.random(size), theirs.random(size)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rng_seed", [0, 2**32 - 1, 2**32, 2**64 - 1, -1])
@pytest.mark.parametrize("run_index", [0, 1, 2**32, 2**64])
def test_edge_entropy(rng_seed, run_index):
    ours, theirs = _stream(rng_seed, run_index), numpy_stream(rng_seed, run_index)
    for size in SIZES:
        assert ours.random(size).tobytes() == theirs.random(size).tobytes()


def test_uniforms_in_unit_interval():
    draws = _stream(42, 0).random(10_000)
    assert 0.0 <= draws.min() and draws.max() < 1.0


@pytest.mark.parametrize("entropy", [(-1,), (3, -1), (-(2**64), 0)])
def test_negative_entropy_rejected(entropy):
    with pytest.raises(ValueError):
        np.random.SeedSequence(list(entropy))
    with pytest.raises(ValueError):
        Pcg64(*entropy)


def test_commands_do_not_import_numpy_random(data_dir, tmp_path):
    """No command imports numpy.random, whose import pulls in ``secrets``
    and OpenSSL's libcrypto through ``_hashlib``. Nor ``logging``: the
    commands' warnings go through ``warnings``."""
    code = (
        "import sys\n"
        "from netdiffuse.cli import main\n"
        "data, out = sys.argv[1:]\n"
        "assert main(['reproduce', '--data-dir', data, '--out-dir', out + '/repro',\n"
        "             '--seeds', data + '/seeds_example.txt']) == 0\n"
        "assert main(['run', '--graph', data + '/karate.txt', '--model', 'si',\n"
        "             '--runs', '5', '--seed-node', '2', '--out', out + '/si.csv']) == 0\n"
        "assert main(['run', '--graph', data + '/karate.txt', '--model', 'ic', '--ic-p', '0.3',\n"
        "             '--runs', '3', '--seed-node', '2', '--out', out + '/ic.csv']) == 0\n"
        "assert main(['tie-table', '--graph', data + '/polblogs.txt',\n"
        "             '--out', out + '/ties.csv']) == 0\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', '_hashlib', 'logging')\n"
        "             if m in sys.modules))"
    )
    assert run_python(code, data_dir, tmp_path).splitlines()[-1] == "[]"
