"""Golden traces: every CSV of two small experiments, byte for byte.

``tests/fixtures/golden/<name>.cfg`` is run through ``run_experiment``
and each file it writes, trace CSVs and ``summary.csv``, must equal the
frozen copy in ``tests/fixtures/golden/<name>/``; the table it returns,
as ``svilab run`` prints it, must equal ``<name>.txt`` beside the
config, trailing spaces included. A change that moves any printed digit
fails here. Re-baselining a fixture is a deliberate act and is logged
in CHANGES.md with the reason.
"""

import os
from dataclasses import replace

import pytest

from svilab import parse_config, run_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "fixtures", "golden")


@pytest.mark.parametrize("name", ["bimatrix", "affine"])
def test_outputs_match_golden_bytes(name, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.cfg"), encoding="utf-8") as fh:
        config = parse_config(fh.read())
    config = replace(config, output_path=name)
    table = run_experiment(config, base_dir=str(tmp_path))
    expected_dir = os.path.join(GOLDEN, name)
    produced_dir = tmp_path / name
    assert sorted(os.listdir(produced_dir)) == sorted(os.listdir(expected_dir))
    for filename in sorted(os.listdir(expected_dir)):
        with open(os.path.join(expected_dir, filename), "rb") as fh:
            expected = fh.read()
        assert (produced_dir / filename).read_bytes() == expected, filename
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="ascii") as fh:
        assert table + "\n" == fh.read()
