"""The dataset generator reproduces the bundled CSVs byte for byte."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_dataset.py"


def test_make_dataset_regenerates_the_bundled_files(tmp_path, knots_csv,
                                                    certificates_csv):
    subprocess.run([sys.executable, str(SCRIPT), "--out-dir", str(tmp_path)],
                   check=True, capture_output=True, timeout=120)
    assert (tmp_path / "knots.csv").read_bytes() == knots_csv.read_bytes()
    assert ((tmp_path / "certificates.csv").read_bytes()
            == certificates_csv.read_bytes())
