"""Regenerate ``tests/golden/signatures.json`` from the current code.

Run from the repository root after a deliberate behaviour change::

    PYTHONPATH=src python tests/golden/write_signatures.py

and commit the diff with the change that caused it.  The matrix and the
fingerprint recipe live in ``tests/test_golden_signatures.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden_signatures import GOLDEN_PATH, all_fingerprints  # noqa: E402


def main() -> None:
    payload = json.dumps(all_fingerprints(), indent=2, sort_keys=True)
    GOLDEN_PATH.write_text(payload + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
