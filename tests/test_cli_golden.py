"""Fixed-seed CLI stdout is pinned byte for byte.

Each case runs one CLI command in process and compares the sha256 of its
stdout, with the `version` field normalized, to a hash recorded with
qmachine 0.3.1 (sweep and survey_flagship: 0.7.0, whose conditionals come
from the lens's first moment, not quadrature; survey_classical: 0.5.0).
The cases cover every stochastic path the CLI prints:
the pure-state kernel, the conditioned-cap sampler (flagship and offset
bands), the sweep (epsilon 0, 1e-6 and 1, more trials than MC_CHUNK) and
the survey census (more draws than MC_CHUNK, epsilon 0 and the flagship).
A change that moves one outcome count changes a hash; one that changes
output on purpose bumps the version and records new hashes.
"""

import hashlib
import json
import re

import pytest

from qmachine.cli import main
from qmachine.machine import MC_CHUNK

SQ2 = "0.7071067811865476"
OVER_CHUNK = str(MC_CHUNK + 4_464)  # 70,000: two chunks, the second short

SURVEY = {
    "questions": [
        {"label": label, "yes": 0.5, "pre_yes": 0.15, "pre_no": 0.15} for label in ("w", "v", "u")
    ],
    "angles_deg": [0, 60, 120],
}

CASES = {
    "simulate": ("simulate", "--epsilon", "0.7", "--theta", "1.2", "--trials", "200000", "--seed", "3"),
    "conditional_flagship": (
        "conditional", "--method", "mc", "--epsilon", SQ2, "--alpha", "120", "--degrees",
        "--trials", "150000", "--seed", "1",
    ),
    "conditional_offsets": (
        "conditional", "--method", "mc", "--epsilon", "0.5", "--alpha", "70", "--degrees",
        "--d", "0.1", "--c", "-0.2", "--trials", OVER_CHUNK, "--seed", "2",
    ),
    "sweep": (
        "sweep", "--epsilons", "0,1e-6,0.5,1", "--alpha-steps", "7", "--mc-trials", OVER_CHUNK,
        "--seed", "4", "--out", "-",
    ),
    "survey_flagship": ("survey", "--force-epsilon", SQ2, "--census-trials", OVER_CHUNK, "--seed", "6"),
    "survey_classical": ("survey", "--force-epsilon", "0", "--census-trials", OVER_CHUNK, "--seed", "7"),
}

GOLDEN = {
    "simulate": "1c48459b428a3fed7130a4c30792ed3a8098858bcaf6e332ea85ee7c96e6d6cd",
    "conditional_flagship": "4cb854051a01afd2e82b9e770766eda8aeddd30c3b4a5db416f5322bd41f44da",
    "conditional_offsets": "c9228c1e58f1356225060dfee374c7211367f5f7422add2c4a3d5f317128f3f5",
    "sweep": "719b945e4e45893ccd1654d1e216bbc24748eaf0e2896d1e708753b365758cae",
    "survey_flagship": "fcdd393e7cd77d8b136edaf0d6a707e6fe3b7ad5ec7095577755f9060b0184ed",
    "survey_classical": "6853da9dce97579191be6c62a397bc8798a1bf69199dc0906cd6c7250a33b67c",
}


def stdout_digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    out = re.sub(r'"version": "[^"]*"', '"version": "*"', out)
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_pinned(name, tmp_path, capsys):
    argv = CASES[name]
    if argv[0] == "survey":
        path = tmp_path / "survey.json"
        path.write_text(json.dumps(SURVEY))
        argv = (argv[0], "--input", str(path), *argv[1:])
    assert stdout_digest(capsys, argv) == GOLDEN[name]
