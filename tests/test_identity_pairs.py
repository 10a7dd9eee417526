"""Pair-list guard for the identity suite.

For each identity, the sha256 of the pairs it compares, each side rendered
with its type, is pinned at (nmax, order) = (30, 30), (12, 12) and (0, 0) in
``tests/data/identity_pairs.json``.  A change to ``audit.py`` that alters
which values an identity compares, or their order, fails here and names the
identity and the size.  When such a change is intended, regenerate the file
from the repository root with

    PYTHONPATH=src python3 tests/test_identity_pairs.py > tests/data/identity_pairs.json
"""

import hashlib
import json
from pathlib import Path

from degenums import audit

DIGESTS = Path(__file__).parent / "data" / "identity_pairs.json"

SIZES = ((30, 30), (12, 12), (0, 0))


def digest(pairs) -> str:
    text = "\n".join(f"{type(a).__name__}:{a}\t{type(b).__name__}:{b}" for a, b in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def current() -> dict[str, str]:
    # each check at the cap run_identity_suite reports as its max_tested
    out = {}
    for nmax, order in SIZES:
        results = audit.run_identity_suite(nmax, order)
        for (name, _, _, check), result in zip(audit._IDENTITY_REGISTRY, results):
            out[f"{name} {nmax}/{order}"] = digest(check(result.max_tested))
    return out


def test_identity_pair_lists_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    now = current()
    assert sorted(now) == sorted(pinned), "identity or size list differs from the pinned file"
    changed = [key for key in now if now[key] != pinned[key]]
    assert not changed, "pairs changed for: " + "; ".join(changed)


if __name__ == "__main__":
    print(json.dumps(current(), indent=1))
