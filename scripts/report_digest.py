"""Print the SHA-256 of one rep3 report, its elapsed time aside.

From the root of a rep3 checkout:

    rep3 verify --min-n 5 --max-n 8 > verify8.json
    python3 scripts/report_digest.py < verify8.json

Reads one report's JSON on standard input, drops its "elapsed" field,
and prints the hex SHA-256 of json.dumps of the rest with sorted keys:
the bytes the tier-1 tests hash from report.comparable(), so a digest
pinned there holds for the CLI's report too.  Standard library only.
"""

import hashlib
import json
import sys


def main() -> int:
    report = json.load(sys.stdin)
    del report["elapsed"]
    print(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
