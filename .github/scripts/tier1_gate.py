"""Pass rule of the Tier-1 suite: read a pytest JUnit XML report and exit 0
only when the set of failed or errored tests is exactly the set of keys of
EXPECTED_FAILURES, and each of those failed for its stated reason.

test_criterion_04_variance_area_bound records a refutation of the claimed
variance-area inequality and fails by design (see README).  The rule goes
red when any other test fails, when that one starts to pass, and when it
fails for another reason: only a JUnit `failure` (an assertion or
pytest.fail, not an `error`) whose message starts with the stated prefix
counts.  A crash inside the test, a TypeError say, is no refutation.

Usage: python .github/scripts/tier1_gate.py REPORT.xml
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

# Test id (classname::name) -> the start of its expected failure message.
EXPECTED_FAILURES = {
    "tests.test_acceptance::test_criterion_04_variance_area_bound":
        "Failed: variance-area bound violated on",
}


def failed_tests(report: str) -> tuple[dict[str, tuple[str, str]], int]:
    """The failed or errored test cases by id (classname::name), each with
    its JUnit element tag ("failure" or "error") and message, and the
    number of test cases in the report."""
    cases = list(ET.parse(report).getroot().iter("testcase"))
    failed = {}
    for case in cases:
        element = next((e for e in case if e.tag in ("failure", "error")), None)
        if element is not None:
            name = f"{case.get('classname')}::{case.get('name')}"
            failed[name] = (element.tag, element.get("message", ""))
    return failed, len(cases)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    failed, total = failed_tests(argv[1])
    print(f"{total} tests, {len(failed)} failed")
    ok = failed.keys() == EXPECTED_FAILURES.keys()
    for name in sorted(failed.keys() - EXPECTED_FAILURES.keys()):
        print(f"unexpected failure: {name}")
    for name in sorted(EXPECTED_FAILURES.keys() - failed.keys()):
        print(f"expected to fail but did not: {name}")
    for name in sorted(failed.keys() & EXPECTED_FAILURES.keys()):
        kind, message = failed[name]
        if kind != "failure" or not message.startswith(
                EXPECTED_FAILURES[name]):
            ok = False
            first_line = (message.splitlines() or [""])[0]
            print(f"failed for another reason: {name} ({kind}): {first_line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
