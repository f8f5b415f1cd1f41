"""The three bit fingerprints, pinned.

Each digest script hashes the results of one layer over a fixed set of
generated problems (see its docstring).  A change that keeps the layer's
contract prints the same line; a deliberate contract change updates the
pinned line here and says so in CHANGES.md.
"""

import jmax_digest
import mc_digest
import scan_digest


def test_monte_carlo_fingerprint():
    assert mc_digest.digest_line() == (
        "1112 estimates sha256 "
        "ad9ca2506daf04dd19b7338d51bde1fa13cf532a2513d56a17e403755a4e7eeb")


def test_certificate_fingerprint():
    assert jmax_digest.digest_line() == (
        "1200 certificates (30 raised) sha256 "
        "3589d6669d5cb9e8d4080cdbdeea2ed8d9346f29fe638ec2c84c53c2df67aeab")


def test_level_scan_fingerprint():
    assert scan_digest.digest_line() == (
        "1200 problems, 4800 scans (487 raised) sha256 "
        "083b29e05d7307e2edcf1b9e9ce7b65fdeb0ffcc98b39a7954f498eeaf25dfa9")
