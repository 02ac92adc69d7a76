"""Every walk holds one block of rows, not all of its rows.

Each case runs in a fresh interpreter that stops at its third stacked
rank (rank_mod_batch, one block of a walk at one power per call); its
peak resident set must stay far below what the rows of the whole walk
would take (about 2.9 GiB for 2^20 draws at n = 64).
"""

from concurrent.futures import ThreadPoolExecutor

from conftest import child_peak_mib

PEAK_LIMIT_MIB = 200

# The data limit makes a walk that regresses to holding all its rows fail
# at once with MemoryError instead of taking gigabytes from the host.
STOP_AFTER_THIRD_BLOCK = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_DATA, (2**30, 2**30))
from skewrank import decomposition
from skewrank.fields import ExtensionContext
calls, rank_mod_batch = 0, decomposition.rank_mod_batch
def counted(*args):
    global calls
    calls += 1
    ranks = rank_mod_batch(*args)
    if calls == 3:
        os._exit(0)
    return ranks
decomposition.rank_mod_batch = counted
decomposition.{call}
sys.exit("the walk ended before its third block")
"""

WALKS = {
    "direct-sum (3, 64)": "verify_direct_sum(ExtensionContext(3, 64), sample_cap=2**20)",
    # V1 and V2 are ranked first and the split certificate last, so the
    # third stacked rank is the first block sampled from E1
    "TC (3, 32)": "verify_theorem_C(ExtensionContext(3, 32), sample_cap=2**20)",
    "oracle (3, 64)": "oracle_survey(ExtensionContext(3, 64), sample_cap=2**20)",
    "oracle (3, 15)": "oracle_survey(ExtensionContext(3, 15), sample_cap=2**20)",  # exhaustive
}


def test_walks_stay_in_block_sized_memory():
    codes = [STOP_AFTER_THIRD_BLOCK.format(call=call) for call in WALKS.values()]
    with ThreadPoolExecutor(max_workers=len(codes)) as pool:
        peaks = dict(zip(WALKS, pool.map(child_peak_mib, codes)))
    assert all(peak < PEAK_LIMIT_MIB for peak in peaks.values()), peaks
