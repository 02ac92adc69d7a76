"""Every walk holds one block of rows, not all of its rows.

Each case runs in a fresh interpreter that stops at the first full block
(block_rows(n) rows) that the ranked-block driver yields: one block of
the walk ranked at every power it checks.  Its peak resident set must
stay far below what the rows of the whole walk would take (about 2.9 GiB
for 2^20 draws at n = 64), and below what a cache of n x n Grams per
power would add at n = 64.
"""

from concurrent.futures import ThreadPoolExecutor

from conftest import child_peak_mib

PEAK_LIMIT_MIB = 100

# The data limit makes a walk that regresses to holding all its rows fail
# at once with MemoryError instead of taking gigabytes from the host.
STOP_AFTER_FIRST_FULL_BLOCK = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_DATA, (2**30, 2**30))
from skewrank import decomposition
from skewrank.fields import ExtensionContext
from skewrank.linalg import block_rows
ranked_blocks = decomposition._ranked_blocks
def stop_at_first_full_block(ctx, *args, **kwargs):
    for block in ranked_blocks(ctx, *args, **kwargs):
        if len(block[0]) == block_rows(ctx.n):
            os._exit(0)
        yield block
decomposition._ranked_blocks = stop_at_first_full_block
decomposition.{call}
sys.exit("the walk ended before its first full block")
"""

WALKS = {
    "direct-sum (3, 64)": "verify_direct_sum(ExtensionContext(3, 64), sample_cap=2**20)",
    "TC (3, 32)": "verify_theorem_C(ExtensionContext(3, 32), sample_cap=2**20)",
    "oracle (3, 64)": "oracle_survey(ExtensionContext(3, 64), sample_cap=2**20)",
    # exhaustive; its first full block is among the 3^7 + 1 cosets at i = 7
    "oracle (3, 14)": "oracle_survey(ExtensionContext(3, 14), sample_cap=2**20)",
}


def test_walks_stay_in_block_sized_memory():
    codes = [STOP_AFTER_FIRST_FULL_BLOCK.format(call=call) for call in WALKS.values()]
    with ThreadPoolExecutor(max_workers=len(codes)) as pool:
        peaks = dict(zip(WALKS, pool.map(child_peak_mib, codes)))
    assert all(peak < PEAK_LIMIT_MIB for peak in peaks.values()), peaks
