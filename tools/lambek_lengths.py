"""Time Lambek membership on long words of the paper's two image grammars.

    PYTHONPATH=src python3 tools/lambek_lengths.py            # best of 3
    PYTHONPATH=src python3 tools/lambek_lengths.py --repeat 1

The benchmark asks `lambek_member` about no word longer than 5 letters,
so this script reproduces the table of ROADMAP direction 11.  Criterion
4's lexicon is `ccg_to_malc(three_block_ccg())`, criterion 5's is
`add_empty_string(ccg_to_malc(bundle_to_ccg(three_block_bundle())))`.
For each length pair it asks about the member `b a^n c a^n c a^n` and
its near miss with one more `a`, each with a fresh cache, and prints the
best of k wall times, the memo entries, the microseconds per entry and
the number of left-focus calls (`_TwoSidedSearch._focus`).
"""

import argparse
import time

import conjcat.samples as samples
from conjcat.prover import SearchCache, _TwoSidedSearch, lambek_member
from conjcat.transforms import add_empty_string, bundle_to_ccg, ccg_to_malc

# (criterion, n) for the member of length 3n + 3
CASES = ((4, 100), (4, 166), (4, 333), (5, 11), (5, 18))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="runs per word (best is kept)")
    args = parser.parse_args()
    lexicons = {
        4: ccg_to_malc(samples.three_block_ccg()),
        5: add_empty_string(ccg_to_malc(bundle_to_ccg(samples.three_block_bundle()))),
    }
    calls = [0]
    focus = _TwoSidedSearch._focus

    def counted(self, *rest):
        calls[0] += 1
        return focus(self, *rest)

    _TwoSidedSearch._focus = counted
    print("| lexicon | length | member | best s | memo | us/entry | focus calls |")
    print("|---|---|---|---|---|---|---|")
    for criterion, n in CASES:
        g = lexicons[criterion]
        member = "b" + "a" * n + "c" + "a" * n + "c" + "a" * n
        for w in (member, member + "a"):
            best = float("inf")
            for _ in range(args.repeat):
                calls[0] = 0
                cache = SearchCache()
                start = time.perf_counter()
                answer = lambek_member(g, w, cache=cache)
                best = min(best, time.perf_counter() - start)
            assert answer == (w == member), w
            memo = len(cache.table(g.calculus))
            print(f"| criterion {criterion} | {len(w)} | {answer} | {best:.3f} | {memo:,} "
                  f"| {1e6 * best / memo:.1f} | {calls[0]:,} |")


if __name__ == "__main__":
    main()
