"""Fusion-route microbenchmark: materialize (repeat) vs view (reshape).

Both routes compute the same c-channel-context times rc-channel-value
product; the harness first proves them bit-identical, then times each.
Absolute times are machine-local; the ratio is the result.

Run: python3 demos/04_fusion_bench.py [iters]
"""

import sys

from effmod import bench

iters = int(sys.argv[1]) if len(sys.argv) > 1 else 200

print(f"== fusion modes on a 144-channel r=6 block at 14x14, {iters} iters ==")
res = bench.bench_fusion_modes(c=144, expansion=6, res=14, warmup=20, iters=iters)
print(res.summary())
print()
repeat, reshape = res.results["repeat"], res.results["reshape"]
print(f"output hashes match: {repeat.output_hash == reshape.output_hash}")
print("(hash equality is checked every iteration; a flip aborts the run)")
