"""Context maps: what the modulation's context branch responds to.

Trains the micro preset for 2 epochs on the bars task (well under a second),
builds a synthetic bar image, taps the context branch of one block of the
trained model, and writes the channel-mean map as a PGM into the directory
given as the first argument, or next to this script.

Run: python3 demos/06_context_maps.py [out_dir]
"""

import pathlib
import sys

import numpy as np

from effmod import trainer as T
from effmod.ctxmap import context_map
from effmod.pnm import write_pgm

ds = T.gen_dataset(3, n=4, noise=0.0)
img32 = ds.images[0]  # [3, 32, 32], class = a bar at one of 4 angles
big = np.repeat(np.repeat(img32, 2, axis=1), 2, axis=2)  # 64x64 keeps stages roomy

model, hist = T.train_micro(seed=0, epochs=2, n=128)
here = pathlib.Path(__file__).resolve().parent
out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here

print(f"trained micro: 2 epochs on 128 bars, eval acc {hist.final_eval_acc:.3f}")
print(f"input: class {ds.labels[0]} bar, upsampled to {big.shape[1]}x{big.shape[2]}")
for stage, block in [(0, 0), (1, 0), (2, 0)]:
    cm = context_map(model, big, stage, block)
    path = out_dir / f"ctxmap_stage{stage}.pgm"
    write_pgm(str(path), cm.grid)
    print(
        f"  stage {stage} block {block}: context {cm.grid.shape[0]}x{cm.grid.shape[1]}, "
        f"raw range [{cm.raw_min:+.4f}, {cm.raw_max:+.4f}] -> {path.name}"
    )

print()
print("maps are min-max normalized to 8-bit; view any PGM reader, or:")
print("  effmod ctxmap micro <image.ppm> --stage 2 --block 0 --out ctx.pgm")
