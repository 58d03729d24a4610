"""Training through 40% label noise: pruning on vs off, side by side.

Blobs in 64 dimensions give every sample an individual signature, so a
network trained on everything gradually memorizes the flipped labels and
its test accuracy decays.  The pruned run drops the large-loss samples
each batch and keeps almost only clean ones (watch the precision column).

Takes about ten seconds.
"""

import numpy as np

from npcl import (
    BaseLoss,
    CorruptionSpec,
    ThresholdMode,
    TrainConfig,
    corrupt_dataset,
    synth_blobs,
    train,
)

train_clean = synth_blobs(5000, 4, separation=4.0, noise_std=1.0, seed=100, dim=64)
test_set = synth_blobs(1000, 4, separation=4.0, noise_std=1.0, seed=200, dim=64)
noisy = corrupt_dataset(train_clean, CorruptionSpec("symmetric", rate=0.4, seed=300, num_classes=4))
print(f"flipped {int(noisy.flip_flags.sum())} of {len(noisy)} training labels")

for label, threshold in (("noise-pruned selection", ThresholdMode.npcl_adaptive(0.4)), ("no selection", None)):
    config = TrainConfig(
        epochs=30,
        batch_size=128,
        burn_in_epochs=5,
        threshold=threshold,
        base_loss=BaseLoss.hinge(),
        lr=1e-3,
        seed=1,
    )
    metrics, _ = train(config, noisy, test_set)
    print(f"\n--- {label} ---")
    print(f"{'epoch':>6} {'test acc':>9} {'precision':>10} {'selected':>9}")
    for m in metrics[4::5]:
        print(f"{m.epoch:6d} {m.test_acc:9.4f} {m.label_precision:10.4f} {m.selected_frac:9.3f}")
    last5 = np.mean([m.test_acc for m in metrics[-5:]])
    print(f"mean test accuracy over the last 5 epochs: {last5:.4f}")
