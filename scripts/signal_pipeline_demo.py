#!/usr/bin/env python3
"""End-to-end signal demo: synthesize per-subject oscillatory recordings,
extract 1-second differential-entropy features over the standard bands,
write them in the ingestion CSV format, and benchmark normalization
strategies on the result.

Subjects differ by a per-channel gain and baseline (the domain shift);
classes differ by alpha-band versus beta-band power (the signal).
"""

import argparse
import sys

import numpy as np

from normda.bench import ExperimentConfig, MethodSpec, emit_table, run_experiment
from normda.dataset import DomainDataset, save_csv
from normda.features import SignalEpoch, differential_entropy, standard_bands
from normda.normalize import NormStrategy

FS = 200.0
CHANNELS = 4
EPOCH_SECONDS = 1.0


def synth_epoch(rng, subject, label):
    # Classes shade the alpha/beta power ratio. Subjects apply both a global
    # gain and a spectral tilt (beta boosted relative to alpha), so the
    # between-band contrast carrying the class is confounded across subjects
    # until a per-subject normalization removes it.
    t = np.arange(int(FS * EPOCH_SECONDS)) / FS
    alpha_amp, beta_amp = (1.0, 0.55) if label == 0 else (0.7, 0.85)
    gain = 2.0**subject
    tilt = 1.0 + 0.9 * subject
    rows = []
    for ch in range(CHANNELS):
        scale = gain * (1.0 + 0.3 * ch)
        alpha = alpha_amp * np.sin(2 * np.pi * 10.0 * t + rng.uniform(0, 2 * np.pi))
        beta = tilt * beta_amp * np.sin(2 * np.pi * 22.0 * t + rng.uniform(0, 2 * np.pi))
        rows.append(scale * (alpha + beta + 0.6 * rng.standard_normal(t.size)))
    return SignalEpoch(np.vstack(rows), FS)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="signal_features.csv")
    parser.add_argument("--subjects", type=int, default=3)
    parser.add_argument("--epochs-per-class", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    bands = standard_bands()
    feats, labels, subjects = [], [], []
    for subject in range(args.subjects):
        for label in (0, 1):
            for _ in range(args.epochs_per_class):
                epoch = synth_epoch(rng, subject, label)
                feats.append(differential_entropy(epoch, bands))
                labels.append(label)
                subjects.append(subject)
    ds = DomainDataset(
        np.vstack(feats), np.array(labels), np.array(subjects),
        np.zeros(len(labels), dtype=int),
        tuple(f"ch{c}_{b.name}" for c in range(CHANNELS) for b in bands),
    )
    save_csv(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} m={ds.m} subjects={args.subjects}")

    cfg = ExperimentConfig(
        dataset=args.out,
        protocol="loso",
        strategies=(NormStrategy.NO_NORM, NormStrategy.Z0, NormStrategy.Z2),
        methods=(MethodSpec("noDA-SVM"), MethodSpec("TCA-SVM")),
        seed=args.seed,
    )
    print(emit_table(run_experiment(cfg).cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
