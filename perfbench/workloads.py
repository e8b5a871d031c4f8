"""The benchmark's three workloads.

Each workload is a fixed pool of instances. An instance is a data seed; it
fixes the generated inputs, the experiment's root seed, and the reference
accuracies recorded for it in reference.json. `prepare` builds the inputs
(timed as set-up), `execute` runs the program from ready inputs to a
written report directory (timed as run_s).

- headline-loso: the criterion-1 comparison, {noNorm, Z2} x {noDA-SVM,
  TCA-SVM} over LOSO folds of 6 subjects x 8 features with shift 10. The
  SMO solver does nearly all of its work.
- deep-grid: the scripts/full_grid.py data and TrainConfig, all six
  strategies x {noDA-ANN, DANN, ADDA}. The deep trainers do nearly all of
  its work and no SVM runs.
- hlso-signal-cli: raw multichannel epochs (8 subjects x 3 sessions) go
  through differential entropy over the five standard bands, are written
  to CSV and run through `normda run` on HLSO folds with two pool workers:
  six strategies x {noDA-SVM rbf with a C grid, KPCA-SVM rbf}, projections
  on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

# normda is imported inside functions: run.py imports this module in the
# parent process, which must start (and fail cleanly) without the package.

SIGNAL_FS = 200.0
SIGNAL_CHANNELS = 4


def _synthetic(**overrides):
    from normda.dataset import SyntheticShiftConfig

    return SyntheticShiftConfig(**overrides)


class Workload:
    name = ""
    instances: tuple[int, ...] = ()
    jobs = 1

    def config(self, seed: int, outdir: Path):
        raise NotImplementedError

    def prepare(self, seed: int, outdir: Path):
        """Build the inputs the program receives: the config, plus the
        dataset and its folds as `normda run` would resolve them."""
        from normda import bench

        cfg = self.config(seed, outdir)
        ds = bench.resolve_dataset(cfg)
        bench.folds_for(ds, cfg.protocol)
        return cfg

    def execute(self, cfg, outdir: Path):
        from normda import bench

        report = bench.run_experiment(cfg, jobs=self.jobs)
        bench.write_report(report, outdir)


class HeadlineLoso(Workload):
    name = "headline-loso"
    # 7 is the criterion-1 seed; the next two widen the pool.
    instances = (7, 8, 9)

    def config(self, seed, outdir):
        from normda.bench import ExperimentConfig, MethodSpec
        from normda.normalize import NormStrategy

        return ExperimentConfig(
            dataset=_synthetic(
                n_subjects=6, n_sessions=1, n_classes=2, samples_per_class_per_domain=25,
                dim=8, class_separation=4.0, domain_shift_scale=10.0, noise_std=1.0, seed=seed,
            ),
            protocol="loso",
            strategies=(NormStrategy.NO_NORM, NormStrategy.Z2),
            methods=(MethodSpec("noDA-SVM"), MethodSpec("TCA-SVM")),
            seed=seed,
            output_dir=str(outdir),
        )


class DeepGrid(Workload):
    name = "deep-grid"
    # 0 is scripts/full_grid.py's default seed.
    instances = (0, 1, 2)

    def config(self, seed, outdir):
        from normda.bench import ExperimentConfig, MethodSpec
        from normda.deep import TrainConfig
        from normda.normalize import NormStrategy

        train = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=60, patience=10)
        deep = dict(hidden=(16,), feature_dim=8, train=train)
        return ExperimentConfig(
            dataset=_synthetic(
                n_subjects=4, n_sessions=1, n_classes=2, samples_per_class_per_domain=60,
                dim=8, class_separation=4.0, domain_shift_scale=8.0, domain_scale_jitter=0.1,
                noise_std=1.0, seed=seed,
            ),
            protocol="loso",
            strategies=tuple(NormStrategy),
            methods=(
                MethodSpec("noDA-ANN", **deep),
                MethodSpec("DANN", **deep),
                MethodSpec("ADDA", **deep),
            ),
            seed=seed,
            output_dir=str(outdir),
        )


class HlsoSignalCli(Workload):
    name = "hlso-signal-cli"
    instances = (0, 1, 2, 3, 4, 5)
    jobs = 2
    subjects, sessions, epochs_per_class = 8, 3, 10
    # Per-epoch log-amplitude jitter of each rhythm; it blurs the class
    # contrast so normalized cells stay below 100 %.
    amplitude_jitter = 0.35

    def prepare(self, seed, outdir):
        return {"seed": seed, "epochs": self.synth_epochs(seed)}

    def synth_epochs(self, seed: int) -> list[tuple[int, int, int, np.ndarray]]:
        """(subject, session, label, epochs x channels x time) blocks.

        Classes shade the alpha/beta power ratio. Subjects differ by a gain
        and a spectral tilt, sessions by a drift of both, so the class
        contrast is confounded across domains until a per-domain
        normalization removes it.
        """
        rng = np.random.default_rng(seed)
        t = np.arange(int(SIGNAL_FS)) / SIGNAL_FS
        shape = (self.epochs_per_class, SIGNAL_CHANNELS, 1)
        channel_gain = (1.0 + 0.3 * np.arange(SIGNAL_CHANNELS))[None, :, None]
        blocks = []
        for subject in range(self.subjects):
            gain, tilt = 1.6**subject, 1.0 + 0.6 * subject
            for session in range(self.sessions):
                drift = 1.0 + 0.25 * session * rng.uniform(0.5, 1.5)
                for label, (a_amp, b_amp) in enumerate(((1.0, 0.55), (0.7, 0.85))):
                    jitter = np.exp(self.amplitude_jitter * rng.standard_normal((2, *shape)))
                    phase = rng.uniform(0.0, 2.0 * np.pi, (2, *shape))
                    alpha = a_amp * jitter[0] * np.sin(2 * np.pi * 10.0 * t + phase[0])
                    beta = tilt * drift * b_amp * jitter[1] * np.sin(2 * np.pi * 22.0 * t + phase[1])
                    noise = 0.8 * rng.standard_normal((self.epochs_per_class, SIGNAL_CHANNELS, t.size))
                    blocks.append((subject, session, label, gain * drift * channel_gain * (alpha + beta + noise)))
        return blocks

    def execute(self, inputs, outdir):
        from normda import cli
        from normda.dataset import DomainDataset, save_csv
        from normda.features import SignalEpoch, differential_entropy, standard_bands

        bands = standard_bands()
        feats, labels, subjects, sessions = [], [], [], []
        for subject, session, label, epochs in inputs["epochs"]:
            for samples in epochs:
                feats.append(differential_entropy(SignalEpoch(samples, SIGNAL_FS), bands))
                labels.append(label)
                subjects.append(subject)
                sessions.append(session)
        ds = DomainDataset(
            np.vstack(feats), np.array(labels), np.array(subjects), np.array(sessions),
            tuple(f"ch{c}_{b.name}" for c in range(SIGNAL_CHANNELS) for b in bands),
        )
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir.parent / f"{outdir.name}-features.csv"
        cfg_path = outdir.parent / f"{outdir.name}-config.json"
        save_csv(ds, csv_path)
        rbf = {"kind": "rbf", "gamma": None}
        config = {
            "dataset": {"csv": str(csv_path)},
            "protocol": "hlso",
            "strategies": ["noNorm", "Z0", "Z1", "Z2", "Z3", "MinMax"],
            "methods": [
                {"kind": "noDA-SVM", "kernel": rbf},
                {"kind": "KPCA-SVM", "kernel": rbf, "svm_kernel": rbf, "dim": 4},
            ],
            "grids": {"noDA-SVM": {"C": [0.1, 1.0, 10.0]}},
            "seed": inputs["seed"],
            "emit_projections": True,
        }
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["run", "--config", str(cfg_path), "--out", str(outdir), "--jobs", str(self.jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"normda {' '.join(argv)} exited with {code}")


WORKLOADS = {w.name: w for w in (HeadlineLoso(), DeepGrid(), HlsoSignalCli())}


# ---------------------------------------------------------------------------
# Reading a written report


def read_cells(outdir: Path) -> dict[str, float | None]:
    """Cell mean accuracy from report.csv, keyed 'strategy/method'; None
    for a FAIL cell."""
    lines = (outdir / "report.csv").read_text(encoding="utf-8").strip().splitlines()
    cells = {}
    for line in lines[1:]:
        strategy, method, _, mean, _, status = line.split(",")
        cells[f"{strategy}/{method}"] = float(mean) if status == "ok" else None
    return cells


def failed_fits(outdir: Path, n_folds: int) -> tuple[int, int]:
    """(failed, attempted) (strategy, fold, method) fits from report.md."""
    text = (outdir / "report.md").read_text(encoding="utf-8")
    cells = [line for line in text.splitlines() if line.startswith("- ") and " / " in line]
    failures = [line for line in text.splitlines() if line.startswith("  - FAILED: ")]
    failed = sum(line.count("fold=") for line in failures)
    return failed, len(cells) * n_folds


def cell_seconds(outdir: Path) -> float:
    """Sum of the per-cell seconds report.md lists."""
    text = (outdir / "report.md").read_text(encoding="utf-8")
    total = 0.0
    for line in text.splitlines():
        if line.startswith("- ") and " / " in line:
            total += float(line.rsplit(":", 1)[1])
    return total


def folds_sha256(outdir: Path) -> str:
    return hashlib.sha256((outdir / "folds.csv").read_bytes()).hexdigest()


def n_folds(outdir: Path) -> int:
    lines = (outdir / "report.csv").read_text(encoding="utf-8").strip().splitlines()
    return int(lines[1].split(",")[2])
