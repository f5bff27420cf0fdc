"""Training entry points with on-disk weight caching.

Training is deterministic given the dataset/train configs, so results
are cached under ``~/.cache/repro/classifiers`` keyed by the combined
config hash — the closed-loop experiments and the test suite reuse the
artifacts instead of retraining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.classifiers.dataset import (
    ClassifierDataset,
    DatasetConfig,
    generate_dataset,
)
from repro.classifiers.models import SituationClassifier, build_tiny_resnet
from repro.nn.serialize import load_state, model_state
from repro.nn.trainer import TrainConfig, Trainer
from repro.utils.cache import ArtifactCache, default_cache_dir

__all__ = ["TrainedClassifier", "train_classifier", "train_all_classifiers"]


@dataclass
class TrainedClassifier:
    """A trained classifier plus its validation accuracy."""

    classifier: SituationClassifier
    val_accuracy: float
    n_train: int
    n_val: int
    epochs_run: int
    from_cache: bool


def train_classifier(
    name: str,
    dataset_config: Optional[DatasetConfig] = None,
    train_config: TrainConfig = TrainConfig(),
    use_cache: bool = True,
    verbose: bool = False,
    dataset: Optional[ClassifierDataset] = None,
) -> TrainedClassifier:
    """Train (or load from cache) one of the three classifiers.

    Parameters
    ----------
    name:
        ``"road"``, ``"lane"`` or ``"scene"``.
    dataset_config:
        Dataset generation parameters (defaults to the Table IV split).
    dataset:
        Pre-generated dataset (skips generation; caching still applies).
    """
    dataset_config = dataset_config or DatasetConfig(classifier=name)
    if dataset_config.classifier != name:
        raise ValueError(
            f"dataset config is for {dataset_config.classifier!r}, not {name!r}"
        )
    # The road task (curvature from a small frame) is the hardest of the
    # three; it gets a wider network, as the paper gives every task the
    # full ResNet-18 capacity.
    widths = {"road": (12, 24), "lane": (8, 16), "scene": (8, 16)}[name]

    cache = ArtifactCache(default_cache_dir() / "classifiers", enabled=use_cache)
    cache_key = {
        "dataset": dataset_config.to_config(),
        "train": {
            "epochs": train_config.epochs,
            "batch_size": train_config.batch_size,
            "lr": train_config.lr,
            "lr_decay": train_config.lr_decay,
            "lr_decay_at": train_config.lr_decay_at,
            "weight_decay": train_config.weight_decay,
            "seed": train_config.seed,
        },
        "arch": f"tiny-resnet-{widths[0]}-{widths[1]}",
    }

    n_classes = {"road": 3, "lane": 4, "scene": 5}[name]
    model = build_tiny_resnet(n_classes, widths=widths, seed=train_config.seed)

    cached = cache.load(cache_key)
    if cached is not None:
        load_state(model, {k: v for k, v in cached.items() if k.startswith(("param_", "bn_"))})
        classifier = _wrap(name, model, dataset_config)
        return TrainedClassifier(
            classifier=classifier,
            val_accuracy=float(cached["val_accuracy"][()]),
            n_train=int(cached["n_train"][()]),
            n_val=int(cached["n_val"][()]),
            epochs_run=int(cached["epochs_run"][()]),
            from_cache=True,
        )

    if dataset is None:
        dataset = generate_dataset(dataset_config)
    trainer = Trainer(model, train_config)
    report = trainer.fit(
        dataset.x_train,
        dataset.y_train,
        dataset.x_val,
        dataset.y_val,
        verbose=verbose,
    )
    val_accuracy = report.final_val_accuracy

    state = model_state(model)
    state["val_accuracy"] = np.array(val_accuracy)
    state["n_train"] = np.array(dataset.x_train.shape[0])
    state["n_val"] = np.array(dataset.x_val.shape[0])
    state["epochs_run"] = np.array(report.epochs_run)
    cache.store(cache_key, state)

    classifier = _wrap(name, model, dataset_config)
    return TrainedClassifier(
        classifier=classifier,
        val_accuracy=val_accuracy,
        n_train=dataset.x_train.shape[0],
        n_val=dataset.x_val.shape[0],
        epochs_run=report.epochs_run,
        from_cache=False,
    )


def _wrap(name, model, dataset_config) -> SituationClassifier:
    from repro.classifiers.dataset import LANE_CLASSES, ROAD_CLASSES, SCENE_CLASSES

    classes = {"road": ROAD_CLASSES, "lane": LANE_CLASSES, "scene": SCENE_CLASSES}[name]
    return SituationClassifier(name, model, classes, dataset_config.input_shape)


def train_all_classifiers(
    use_cache: bool = True,
    verbose: bool = False,
    train_config: TrainConfig = TrainConfig(),
) -> Dict[str, TrainedClassifier]:
    """Train (or load) the road, lane and scene classifiers."""
    return {
        name: train_classifier(
            name, use_cache=use_cache, verbose=verbose, train_config=train_config
        )
        for name in ("road", "lane", "scene")
    }
