"""Configurable ISP pipeline executor."""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.isp.configs import IspConfig, isp_config
from repro.isp.stages import (
    IspStage,
    color_map,
    color_map_batch,
    demosaic,
    demosaic_batch,
    denoise,
    denoise_batch,
    gamut_map,
    gamut_map_batch,
    tone_map,
    tone_map_batch,
)
from repro.utils.profiling import profile

__all__ = ["IspPipeline"]

#: Fixed execution order of the stages (Fig. 3a left to right).
_STAGE_ORDER = (
    IspStage.DEMOSAIC,
    IspStage.DENOISE,
    IspStage.COLOR_MAP,
    IspStage.GAMUT_MAP,
    IspStage.TONE_MAP,
)

_STAGE_FN = {
    IspStage.DENOISE: denoise,
    IspStage.COLOR_MAP: color_map,
    IspStage.GAMUT_MAP: gamut_map,
    IspStage.TONE_MAP: tone_map,
}

_STAGE_FN_BATCH = {
    IspStage.DENOISE: denoise_batch,
    IspStage.COLOR_MAP: color_map_batch,
    IspStage.GAMUT_MAP: gamut_map_batch,
    IspStage.TONE_MAP: tone_map_batch,
}

#: Span labels, precomputed so the hot loop does no string work.
_STAGE_LABEL = {stage: f"isp.{stage.name.lower()}" for stage in _STAGE_ORDER}


class IspPipeline:
    """Runs the enabled stages of an :class:`IspConfig` in Fig. 3(a) order.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.isp import IspPipeline
    >>> raw = np.random.default_rng(0).random((16, 16), dtype=np.float32)
    >>> rgb = IspPipeline("S5").process(raw)
    >>> rgb.shape
    (16, 16, 3)
    """

    def __init__(self, config: Union[IspConfig, str]):
        if isinstance(config, str):
            config = isp_config(config)
        self.config = config

    @property
    def name(self) -> str:
        """The Table II name of the active configuration."""
        return self.config.name

    def process(self, raw: np.ndarray, tap=None) -> np.ndarray:
        """Transform a RAW Bayer plane into an RGB frame.

        The output domain depends on the configuration: with tone map it
        is display-referred (gamma-encoded); without it stays linear.
        Downstream perception uses adaptive thresholds to cope with both,
        which is exactly the robustness interplay the paper studies.

        ``tap``, if given, is called as ``tap(stage_label, rgb)`` after
        each executed stage (labels are the Fig. 3a acronyms ``"DM"``
        .. ``"TM"``) and once more as ``tap("output", rgb)`` on the
        final frame, and must return the (possibly replaced) frame.
        This is the fault-injection seam of :mod:`repro.faults`: stage
        corruption attaches here instead of branching inside the
        stages.
        """
        with profile(_STAGE_LABEL[IspStage.DEMOSAIC]):
            rgb = demosaic(raw)
        if tap is not None:
            rgb = tap(IspStage.DEMOSAIC.value, rgb)
        for stage in _STAGE_ORDER[1:]:
            if self.config.has(stage):
                with profile(_STAGE_LABEL[stage]):
                    rgb = _STAGE_FN[stage](rgb)
                if tap is not None:
                    rgb = tap(stage.value, rgb)
        if tap is not None:
            rgb = tap("output", rgb)
        # Every stage output (demosaic included) is a fresh array owned
        # by this call, so the final clip runs in place.
        return np.clip(rgb, 0.0, 1.0, out=rgb)

    def process_batch(self, raw: np.ndarray) -> np.ndarray:
        """Transform stacked RAW planes ``(B, H, W)`` into ``(B, H, W, 3)``.

        One batched kernel call per enabled stage; per-lane statistics
        (white-balance gains, auto-exposure) reduce over each lane's own
        trailing axes, so every lane is bit-identical to
        :meth:`process` of that lane alone.  Profiling spans carry
        ``count=B`` so per-frame means stay comparable with serial runs.
        There is no ``tap`` seam here: lanes with an active ISP fault
        tap must take the serial path (the batched driver does exactly
        that).
        """
        batch = raw.shape[0]
        with profile(_STAGE_LABEL[IspStage.DEMOSAIC], count=batch):
            rgb = demosaic_batch(raw)
        for stage in _STAGE_ORDER[1:]:
            if self.config.has(stage):
                with profile(_STAGE_LABEL[stage], count=batch):
                    rgb = _STAGE_FN_BATCH[stage](rgb)
        return np.clip(rgb, 0.0, 1.0, out=rgb)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        stages = "+".join(s.value for s in self.config.stages)
        return f"IspPipeline({self.config.name}: {stages})"
