"""Projective road-scene renderer (the Webots camera substitute).

For every frame the renderer:

1. transforms the camera's precomputed ground-plane pixel map into the
   world using the vehicle pose,
2. Frenet-projects those ground points onto the track centerline to get
   per-pixel road coordinates ``(s, d)``,
3. evaluates the lane-marking appearance field (color, dash pattern,
   single/double lines, per-sector lane types) with footprint-based
   anti-aliasing — only on pixels within reach of a marking centreline,
   since everywhere else the coverage is exactly 0 and changes nothing,
4. applies the scene photometry (exposure, illuminant tint, headlight
   falloff) of the sector the vehicle is in,
5. writes one colour channel per pixel: the RGGB Bayer plane the
   :mod:`repro.isp` pipeline expects, to which each lane then adds its
   own sensor noise.

Steps 1-5 run as one kernel over a leading batch axis.  It evaluates only
the Bayer channel a pixel keeps, from per-pixel albedo tables built
once per camera and per-photometry planes built once per scene, so the
two thirds of an RGB frame a mosaic would discard are never computed.
:func:`render_raw_batch` renders many lanes in one call and
:meth:`RoadSceneRenderer.render_raw` is its one-lane case;
:meth:`RoadSceneRenderer.render_rgb` is the same kernel run once per
channel with every pixel set to that channel.

The radiance is *linear light*; the tone-mapping ISP stage is what
moves it to a display/perception-friendly domain, which is exactly why
skipping that stage hurts low-light situations in the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.situation import LaneColor, LaneForm, Scene
from repro.sim.camera import CameraModel, GroundMap
from repro.sim.geometry import Pose2D, rotation_matrix
from repro.sim.photometry import ScenePhotometry, photometry_for
from repro.sim.sensor import add_sensor_noise
from repro.sim.track import Track
from repro.utils.rng import derive_rng
from repro.utils.scratch import ScratchCache

__all__ = ["RenderOptions", "RoadSceneRenderer", "render_raw_batch"]

# Lane-marking geometry (metres). Widths follow common road standards.
MARK_HALF_WIDTH = 0.075
DOUBLE_LINE_OFFSET = 0.19
DOUBLE_LINE_HALF_WIDTH = 0.055
DASH_LENGTH = 3.0
DASH_PERIOD = 7.5
#: Extra light returned by retroreflective lane paint under headlights.
RETROREFLECTIVE_GAIN = 0.6

#: Bumped whenever rendered appearance changes; cache keys of artifacts
#: derived from renders (classifier datasets, characterization tables)
#: include it so stale artifacts are regenerated automatically.
RENDERER_VERSION = 4

# Linear-light albedos (float32: the frame math never leaves float32).
WHITE_ALBEDO = np.array([0.85, 0.85, 0.85], dtype=np.float32)
YELLOW_ALBEDO = np.array([0.82, 0.62, 0.10], dtype=np.float32)
ROAD_ALBEDO = np.array([0.21, 0.21, 0.22], dtype=np.float32)
SHOULDER_ALBEDO = np.array([0.10, 0.20, 0.08], dtype=np.float32)

_FORM_CODE = {LaneForm.CONTINUOUS: 0, LaneForm.DOTTED: 1, LaneForm.DOUBLE: 2}
_COLOR_CODE = {LaneColor.WHITE: 0, LaneColor.YELLOW: 1}

#: RGGB channel (0 R, 1 G, 2 B) by (row parity, column parity); the
#: pattern :func:`repro.sim.sensor.mosaic` samples.
_BAYER_CHANNEL = np.array([[0, 1], [1, 2]], dtype=np.int8)


@dataclass(frozen=True)
class RenderOptions:
    """Rendering tweaks that are not situation-dependent.

    Attributes
    ----------
    lane_width:
        Lane width in metres (paper Sec. IV-A: 3.25 m).
    texture_amplitude:
        Amplitude of the position-stable asphalt texture.
    adjacent_lane_width:
        Width of the asphalt strip left of the left marking (the
        oncoming lane); grass begins beyond it.
    right_shoulder:
        Width of the asphalt shoulder right of the right marking.
    noise:
        Whether the RAW output carries sensor noise.
    """

    lane_width: float = 3.25
    texture_amplitude: float = 0.015
    adjacent_lane_width: float = 3.25
    right_shoulder: float = 0.6
    noise: bool = True


@dataclass(frozen=True)
class _ChannelPlan:
    """Which colour channel each pixel of an output plane carries.

    ``frame`` holds the channel (0 R, 1 G, 2 B) of every frame pixel and
    ``ground`` that of every on-ground pixel; ``road`` .. ``yellow`` are
    the material albedos gathered by ``ground``.
    """

    frame: np.ndarray
    ground: np.ndarray
    road: np.ndarray
    shoulder: np.ndarray
    white: np.ndarray
    yellow: np.ndarray


class RoadSceneRenderer:
    """Render RGB / RAW road frames for a vehicle pose on a track."""

    def __init__(
        self,
        camera: CameraModel,
        track: Track,
        options: Optional[RenderOptions] = None,
        seed: int = 0,
    ):
        self.camera = camera
        self.track = track
        self.options = options or RenderOptions()
        self.seed = seed
        self._noise_rng = derive_rng(seed, "camera-noise")
        self._ground: GroundMap = camera.ground_map()
        gm = self._ground
        self._valid = gm.on_ground
        self._vidx = np.nonzero(self._valid.ravel())[0]
        self._fwd = gm.forward.ravel()[self._vidx].astype(np.float32)
        self._lat = gm.lateral.ravel()[self._vidx].astype(np.float32)
        self._lat_fp = np.maximum(
            gm.lateral_footprint.ravel()[self._vidx], 1e-4
        ).astype(np.float32)
        self._fwd_fp = np.maximum(
            gm.forward_footprint.ravel()[self._vidx], 1e-4
        ).astype(np.float32)
        self._local = np.stack([self._fwd, self._lat], axis=-1)
        # Coverage of either marking is exactly 0 once a pixel is farther
        # than the outer double-line edge plus half a footprint from the
        # marking centreline; a whole footprint keeps the cut clear of
        # float32 rounding.
        self._reach = (
            np.float32(DOUBLE_LINE_OFFSET + MARK_HALF_WIDTH) + self._lat_fp
        )
        # Per-segment appearance tables are pose-independent: built once
        # here, reused by every frame (never recomputed per render).
        self._segment_tables = self._build_segment_tables()
        # Per-channel albedo tables (the Bayer plane built up front, the
        # RGB planes on first use) and per-photometry float32 planes:
        # bounded by the four channel plans and the five scenes.
        self._plans: dict = {}
        self._plan(None)
        self._photometry_arrays: dict = {}
        # Reusable per-frame world-point buffer.
        self._scratch = ScratchCache(max_entries=16)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def render_rgb(
        self, pose: Pose2D, scene: Optional[Scene] = None
    ) -> np.ndarray:
        """Render the linear-light RGB frame seen from *pose*.

        When *scene* is ``None`` the scene condition of the sector the
        vehicle currently occupies is used (dynamic-track behaviour).
        The three channels are three passes of the Bayer kernel, each
        with every pixel set to one channel.
        """
        s_vehicle, photometry = self._situate(pose, scene)
        planes = [
            self._render_planes([pose], [s_vehicle], photometry, channel)[0]
            for channel in range(3)
        ]
        return np.stack(planes, axis=-1)

    def render_raw(
        self, pose: Pose2D, scene: Optional[Scene] = None
    ) -> np.ndarray:
        """Render the RGGB Bayer RAW frame (what the ISP consumes).

        The one-lane case of :func:`render_raw_batch`.
        """
        return render_raw_batch([self], [pose], [scene])[0]

    def scene_at(self, pose: Pose2D) -> Scene:
        """The scene condition of the sector containing *pose*."""
        s, _ = self.track.frenet(pose.x, pose.y)
        return self.track.situation_at(s).scene

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _situate(
        self, pose: Pose2D, scene: Optional[Scene]
    ) -> Tuple[float, ScenePhotometry]:
        """Vehicle arc length and the photometry of *scene* (or its sector)."""
        s_vehicle, _ = self.track.frenet(pose.x, pose.y)
        if scene is None:
            scene = self.track.situation_at(s_vehicle).scene
        return s_vehicle, photometry_for(scene)

    def _build_segment_tables(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment (s_start, lane-form code, lane-color code) arrays."""
        bounds = np.array([seg.s_start for seg in self.track.segments])
        forms = np.array(
            [_FORM_CODE[seg.situation.lane_form] for seg in self.track.segments]
        )
        colors = np.array(
            [_COLOR_CODE[seg.situation.lane_color] for seg in self.track.segments]
        )
        return bounds, forms, colors

    def _plan(self, channel: Optional[int]) -> _ChannelPlan:
        """The cached :class:`_ChannelPlan` of one output plane.

        *channel* ``None`` is the RGGB Bayer plane; 0, 1 and 2 put every
        pixel in the R, G or B channel.
        """
        plan = self._plans.get(channel)
        if plan is None:
            height, width = self.camera.height, self.camera.width
            if channel is None:
                frame = _BAYER_CHANNEL[
                    np.arange(height)[:, None] % 2, np.arange(width)[None, :] % 2
                ].ravel()
            else:
                frame = np.full(height * width, channel, dtype=np.int8)
            ground = frame[self._vidx]
            plan = _ChannelPlan(
                frame=frame,
                ground=ground,
                road=ROAD_ALBEDO[ground],
                shoulder=SHOULDER_ALBEDO[ground],
                white=WHITE_ALBEDO[ground],
                yellow=YELLOW_ALBEDO[ground],
            )
            self._plans[channel] = plan
        return plan

    def _photometry_planes(
        self, photometry: ScenePhotometry, channel: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pixel ``(gain, tint, sky)`` float32 planes of one photometry.

        ``gain`` is the exposure times the headlight falloff on the
        ground pixels, ``tint`` the illuminant cast in each ground
        pixel's channel, ``sky`` the clipped frame-sized sky plane.
        Built once per (photometry, channel) pair.
        """
        key = (photometry, channel)
        cached = self._photometry_arrays.get(key)
        if cached is None:
            plan = self._plan(channel)
            exposure = np.float32(photometry.exposure)
            if np.isfinite(photometry.headlight_falloff):
                gain = exposure * (
                    np.float32(0.25)
                    + np.float32(0.75)
                    * np.exp(-self._fwd / np.float32(photometry.headlight_falloff))
                )
            else:
                gain = np.full(self._fwd.shape, exposure, dtype=np.float32)
            tint = photometry.tint_array().astype(np.float32)[plan.ground]
            sky = (photometry.sky_array() * max(photometry.exposure, 0.05)).astype(
                np.float32
            )[plan.frame]
            np.clip(sky, 0.0, 1.0, out=sky)
            cached = (gain, tint, sky)
            self._photometry_arrays[key] = cached
        return cached

    def _render_planes(
        self,
        poses: Sequence[Pose2D],
        s_vehicles: Sequence[float],
        photometry: ScenePhotometry,
        channel: Optional[int] = None,
    ) -> np.ndarray:
        """Render B frames sharing one photometry as ``(B, H, W)`` planes.

        Each pixel carries one colour channel (the RGGB Bayer pattern
        when *channel* is ``None``, else that channel everywhere).  The
        geometry transforms that are not batch-invariant (the pose
        matmul, ``locate_points`` with its per-lane s-window) run per
        lane into views of the stacked buffers; everything after is
        elementwise math over ``(B, N)`` operands, which numpy evaluates
        identically for any B.  The marking field runs only on pixels
        within reach of a marking centreline; everywhere else its
        coverage is exactly 0, which adds ``+0.0`` to the albedo and
        leaves the retroreflection factor at exactly 1.
        """
        cam = self.camera
        opts = self.options
        batch = len(poses)
        n_pts = self._local.shape[0]
        plan = self._plan(channel)
        gain, tint, sky = self._photometry_planes(photometry, channel)

        # 1. ground pixels -> world -> road coordinates (per lane)
        world = self._scratch.get("world-batch", (batch, n_pts, 2))
        s_pt = np.empty((batch, n_pts), dtype=np.float32)
        d_pt = np.empty((batch, n_pts), dtype=np.float32)
        on_track = np.empty((batch, n_pts), dtype=bool)
        for lane, (pose, s_vehicle) in enumerate(zip(poses, s_vehicles)):
            rot = rotation_matrix(pose.heading).astype(np.float32)
            np.matmul(self._local, rot.T, out=world[lane])
            world[lane] += pose.position().astype(np.float32)
            window = (s_vehicle - 25.0, s_vehicle + cam.max_distance + 30.0)
            s_pt[lane], d_pt[lane], on_track[lane] = self.track.locate_points(
                world[lane], window
            )
        s_pt = np.where(on_track, s_pt, np.float32(0.0))
        d_pt = np.where(on_track, d_pt, np.float32(1e6))  # far off-road

        # 2. base albedo: asphalt / shoulder, with position-stable texture
        half = opts.lane_width / 2.0
        on_road = (d_pt >= -(half + opts.right_shoulder)) & (
            d_pt <= half + opts.adjacent_lane_width
        )
        albedo = np.where(on_road, plan.road, plan.shoulder)
        texture = np.float32(opts.texture_amplitude) * _position_hash(s_pt, d_pt)
        albedo *= np.float32(1.0) + texture

        # 3. lane markings, on the pixels within reach of one
        near = np.abs(np.abs(d_pt) - np.float32(half)) < self._reach
        flat = np.flatnonzero(near)
        pix = flat % n_pts
        s_near = s_pt.ravel()[flat]
        d_near = d_pt.ravel()[flat]
        lat_fp = self._lat_fp[pix]
        fwd_fp = self._fwd_fp[pix]
        seg_idx = (
            np.searchsorted(self._segment_tables[0], s_near, side="right") - 1
        ).clip(0, len(self.track.segments) - 1)
        form_code = self._segment_tables[1][seg_idx]
        color_code = self._segment_tables[2][seg_idx]

        left_cov = self._marking_coverage(
            d_near - half, s_near, form_code, lat_fp, fwd_fp
        )
        right_cov = self._marking_coverage(
            d_near + half,
            s_near,
            np.full_like(form_code, _FORM_CODE[LaneForm.DOTTED]),
            lat_fp,
            fwd_fp,
        )
        left_color = np.where(
            color_code == _COLOR_CODE[LaneColor.YELLOW],
            plan.yellow[pix],
            plan.white[pix],
        )
        marked = albedo.ravel()[flat]
        marked += left_cov * (left_color - marked)
        marked += right_cov * (plan.white[pix] - marked)

        # 4. photometry: exposure, headlight falloff, tint, ambient.
        # Lane paint is retroreflective (glass beads): under headlight
        # illumination the markings return extra light to the camera.
        albedo *= gain
        if np.isfinite(photometry.headlight_falloff):
            marking_cov = np.maximum(left_cov, right_cov)
            retro = np.float32(1.0) + np.float32(RETROREFLECTIVE_GAIN) * marking_cov
            marked *= gain[pix] * retro
        else:
            marked *= gain[pix]
        albedo.ravel()[flat] = marked
        albedo *= tint
        albedo += np.float32(photometry.ambient)
        np.clip(albedo, 0.0, 1.0, out=albedo)

        # 5. scatter into the frames; sky everywhere else
        frame = np.empty((batch, cam.height * cam.width), dtype=np.float32)
        frame[:] = sky
        frame[:, self._vidx] = albedo
        return frame.reshape(batch, cam.height, cam.width)

    @staticmethod
    def _marking_coverage(
        delta: np.ndarray,
        s: np.ndarray,
        form_code: np.ndarray,
        lat_fp: np.ndarray,
        fwd_fp: np.ndarray,
    ) -> np.ndarray:
        """Anti-aliased coverage of a marking centred at ``delta == 0``.

        *delta* is the lateral distance to the marking centerline;
        *form_code* selects continuous / dotted / double per point.
        """
        single = _line_coverage(delta, MARK_HALF_WIDTH, lat_fp)
        double = np.maximum(
            _line_coverage(delta - DOUBLE_LINE_OFFSET, DOUBLE_LINE_HALF_WIDTH, lat_fp),
            _line_coverage(delta + DOUBLE_LINE_OFFSET, DOUBLE_LINE_HALF_WIDTH, lat_fp),
        )
        lateral = np.where(form_code == _FORM_CODE[LaneForm.DOUBLE], double, single)
        dash_pos = np.mod(s, DASH_PERIOD)
        dash = np.clip(
            (DASH_LENGTH / 2.0 - np.abs(dash_pos - DASH_LENGTH / 2.0)) / fwd_fp + 0.5,
            0.0,
            1.0,
        )
        modulation = np.where(form_code == _FORM_CODE[LaneForm.DOTTED], dash, 1.0)
        return lateral * modulation


def _line_coverage(delta: np.ndarray, half_width: float, footprint: np.ndarray) -> np.ndarray:
    """Fraction of a pixel's lateral footprint covered by a painted line."""
    return np.clip((half_width - np.abs(delta)) / footprint + 0.5, 0.0, 1.0)


def _position_hash(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cheap position-stable pseudo-noise in [-1, 1] for asphalt texture."""
    q = np.sin(s * 12.9898 + d * 78.233) * 43758.5453
    return 2.0 * (q - np.floor(q)) - 1.0


def render_raw_batch(
    renderers: Sequence[RoadSceneRenderer],
    poses: Sequence[Pose2D],
    scenes: Optional[Sequence[Optional[Scene]]] = None,
) -> np.ndarray:
    """Render one RAW frame per lane in a single batched pass.

    All *renderers* must share the same track object, camera, and
    options (the batched driver groups lanes by exactly that key); the
    leading renderer's precomputed geometry then serves every lane.
    Lanes are sub-grouped by scene photometry so each group renders
    through one Bayer-plane kernel call.  Sensor noise stays strictly
    per-lane: each lane draws from its own ``camera-noise`` stream, one
    draw per frame.  :meth:`RoadSceneRenderer.render_raw` is the
    one-lane case.

    Returns the stacked ``(B, H, W)`` Bayer planes in lane order.
    """
    lead = renderers[0]
    n_lanes = len(renderers)
    if scenes is None:
        scenes = [None] * n_lanes
    for r in renderers:
        if r.track is not lead.track or r.camera != lead.camera or r.options != lead.options:
            raise ValueError(
                "render_raw_batch lanes must share track, camera and options"
            )

    groups: dict = {}
    s_vehicles: List[float] = []
    for lane, (renderer, pose, scene) in enumerate(zip(renderers, poses, scenes)):
        s_vehicle, photometry = renderer._situate(pose, scene)
        s_vehicles.append(s_vehicle)
        groups.setdefault(photometry, []).append(lane)

    cam = lead.camera
    out = np.empty((n_lanes, cam.height, cam.width), dtype=np.float32)
    for photometry, lanes in groups.items():
        raw = lead._render_planes(
            [poses[i] for i in lanes], [s_vehicles[i] for i in lanes], photometry
        )
        for j, i in enumerate(lanes):
            renderer = renderers[i]
            if renderer.options.noise:
                out[i] = add_sensor_noise(
                    raw[j],
                    renderer._noise_rng,
                    photometry.read_noise,
                    photometry.shot_noise,
                )
            else:
                out[i] = raw[j]
    return out
