"""Tests for the camera model, sensor and road-scene renderer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.situation import LaneColor, LaneForm, Scene, situation_by_index
from repro.sim.camera import CameraModel
from repro.sim.geometry import Pose2D, rotation_matrix
from repro.sim.photometry import SCENE_PHOTOMETRY, photometry_for
from repro.sim.renderer import (
    DASH_LENGTH,
    DASH_PERIOD,
    DOUBLE_LINE_HALF_WIDTH,
    DOUBLE_LINE_OFFSET,
    MARK_HALF_WIDTH,
    RETROREFLECTIVE_GAIN,
    ROAD_ALBEDO,
    SHOULDER_ALBEDO,
    WHITE_ALBEDO,
    YELLOW_ALBEDO,
    RenderOptions,
    RoadSceneRenderer,
    render_raw_batch,
)
from repro.sim.sensor import add_sensor_noise, bayer_channel_masks, mosaic
from repro.sim.world import fig7_track, static_situation_track
from repro.utils.rng import derive_rng


class TestCameraModel:
    def test_ground_map_shapes(self, small_camera):
        gm = small_camera.ground_map()
        assert gm.forward.shape == (small_camera.height, small_camera.width)
        assert gm.on_ground.dtype == bool

    def test_ground_points_are_in_front(self, small_camera):
        gm = small_camera.ground_map()
        assert np.all(gm.forward[gm.on_ground] >= small_camera.min_distance)
        assert np.all(gm.forward[gm.on_ground] <= small_camera.max_distance)

    def test_no_ground_above_horizon(self, small_camera):
        gm = small_camera.ground_map()
        horizon = small_camera.horizon_row()
        assert not gm.on_ground[: max(horizon, 0)].any()

    def test_projection_round_trip(self, small_camera):
        gm = small_camera.ground_map()
        rows, cols = np.nonzero(gm.on_ground)
        take = slice(0, None, 97)
        fwd = gm.forward[rows[take], cols[take]]
        lat = gm.lateral[rows[take], cols[take]]
        u, v = small_camera.project(fwd, lat)
        np.testing.assert_allclose(u, cols[take], atol=0.1)
        np.testing.assert_allclose(v, rows[take], atol=0.1)

    def test_center_pixel_looks_straight(self, small_camera):
        gm = small_camera.ground_map()
        col = small_camera.width // 2
        rows = np.nonzero(gm.on_ground[:, col])[0]
        lat = gm.lateral[rows, col]
        fwd = gm.forward[rows, col]
        # The column sits half a pixel off the optical center, so the
        # lateral offset grows linearly with distance; bound the angle.
        assert np.all(np.abs(lat) < 0.01 * fwd + 0.02)

    def test_scaled_keeps_field_of_view(self):
        cam = CameraModel(width=512, height=256)
        half = cam.scaled(256, 128)
        # Same ray direction at the image corner -> same ground point.
        gm_full = cam.ground_map()
        gm_half = half.ground_map()
        assert gm_full.forward[255, 0] == pytest.approx(
            gm_half.forward[127, 0], rel=0.05
        )

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(width=0, height=10)


class TestSensor:
    def test_bayer_masks_partition(self):
        r, g, b = bayer_channel_masks(6, 8)
        total = r.astype(int) + g.astype(int) + b.astype(int)
        assert np.all(total == 1)
        assert g.sum() == 2 * r.sum() == 2 * b.sum()

    def test_mosaic_picks_correct_channels(self):
        rgb = np.zeros((4, 4, 3), dtype=np.float32)
        rgb[..., 0] = 1.0
        rgb[..., 1] = 2.0
        rgb[..., 2] = 3.0
        raw = mosaic(rgb)
        assert raw[0, 0] == 1.0  # R
        assert raw[0, 1] == 2.0  # G
        assert raw[1, 0] == 2.0  # G
        assert raw[1, 1] == 3.0  # B

    def test_mosaic_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            mosaic(np.zeros((4, 4)))

    def test_noise_zero_levels_is_identity(self, rng):
        raw = rng.random((8, 8)).astype(np.float32)
        out = add_sensor_noise(raw, np.random.default_rng(0), 0.0, 0.0)
        np.testing.assert_allclose(out, raw)

    def test_noise_clips_to_unit_interval(self):
        raw = np.ones((16, 16), dtype=np.float32)
        out = add_sensor_noise(raw, np.random.default_rng(0), 0.5, 0.5)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_noise_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            add_sensor_noise(np.zeros((2, 2)), np.random.default_rng(0), -0.1, 0.0)

    @given(st.floats(min_value=0.0, max_value=0.05))
    @settings(max_examples=20, deadline=None)
    def test_noise_scale_bounded(self, level):
        raw = np.full((32, 32), 0.5, dtype=np.float32)
        out = add_sensor_noise(raw, np.random.default_rng(1), level, 0.0)
        # 6-sigma bound on the deviation of the mean.
        assert abs(float(out.mean()) - 0.5) < max(6 * level / 32, 1e-6)


class TestPhotometry:
    def test_all_scenes_registered(self):
        for scene in Scene:
            assert photometry_for(scene) is SCENE_PHOTOMETRY[scene]

    def test_day_is_brightest(self):
        day = photometry_for(Scene.DAY).exposure
        for scene in (Scene.NIGHT, Scene.DARK, Scene.DAWN, Scene.DUSK):
            assert photometry_for(scene).exposure < day

    def test_dark_noisier_than_day(self):
        assert (
            photometry_for(Scene.DARK).read_noise
            > photometry_for(Scene.DAY).read_noise
        )


class TestRenderer:
    def test_rgb_shape_and_range(self, day_renderer, day_track, small_camera):
        rgb = day_renderer.render_rgb(day_track.pose_at(30.0))
        assert rgb.shape == (small_camera.height, small_camera.width, 3)
        assert rgb.dtype == np.float32
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_raw_is_bayer_plane(self, day_renderer, day_track, small_camera):
        raw = day_renderer.render_raw(day_track.pose_at(30.0))
        assert raw.shape == (small_camera.height, small_camera.width)

    def test_lane_markings_visible(self, day_renderer, day_track, small_camera):
        """The left (continuous) marking must produce bright pixels on
        the left half of the lower image."""
        rgb = day_renderer.render_rgb(day_track.pose_at(30.0))
        lower = rgb[small_camera.height // 2 :, : small_camera.width // 2]
        road_level = np.median(lower)
        assert lower.max() > road_level + 0.2

    def test_night_darker_than_day(self, day_renderer, day_track):
        pose = day_track.pose_at(30.0)
        day = day_renderer.render_rgb(pose, Scene.DAY)
        night = day_renderer.render_rgb(pose, Scene.NIGHT)
        assert night.mean() < day.mean() * 0.6

    def test_scene_from_track_sector(self, small_camera, dynamic_track):
        renderer = RoadSceneRenderer(small_camera, dynamic_track, seed=0)
        # Sector 9 of the Fig. 7 track is dark.
        pose = dynamic_track.pose_at(850.0)
        assert renderer.scene_at(pose) == Scene.DARK

    def test_noise_disabled_is_deterministic(self, small_camera, day_track):
        options = RenderOptions(noise=False)
        r1 = RoadSceneRenderer(small_camera, day_track, options=options, seed=0)
        r2 = RoadSceneRenderer(small_camera, day_track, options=options, seed=99)
        pose = day_track.pose_at(25.0)
        np.testing.assert_array_equal(r1.render_raw(pose), r2.render_raw(pose))

    def test_dotted_lane_has_gaps(self, small_camera):
        """A dotted marking must disappear in dash gaps along s."""
        situation = situation_by_index(2)  # straight, white dotted
        track = static_situation_track(situation, length=300.0)
        renderer = RoadSceneRenderer(
            small_camera, track, options=RenderOptions(noise=False), seed=0
        )
        # Left half max brightness at many longitudinal offsets: with a
        # dotted left lane it must vary strongly (dash vs gap).
        maxima = []
        for s in np.arange(30.0, 70.0, 1.5):
            rgb = renderer.render_rgb(track.pose_at(float(s)), Scene.DAY)
            strip = rgb[small_camera.height * 2 // 3 :, : small_camera.width // 2]
            maxima.append(float(strip.max()))
        maxima = np.array(maxima)
        assert maxima.max() - maxima.min() > 0.2

    def test_yellow_lane_is_yellow(self, small_camera):
        situation = situation_by_index(3)  # yellow continuous
        track = static_situation_track(situation, length=200.0)
        renderer = RoadSceneRenderer(
            small_camera, track, options=RenderOptions(noise=False), seed=0
        )
        rgb = renderer.render_rgb(track.pose_at(30.0), Scene.DAY)
        lower_left = rgb[small_camera.height // 2 :, : small_camera.width // 2]
        # Find the brightest pixel: it should be the marking, with R >> B.
        idx = np.unravel_index(
            np.argmax(lower_left[..., 0] + lower_left[..., 1]), lower_left.shape[:2]
        )
        pixel = lower_left[idx]
        assert pixel[0] > 2.0 * pixel[2]


# ----------------------------------------------------------------------
# Render-kernel equivalence: every public entry point agrees bitwise.
# ----------------------------------------------------------------------

_EQUIVALENCE_SIZES = ((48, 24), (96, 48), (384, 192))


def _assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32))


def _grazing_offsets(camera: CameraModel, lane_width: float) -> list:
    """Vehicle lateral offsets that put a near-field pixel on a coverage edge.

    On a straight stretch a pixel's road offset is the vehicle offset
    plus the pixel's lateral ground coordinate, so these offsets place
    the bottom-centre pixel exactly where the marking coverage reaches
    zero: outside the left single line, outside the left double line
    and inside the right line.
    """
    gm = camera.ground_map()
    row, col = camera.height - 1, camera.width // 2
    lat = float(gm.lateral[row, col])
    reach = 0.5 * max(float(gm.lateral_footprint[row, col]), 1e-4)
    half = lane_width / 2.0
    single = MARK_HALF_WIDTH + reach
    double = DOUBLE_LINE_OFFSET + DOUBLE_LINE_HALF_WIDTH + reach
    return [half + single - lat, half + double - lat, -half + single - lat]


def _equivalence_scenarios(camera: CameraModel) -> list:
    """``(track, poses)`` for the 21 Table III situations and Fig. 7."""
    offsets = _grazing_offsets(camera, RenderOptions().lane_width)
    scenarios = []
    for index in range(1, 22):
        track = static_situation_track(situation_by_index(index), length=120.0)
        poses = [
            track.pose_at(44.0 + 3.7 * k, offset) for k, offset in enumerate(offsets)
        ]
        scenarios.append((track, poses))
    track = fig7_track()
    # Just before the double, dotted, night and dark sectors, so frames
    # span a sector boundary.
    starts = [track.segments[k].s_start for k in (4, 5, 7, 8)]
    poses = [
        track.pose_at(s - 8.0, offsets[k % len(offsets)])
        for k, s in enumerate(starts)
    ]
    scenarios.append((track, poses))
    return scenarios


def _check_kernel_equivalence(camera: CameraModel, track, poses, seed: int) -> None:
    quiet = RoadSceneRenderer(camera, track, RenderOptions(noise=False), seed=seed)
    noisy = RoadSceneRenderer(camera, track, seed=seed)
    stream = derive_rng(seed, "camera-noise")
    for pose in poses:
        expected = mosaic(quiet.render_rgb(pose))
        _assert_bitwise(quiet.render_raw(pose), expected)
        photometry = photometry_for(noisy.scene_at(pose))
        _assert_bitwise(
            noisy.render_raw(pose),
            add_sensor_noise(
                expected, stream, photometry.read_noise, photometry.shot_noise
            ),
        )

    # Lanes in different scenes (explicit overrides plus the track's own)
    # in one batch; each lane matches its own one-frame render.
    scenes = list(Scene)
    lane_poses = list(poses) + [poses[0]]
    lane_scenes = [scenes[(seed + k) % len(scenes)] for k in range(len(poses))]
    lane_scenes.append(None)
    for options in (RenderOptions(noise=False), RenderOptions()):
        lanes = [
            RoadSceneRenderer(camera, track, options, seed=seed + k)
            for k in range(len(lane_poses))
        ]
        stacked = render_raw_batch(lanes, lane_poses, lane_scenes)
        assert stacked.shape == (len(lane_poses), camera.height, camera.width)
        for k, (pose, scene) in enumerate(zip(lane_poses, lane_scenes)):
            solo = RoadSceneRenderer(camera, track, options, seed=seed + k)
            _assert_bitwise(stacked[k], solo.render_raw(pose, scene))


class TestKernelEquivalence:
    """``render_raw``, ``render_rgb`` and ``render_raw_batch`` agree bitwise.

    Covers every Table III lane form x colour x scene plus the Fig. 7
    track, at poses whose near-field pixels graze a marking's coverage
    edge, so any shortcut in the marking field or the Bayer sampling
    that changes a single bit shows up here.
    """

    @pytest.mark.parametrize("size", _EQUIVALENCE_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_all_situations(self, size):
        camera = CameraModel(width=size[0], height=size[1])
        for seed, (track, poses) in enumerate(_equivalence_scenarios(camera)):
            _check_kernel_equivalence(camera, track, poses, seed)

    def test_paper_resolution_pose(self):
        camera = CameraModel(width=512, height=256)
        track = static_situation_track(situation_by_index(10), length=120.0)
        offset = _grazing_offsets(camera, RenderOptions().lane_width)[1]
        _check_kernel_equivalence(camera, track, [track.pose_at(47.0, offset)], 3)


def _reference_coverage(delta, s, double_form, dotted_form, lat_fp, fwd_fp):
    """Marking coverage evaluated on every pixel (no reach cut)."""

    def line(offset, half_width):
        return np.clip((half_width - np.abs(offset)) / lat_fp + 0.5, 0.0, 1.0)

    single = line(delta, MARK_HALF_WIDTH)
    double = np.maximum(
        line(delta - DOUBLE_LINE_OFFSET, DOUBLE_LINE_HALF_WIDTH),
        line(delta + DOUBLE_LINE_OFFSET, DOUBLE_LINE_HALF_WIDTH),
    )
    dash_pos = np.mod(s, DASH_PERIOD)
    dash = np.clip(
        (DASH_LENGTH / 2.0 - np.abs(dash_pos - DASH_LENGTH / 2.0)) / fwd_fp + 0.5,
        0.0,
        1.0,
    )
    return np.where(double_form, double, single) * np.where(dotted_form, dash, 1.0)


def _reference_rgb(renderer: RoadSceneRenderer, pose: Pose2D, scene=None) -> np.ndarray:
    """Full-field reference render: every channel, marking field everywhere.

    The renderer's arithmetic op by op, without its shortcuts (one
    channel per pixel, the marking field only within reach of a
    marking), built from the camera's ground map and the track alone.
    """
    camera, track, opts = renderer.camera, renderer.track, renderer.options
    gm = camera.ground_map()
    vidx = np.nonzero(gm.on_ground.ravel())[0]
    fwd = gm.forward.ravel()[vidx].astype(np.float32)
    lat = gm.lateral.ravel()[vidx].astype(np.float32)
    lat_fp = np.maximum(gm.lateral_footprint.ravel()[vidx], 1e-4).astype(np.float32)
    fwd_fp = np.maximum(gm.forward_footprint.ravel()[vidx], 1e-4).astype(np.float32)
    local = np.stack([fwd, lat], axis=-1)

    s_vehicle, _ = track.frenet(pose.x, pose.y)
    if scene is None:
        scene = track.situation_at(s_vehicle).scene
    photometry = photometry_for(scene)
    world = np.empty_like(local)
    np.matmul(local, rotation_matrix(pose.heading).astype(np.float32).T, out=world)
    world += pose.position().astype(np.float32)
    window = (s_vehicle - 25.0, s_vehicle + camera.max_distance + 30.0)
    s, d, on_track = track.locate_points(world, window)
    s = np.where(on_track, s, np.float32(0.0))
    d = np.where(on_track, d, np.float32(1e6))

    half = opts.lane_width / 2.0
    on_road = (d >= -(half + opts.right_shoulder)) & (d <= half + opts.adjacent_lane_width)
    albedo = np.where(on_road[:, None], ROAD_ALBEDO[None, :], SHOULDER_ALBEDO[None, :])
    q = np.sin(s * 12.9898 + d * 78.233) * 43758.5453
    texture = np.float32(opts.texture_amplitude) * (2.0 * (q - np.floor(q)) - 1.0)
    albedo *= np.float32(1.0) + texture[:, None]

    bounds = np.array([seg.s_start for seg in track.segments])
    seg_idx = (np.searchsorted(bounds, s, side="right") - 1).clip(
        0, len(track.segments) - 1
    )
    situations = [track.segments[i].situation for i in seg_idx]
    double_form = np.array([x.lane_form is LaneForm.DOUBLE for x in situations])
    dotted_form = np.array([x.lane_form is LaneForm.DOTTED for x in situations])
    yellow = np.array([x.lane_color is LaneColor.YELLOW for x in situations])
    left = _reference_coverage(d - half, s, double_form, dotted_form, lat_fp, fwd_fp)
    right = _reference_coverage(d + half, s, False, True, lat_fp, fwd_fp)
    left_color = np.where(yellow[:, None], YELLOW_ALBEDO[None, :], WHITE_ALBEDO[None, :])
    albedo += left[:, None] * (left_color - albedo)
    albedo += right[:, None] * (WHITE_ALBEDO[None, :] - albedo)

    if np.isfinite(photometry.headlight_falloff):
        illum = np.float32(photometry.exposure) * (
            np.float32(0.25)
            + np.float32(0.75) * np.exp(-fwd / np.float32(photometry.headlight_falloff))
        )
        retro = np.float32(1.0) + np.float32(RETROREFLECTIVE_GAIN) * np.maximum(left, right)
        albedo *= (illum * retro)[:, None]
    else:
        albedo *= np.float32(photometry.exposure)
    albedo *= photometry.tint_array().astype(np.float32)
    albedo += np.float32(photometry.ambient)

    frame = np.empty((camera.height * camera.width, 3), dtype=np.float32)
    frame[:] = (photometry.sky_array() * max(photometry.exposure, 0.05)).astype(
        np.float32
    )
    frame[vidx] = albedo
    np.clip(frame, 0.0, 1.0, out=frame)
    return frame.reshape(camera.height, camera.width, 3)


class TestFullFieldReference:
    """The kernel equals a full-field RGB reference render bitwise.

    The reference evaluates all three channels and the marking field on
    every ground pixel; the kernel's per-pixel Bayer channel and its
    reach cut around the markings must not change a bit.
    """

    @pytest.mark.parametrize("size", _EQUIVALENCE_SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_reference(self, size):
        camera = CameraModel(width=size[0], height=size[1])
        options = RenderOptions(noise=False)
        scenarios = _equivalence_scenarios(camera)
        if size[0] > 100:
            # Double, dotted, dark and dotted-night situations plus Fig. 7.
            scenarios = [scenarios[i] for i in (1, 3, 6, 13, 21)]
        for track, poses in scenarios:
            renderer = RoadSceneRenderer(camera, track, options)
            scenes = [None] + list(Scene)[: len(poses) - 1]
            for pose, scene in zip(poses, scenes):
                reference = _reference_rgb(renderer, pose, scene)
                _assert_bitwise(renderer.render_rgb(pose, scene), reference)
                _assert_bitwise(renderer.render_raw(pose, scene), mosaic(reference))
            stacked = render_raw_batch([renderer] * len(poses), poses, scenes)
            for k, (pose, scene) in enumerate(zip(poses, scenes)):
                _assert_bitwise(stacked[k], mosaic(_reference_rgb(renderer, pose, scene)))
