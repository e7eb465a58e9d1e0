"""Golden bytes: a tiny corpus run end to end must give the pinned sha256
of every output file, stage by stage, so that a change that moves a bit
the same way on every path (every worker count, every resume) still fails,
naming the first stage whose bytes moved.

The frames are made with integer arithmetic only and written as PGM, so
their bytes do not depend on the numpy build; their digest is pinned too.
Two shard layouts run: three shards of 3, 3 and 2 videos, and eight shards
of one video, whose one-key-by-one-key mean blocks take ``ordered_sum``'s
one-column path. Both must give the same mean_csd.csv and similarity.csv,
as the byte-identity contract says. A change that moves output bits on
purpose updates these digests and says so in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from potsim import layout
from potsim.engine import PipelineConfig, run_extract, run_mean, run_similarity

SIZE = 24
FRAMES = 6
VIDEOS = 8

INPUTS_SHA256 = "351c8255c359c3a2a772f597574dd4c678b5a940dc239106c850726ebe9da4cc"
MEAN_CSD_SHA256 = "5e989d00cc86928b8b003626944764145cf5e91f7168c6f0e3992dbcdd604742"
SIMILARITY_SHA256 = "df4a985de31cc67180620c1b7a0600d837349c2449010e502fd130e6dc36dd0e"
SHARD_SHA256 = {
    3: [
        "11ebc6b225e95f788d91b5df9863b7ab684e9f625962192b21556c3302a7314b",
        "0d79256b7ef2cb6d60950c71ddc08ce54ab2ff89409cba79b5de3a94b258d91f",
        "0d873530fd84aeb534d81522741190796f506577e9c03816f2f7aba6f57add59",
    ],
    1: [
        "4d3ab8ba9113f8445044adc63bbdb490fcedf621840183824ec099e8f022d87d",
        "d916c3af61061816a2931bd58a11ef0729853de186b65339b0e3b07c914f8896",
        "9851c781cc7cd5807fac24ec3190f2b43853d17cab2d3dd9804cfe8b6dc37930",
        "61b920f03d16bac8b1745d259bd32d69ab568bad6d6bc9320aea842ed3ddac86",
        "38c90dc33c1c63214ac63fe2674d4c868bb75f7eb9979bd7bf6426da1c7731ed",
        "34a0d8715f5675280b0b5f52c1773142ae3973c684be21b5ca3a51bfc433ac94",
        "5831b71a5d530094d0142c54ed43c664b7c7a71878dc0738120f645c3d78e467",
        "75e1b332ee3382a117aee0a4bd40489863bd67120230f0a4028da06947ba8131",
    ],
}


def _triangle(z: int, period: int) -> int:
    """A triangle wave of integers in [0, period], of period 2 * period."""
    return abs(z % (2 * period) - period)


def frame_bytes(video: int, t: int) -> bytes:
    """Frame ``t`` of video ``video`` as a binary PGM: two triangle-wave
    gratings moving at the video's own integer velocity, and a bright
    square that moves the other way."""
    vx, vy = video % 3 - 1, (video // 3) % 3 - 1 or 1
    period_x, period_y = 4 + video % 3, 5 + video % 4
    square_x, square_y = (3 * video + 2 * t) % SIZE, (5 * video - t) % SIZE
    pixels = bytearray()
    for y in range(SIZE):
        for x in range(SIZE):
            value = 60 + 9 * _triangle(x - vx * t, period_x) + 7 * _triangle(y - vy * t + video, period_y)
            if (x - square_x) % SIZE < 5 and (y - square_y) % SIZE < 5:
                value += 60
            pixels.append(value)
    return b"P5\n%d %d\n255\n" % (SIZE, SIZE) + bytes(pixels)


def write_corpus(root: Path) -> tuple[Path, str]:
    """The corpus's frame directories and manifest, and the sha256 of the
    manifest and of every frame file's name and bytes, in order."""
    digest = hashlib.sha256()
    lines = []
    for video in range(VIDEOS):
        key = f"clip{video}"
        directory = root / key
        directory.mkdir(parents=True)
        lines.append(f"{key},{key}\n")
        for t in range(FRAMES):
            data = frame_bytes(video, t)
            (directory / f"frame{t:02d}.pgm").write_bytes(data)
            digest.update(f"{key}/frame{t:02d}.pgm\0".encode() + data)
    manifest = root / "manifest.txt"
    manifest.write_text("".join(lines), encoding="utf-8")
    digest.update(manifest.read_bytes())
    return manifest, digest.hexdigest()


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("videos_per_shard", sorted(SHARD_SHA256))
def test_golden_bytes_stage_by_stage(tmp_path, monkeypatch, videos_per_shard):
    monkeypatch.setattr(layout, "VIDEOS_PER_SHARD", videos_per_shard)
    manifest, inputs = write_corpus(tmp_path / "corpus")
    assert inputs == INPUTS_SHA256, "the input frames' bytes moved"
    config = PipelineConfig(
        manifest=str(manifest), out_dir=str(tmp_path / "out"), working_w=SIZE, working_h=SIZE, workers=1
    )

    shards = run_extract(config)
    assert [sha256_of(path) for path in shards] == SHARD_SHA256[videos_per_shard], (
        "extract: the shards' bytes moved"
    )
    run_mean(config)
    assert sha256_of(tmp_path / "out" / "mean_csd.csv") == MEAN_CSD_SHA256, (
        "mean: mean_csd.csv's bytes moved"
    )
    path = run_similarity(config)
    assert sha256_of(path) == SIMILARITY_SHA256, "sim: similarity.csv's bytes moved"
