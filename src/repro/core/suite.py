"""The Agave suite registry: 19 application benchmarks + 6 SPEC baselines.

Benchmark ordering matches the paper's figures exactly (Agave
alphabetically, then SPEC by number).
"""

from __future__ import annotations

import importlib

from repro.core.spec import BenchmarkSpec, Category, Kind
from repro.errors import WorkloadError


class _Model:
    """A workload model class named by module and class.

    Calling it builds a model for a seed, exactly like calling the
    class; the module is imported on the first call.  Naming models
    rather than importing them keeps the catalog (ids, kinds,
    descriptions) free of the simulator, which a listing or a
    warm-cache replay never runs.
    """

    def __init__(self, module: str, name: str) -> None:
        self.module = module
        self.name = name

    def __call__(self, seed: int) -> object:
        return getattr(importlib.import_module(self.module), self.name)(seed)


def _android(bench_id, category, description, module, name, background=False):
    return BenchmarkSpec(
        bench_id, Kind.ANDROID, category, description,
        _Model(f"repro.apps.{module}", name), background,
    )


def _spec(bench_id, description, module, name):
    return BenchmarkSpec(
        bench_id, Kind.SPEC, Category.SPEC, description,
        _Model(f"repro.apps.spec.{module}", name),
    )


#: The 19 Agave application benchmarks, in the paper's figure order.
AGAVE_BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    _android("aard.main", Category.DICTIONARY,
             "Aard offline dictionary: lookups + article rendering",
             "aard", "AardModel"),
    _android("coolreader.epub.view", Category.READER,
             "Cool Reader paging through an EPUB (CR3 native engine)",
             "coolreader", "CoolReaderModel"),
    _android("countdown.main", Category.UTILITY,
             "Minimal countdown timer (lightest Java workload)",
             "countdown", "CountdownModel"),
    _android("doom.main", Category.GAME,
             "Doom/prboom NDK port at its native 35Hz tic rate",
             "doom", "DoomModel"),
    _android("frozenbubble.main", Category.GAME,
             "Frozen Bubble pure-Java game loop (JIT-heavy)",
             "frozenbubble", "FrozenBubbleModel"),
    _android("gallery.mp4.view", Category.MEDIA,
             "Stock Gallery playing MP4 through mediaserver",
             "gallery", "GalleryMp4Model"),
    _android("jetboy.main", Category.GAME,
             "JetBoy sample game with the JET/sonivox audio engine",
             "jetboy", "JetBoyModel"),
    _android("music.mp3.view", Category.MEDIA,
             "Stock Music player streaming MP3 (foreground)",
             "music", "MusicMp3Model"),
    _android("music.mp3.view.bkg", Category.MEDIA,
             "Stock Music playback as a background service",
             "music", "MusicMp3BackgroundModel", background=True),
    _android("odr.ppt.view", Category.OFFICE,
             "OpenDocument Reader: slide deck (image-heavy)",
             "odr", "OdrPptModel"),
    _android("odr.txt.view", Category.OFFICE,
             "OpenDocument Reader: plain text (glyph-heavy)",
             "odr", "OdrTxtModel"),
    _android("odr.xls.view", Category.OFFICE,
             "OpenDocument Reader: spreadsheet (cell evaluation)",
             "odr", "OdrXlsModel"),
    _android("osmand.map.view", Category.MAPS,
             "OsmAnd map panning with native tile rasterisation",
             "osmand", "OsmandMapModel"),
    _android("osmand.nav.view", Category.MAPS,
             "OsmAnd turn-by-turn navigation (A* rerouting)",
             "osmand", "OsmandNavModel"),
    _android("pm.apk.view", Category.SYSTEM,
             "Package installer UI driving defcontainer + dexopt",
             "pm", "PmApkModel"),
    _android("pm.apk.view.bkg", Category.SYSTEM,
             "Background package installs (no UI)",
             "pm", "PmApkBackgroundModel", background=True),
    _android("vlc.mp3.view", Category.MEDIA,
             "VLC decoding MP3 in-process (NDK codecs)",
             "vlc", "VlcMp3Model"),
    _android("vlc.mp3.view.bkg", Category.MEDIA,
             "VLC background MP3 playback service",
             "vlc", "VlcMp3BackgroundModel", background=True),
    _android("vlc.mp4.view", Category.MEDIA,
             "VLC software video decode + SF composition",
             "vlc", "VlcMp4Model"),
)

#: The SPEC CPU2006 selection used by the paper.
SPEC_BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    _spec("401.bzip2", "Block compression (RLE+MTF+entropy kernel)",
          "bzip2", "Bzip2Model"),
    _spec("429.mcf", "Min-cost flow over large arc arrays",
          "mcf", "McfModel"),
    _spec("456.hmmer", "Profile-HMM Viterbi dynamic programming",
          "hmmer", "HmmerModel"),
    _spec("458.sjeng", "Alpha-beta game-tree search",
          "sjeng", "SjengModel"),
    _spec("462.libquantum", "Quantum register state-vector sweeps",
          "libquantum", "LibquantumModel"),
    _spec("999.specrand", "LCG random draws (flattest profile)",
          "specrand", "SpecrandModel"),
)

ALL_BENCHMARKS: tuple[BenchmarkSpec, ...] = AGAVE_BENCHMARKS + SPEC_BENCHMARKS

_INDEX: dict[str, BenchmarkSpec] = {b.bench_id: b for b in ALL_BENCHMARKS}

#: Benchmark id order as shown along the paper's x axes.
FIGURE_ORDER: tuple[str, ...] = tuple(b.bench_id for b in ALL_BENCHMARKS)
AGAVE_IDS: tuple[str, ...] = tuple(b.bench_id for b in AGAVE_BENCHMARKS)
SPEC_IDS: tuple[str, ...] = tuple(b.bench_id for b in SPEC_BENCHMARKS)


def get_benchmark(bench_id: str) -> BenchmarkSpec:
    """Look up a benchmark by id."""
    try:
        return _INDEX[bench_id]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {bench_id!r}; known: {', '.join(FIGURE_ORDER)}"
        ) from None


def benchmarks(ids: "tuple[str, ...] | list[str] | None" = None) -> list[BenchmarkSpec]:
    """Resolve a list of ids (default: the whole suite, figure order)."""
    if ids is None:
        return list(ALL_BENCHMARKS)
    return [get_benchmark(i) for i in ids]
