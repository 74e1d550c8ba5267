#!/usr/bin/env python3
"""Fold a gprof flat profile's self time into the simulator's layers.

    gprof -b -p build-pg/tools/dtsim_cli gmon.out > flat.txt
    python3 tools/profile_layers.py flat.txt

Each function in the flat profile goes to the first layer whose symbol
pattern matches its demangled name (LAYERS below, in order), so the
type-erased event callbacks -- whose names embed the component that
created them -- count as kernel time before the component patterns are
tried. The script prints one table: self seconds and share of the
profile per layer, then the largest unmapped functions. It exits 1 when
unmapped self time exceeds MAX_UNMAPPED of the total (the table needs a
new pattern), and 2 when the file holds no flat-profile samples.
"""

import re
import sys

MAX_UNMAPPED = 0.05

# (layer, pattern) in match order; the first match wins.
LAYERS = [
    # Event kernel: the queue and its type-erased callbacks, whatever
    # component scheduled them.
    ("kernel", r"EventQueue|SmallFunction|SlabList"),
    # Workload generation and the preparation around it: server-model
    # and synthetic generators, the host buffer cache and prefetcher
    # they drive, the file-system image, FOR bitmap construction, the
    # trace summaries and the oracle HDC pin planner.
    ("generation",
     r"replayShard|RequestStream|ShardState|emitWritebacks|shardBounds|"
     r"jobIdOf|makeServerWorkload|"
     r"makeSynthetic|ServerModel|BufferCache|Prefetcher|coalesce|"
     r"ZipfSampler|FileSystemImage|FileLayout|Rng::|computeStats|"
     r"accessCountsSorted|MissCounter|MissRanking|"
     r"selectPinnedBlocks|SweepCache|"
     r"LayoutBitmap::(setRange|set|grow)\b|loadTrace|saveTrace"),
    # Host side of the replay: the closed-loop engine, the online HDC
    # policy, tracing and statistics.
    ("host",
     r"ReplayEngine|OnlineHdcPolicy|"
     r"RequestTracer|ServiceStats|stats::|runTrace|"
     r"Experiment|writeStats"),
    # Array and bus: striping, request splitting and mirroring, the
    # shared SCSI bus.
    ("array/bus", r"DiskArray|StripingMap|ScsiBus"),
    # Controller: request handling, schedulers, the read-ahead and HDC
    # caches and FOR bitmap lookups.
    ("controller",
     r"DiskController|Scheduler|SegmentCache|BlockCache|HdcStore|"
     r"LayoutBitmap|ControllerCache"),
    # Mechanism: seek, rotation and transfer timing.
    ("mechanism", r"DiskMechanism|SeekModel|DiskGeometry|Zone"),
]

_COMPILED = [(name, re.compile(pat)) for name, pat in LAYERS]

# "%time cumulative self [calls self/call total/call] name"
_ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                  r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def layer_of(name):
    for layer, rx in _COMPILED:
        if rx.search(name):
            return layer
    return None


def parse(lines):
    """(self seconds, name) of every flat-profile row."""
    rows = []
    in_table = False
    for line in lines:
        if line.lstrip().startswith("time ") and "name" in line:
            in_table = True
            continue
        if not in_table:
            continue
        if not line.strip():
            break
        m = _ROW.match(line)
        if m:
            rows.append((float(m.group(1)), m.group(2).strip()))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: profile_layers.py FLAT_PROFILE", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        rows = parse(f)
    total = sum(s for s, _ in rows)
    if total <= 0:
        print(f"{argv[1]}: no flat-profile samples", file=sys.stderr)
        return 2

    seconds = {layer: 0.0 for layer, _ in LAYERS}
    unmapped = []
    for self_s, name in rows:
        layer = layer_of(name)
        if layer is None:
            unmapped.append((self_s, name))
        else:
            seconds[layer] += self_s
    lost = sum(s for s, _ in unmapped)

    print(f"{argv[1]}: {total:.2f} s of self time")
    print(f"{'layer':<12} {'self_s':>8} {'share':>7}")
    for layer, _ in LAYERS:
        print(f"{layer:<12} {seconds[layer]:>8.2f} "
              f"{100.0 * seconds[layer] / total:>6.1f}%")
    print(f"{'unmapped':<12} {lost:>8.2f} {100.0 * lost / total:>6.1f}%")
    for self_s, name in sorted(unmapped, reverse=True)[:5]:
        if self_s > 0:
            print(f"  {self_s:.2f} s  {name[:100]}")
    if lost > MAX_UNMAPPED * total:
        print(f"unmapped self time exceeds {100 * MAX_UNMAPPED:.0f}%: "
              "extend LAYERS in tools/profile_layers.py", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
