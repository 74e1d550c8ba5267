#!/bin/sh
# Runs every sweep file in a directory through dtsim_cli at a small
# workload scale and checks that each exits 0, reports no fatal error
# and prints one table row per grid point (an infeasible point prints
# its "infeasible:" row). The sweep files are the only way to
# reproduce the paper's grids, so this is what notices a broken one.
#
#   sh tests/sweep_files_smoke.sh build/tools/dtsim_cli examples/sweeps
#
# Outputs go to sweep_smoke_<name>.{out,err} in the working directory.

set -u
cli=$1
dir=$2
status=0
for f in "$dir"/*.conf; do
    name=$(basename "$f" .conf)
    out=sweep_smoke_$name.out
    err=sweep_smoke_$name.err
    # Grid size: the product of the value counts of the axis lines.
    expected=$(awk '
        { sub(/#.*/, "") }
        $1 == "sweep" { p = (p ? p : 1) * split($0, v, ",") }
        END { print p ? p : 1 }' "$f")
    if ! "$cli" --sweep "$f" --set workload.scale=0.01 \
            > "$out" 2> "$err"; then
        echo "$name: dtsim_cli exited non-zero"
        cat "$err"
        status=1
        continue
    fi
    if grep -q fatal "$out" "$err"; then
        echo "$name: fatal error reported"
        status=1
    fi
    rows=$(awk 'seen && NF { n++ } /^point / { seen = 1 }
                END { print n + 0 }' "$out")
    if [ "$rows" -ne "$expected" ]; then
        echo "$name: $rows table rows, expected $expected"
        status=1
    fi
done
if ! grep -q 'kind=for' sweep_smoke_smoke_synthetic.out; then
    echo "smoke_synthetic: no kind=for row"
    status=1
fi
exit $status
